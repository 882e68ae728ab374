/**
 * @file
 * Long-lived discrete-event serving engine.
 *
 * The serving layer's one dispatcher.  It serves an *endless*
 * stream from the lazy TraceSource, or a finite, materialized trace
 * (run(trace, cache), which serve::Fleet::serve wraps).  Time
 * advances through a time-ordered event heap of three event kinds:
 *
 *   Arrival     -- the source's next request reaches the front door;
 *                  admission control admits it into the pending
 *                  queue or sheds it
 *   Completion  -- a dispatched request finishes; its latency lands
 *                  in the digests and the freed chip can take work
 *   ControlTick -- the periodic control plane runs: the autoscaler
 *                  grows/shrinks the active chip pool against the
 *                  windowed p99, and a trajectory sample is recorded
 *
 * After the events of a timestamp drain, the dispatcher places
 * queued requests on free chips -- earliest-free chip first, the
 * serve::Scheduler policy picking among the requests that have
 * arrived -- until chips or work run out.  Nothing starts before it
 * arrives.  Memory is bounded by the queue depth, the lookahead and
 * in-flight work, never by the stream length.
 *
 * Replay equivalence: serve::Fleet::serve is this loop with the
 * control policies off (no autoscaler, unbounded admission, no
 * batching, exact service, exact latencies), so a Fleet replay and
 * a finite stream of the same requests produce the same report by
 * construction.  The replay digests in tests/serve/FleetTest pin
 * that report to the one the former dedicated replay loop produced.
 *
 * Determinism: request execution uses id-keyed seeds and memoizes
 * each request's RunReport, evaluated concurrently on an
 * exec::ExecPool and consumed in dispatch order, so reports are
 * bit-identical across FleetConfig::threads counts.
 *
 * Service-time modes: exact (every request executes on the chip
 * model; the replay mode) and sampled (per model, K seeded
 * RunReports are drawn once and requests sample among them by their
 * id-keyed seed) -- the latter is what makes a day-long million-
 * request bench tractable while keeping per-request variation.
 * With StreamConfig::transientCarry, requests execute serially at
 * dispatch and thread each chip's settled electrical state into the
 * next request on that chip (power::IrState burst continuity).
 *
 * Exact-service lookahead: a lightly loaded fleet dispatches most
 * requests alone, so executing only the queued requests would run
 * one request per ExecPool fan-out.  Whenever a queued request lacks
 * its report, the loop therefore also draws up to a fixed number of
 * not-yet-arrived requests (256) from the source and executes, in
 * the same fan-out, every one whose model already has an artifact:
 * the artifact of the last admitted request of that model (per SKU
 * class, or the gang artifact), so the lookahead never touches the
 * ModelCache and cache counters count admitted lookups only.
 * Reports are pure functions of (artifact, id-keyed seed), so the
 * lookahead changes no bit of any report; the report of a request
 * that admission sheds is dropped.
 */

#ifndef AIM_STREAM_EVENTLOOP_HH
#define AIM_STREAM_EVENTLOOP_HH

#include <functional>
#include <string>
#include <vector>

#include "serve/Fleet.hh"
#include "serve/ModelCache.hh"
#include "serve/Trace.hh"
#include "stream/AdmissionController.hh"
#include "stream/Autoscaler.hh"
#include "stream/StreamReport.hh"

namespace aim::stream
{

/** Tuning of a streaming serve run. */
struct StreamConfig
{
    /** Fleet shape, policy, execution options, seed, threads. */
    serve::FleetConfig fleet;
    /** Arrival process of the lazy source. */
    serve::TraceConfig trace;
    /**
     * Requests to stream before the source closes; 0 falls back to
     * trace.requests.  The run always drains to completion.
     */
    long maxRequests = 0;
    /** Control-plane period [us]; 0 disables control ticks. */
    double controlTickUs = 0.0;
    AutoscalerConfig autoscaler;
    AdmissionConfig admission;
    /**
     * Dynamic batching: when a chip dispatches, co-dispatch up to
     * maxBatch-1 further queued requests of the same model behind
     * the leader, paying the reload/retune once.
     */
    bool batching = false;
    int maxBatch = 4;
    /**
     * 0 = exact service (every request executes on the chip model;
     * the Fleet replay's mode).  K > 0 = sampled service:
     * per model, K id-seeded RunReports are executed once and each
     * request draws one by its request seed.
     */
    long serviceSamples = 0;
    /**
     * false = exact per-request latency vectors (memory grows with
     * the horizon); true = fixed log-bucket histogram (O(1) memory,
     * the day-long-bench mode).
     */
    bool histogramLatency = false;
    /**
     * Thread each chip's settled electrical state into the next
     * request on that chip (power::IrState; effective with the
     * Transient droop backend).  Forces serial execution at
     * dispatch, so it excludes sampled service.
     */
    bool transientCarry = false;
};

/** Empty when valid, else the first problem. */
std::string validateStreamConfig(const StreamConfig &scfg);

/** The streaming serving engine.  One instance per run. */
class EventLoop
{
  public:
    /**
     * Fatal on an invalid StreamConfig, except for its trace: that is
     * checked when run(cache) builds the source, since a replay
     * (run(trace, cache)) does not use it.  Resolves the fleet's
     * derived costs (serve::resolveDerivedCosts).
     */
    EventLoop(const pim::PimConfig &cfg,
              const power::Calibration &cal,
              const StreamConfig &scfg);

    /**
     * Stream the configured horizon from the lazy TraceSource to
     * completion.  Artifacts come from @p cache (shared and warm
     * across runs); the report's cache counters are deltas over
     * this run.
     */
    StreamReport run(serve::ModelCache &cache);

    /**
     * Serve a finite @p trace to completion instead of the lazy
     * source (StreamConfig::trace and maxRequests are unused).  The
     * trace must be sorted by arrival time, with ids in [0, N).
     */
    StreamReport run(const std::vector<serve::Request> &trace,
                     serve::ModelCache &cache);

  private:
    StreamReport serveStream(long horizon,
                             const std::function<serve::Request()> &next,
                             serve::ModelCache &cache);

    pim::PimConfig cfg;
    power::Calibration cal;
    StreamConfig scfg;
};

} // namespace aim::stream

#endif // AIM_STREAM_EVENTLOOP_HH
