/**
 * @file
 * Aggregated outcome of one serving simulation: request latency
 * percentiles, SLO accounting, per-chip utilization breakdown and
 * fleet-level throughput.  Rendered with util::Table for the example
 * and benchmark binaries.
 */

#ifndef AIM_SERVE_SERVEREPORT_HH
#define AIM_SERVE_SERVEREPORT_HH

#include <string>
#include <vector>

#include "power/IrBackend.hh"
#include "serve/Scheduler.hh"

namespace aim::serve
{

/** Where one chip's makespan went. */
struct ChipUsage
{
    /** Requests this chip served. */
    long served = 0;
    /** Time spent executing inferences [us]. */
    double busyUs = 0.0;
    /** Time spent reloading macro weights on model switches [us]. */
    double reloadUs = 0.0;
    /** Time spent retuning the IR-Booster across levels [us]. */
    double retuneUs = 0.0;
    /** Model switches (each implies a full weight reload). */
    long modelSwitches = 0;

    /** Fraction of the makespan doing useful inference work. */
    double utilization(double makespanUs) const;
};

/**
 * Everything a Fleet::serve replay produces; also the base of
 * stream::StreamReport, which adds the stream-only accounting.
 */
struct ServeReport
{
    SchedPolicy policy = SchedPolicy::Fcfs;
    /** Droop backend every chip execution ran under. */
    power::IrBackendKind backend = power::IrBackendKind::Analytic;
    /** Executions ran on the instruction-level ISA engine. */
    bool isa = false;
    /** Reload time hidden under trailing compute on model switches
     * [us] (ISA path only; 0 on the round-level path). */
    double reloadOverlapSavedUs = 0.0;
    /** Scheduled-vs-in-order makespan savings summed over requests
     * [us] (isaSchedule artifacts only; 0 otherwise). */
    double scheduleSavedUs = 0.0;
    /** Requests served (completed). */
    long requests = 0;
    /** First arrival to last completion [us]. */
    double makespanUs = 0.0;
    /** End-to-end latency per request, indexed by request id [us]
     * (a stream's shed requests hold -1; empty in a stream's
     * histogram latency mode). */
    std::vector<double> latencyUs;
    /** Queueing delay per request, indexed by request id [us]. */
    std::vector<double> queueUs;
    /** Requests whose latency exceeded their SLO. */
    long sloViolations = 0;
    /** Full-inference MAC work served (workScale extrapolated). */
    double totalMacs = 0.0;
    /** IRFailures raised across all request executions. */
    long irFailures = 0;
    /** Runtime windows lost to recompute / V-f settling. */
    long stallWindows = 0;
    /** Requests dispatched to multi-chip gangs (sharded models). */
    long gangDispatches = 0;
    /** Requests placed on a chip whose SKU cannot hold their model
     * (always 0 when capability-aware placement works; the
     * heterogeneous-fleet test suites assert on it). */
    long placementViolations = 0;
    /** ModelCache lookups served from the cache during this run. */
    long cacheHits = 0;
    /** ModelCache lookups that compiled a new artifact. */
    long cacheMisses = 0;
    /** Artifacts the ModelCache evicted under capacity pressure. */
    long cacheEvictions = 0;
    /** Per-chip usage, indexed by chip id. */
    std::vector<ChipUsage> chips;

    /** Latency percentiles, precomputed by the engine [us]. */
    double p50Us = 0.0;
    double p95Us = 0.0;
    double p99Us = 0.0;

    /** Any latency percentile over the completed requests [us]
     * (p in [0, 100]). */
    double latencyPercentile(double p) const;

    /** Mean end-to-end latency of the completed requests [us]. */
    double meanLatencyUs() const;

    /** Served requests per second of makespan. */
    double throughputRps() const;

    /** Aggregate effective throughput over the makespan [TOPS]. */
    double aggregateTops() const;

    /** Model switches summed over chips. */
    long totalModelSwitches() const;

    /** Human-readable summary (tables + headline lines). */
    std::string render() const;

  protected:
    /**
     * The summary below the headline that every serving report
     * shares: latency (with @p meanUs as its mean), SLO and fault
     * counts, gang and ISA lines, and the per-chip usage table.
     */
    std::string renderBody(double meanUs) const;
};

} // namespace aim::serve

#endif // AIM_SERVE_SERVEREPORT_HH
