/**
 * @file
 * Outcome of a streaming serve run: throughput, latency digest,
 * admission/shedding accounting, autoscaler trajectory, per-chip
 * usage and model-cache pressure.
 *
 * Latency lives in one of two digests, chosen by the engine's
 * config.  Exact mode keeps per-request latency/queue vectors
 * indexed by request id (serve::ServeReport's; a Fleet replay is an
 * exact-mode stream).  Histogram mode folds every completion into
 * fixed log-spaced buckets, so a day-long stream of millions of
 * requests reports percentiles in O(1) memory (the bench's
 * bounded-RSS requirement); percentiles are then bucket-resolution
 * approximations (~9% worst-case, 2^(1/8) bucket ratio).
 */

#ifndef AIM_STREAM_STREAMREPORT_HH
#define AIM_STREAM_STREAMREPORT_HH

#include <array>
#include <string>
#include <vector>

#include "serve/ServeReport.hh"

namespace aim::stream
{

/** Fixed-size log-bucket latency accumulator. */
class LatencyHistogram
{
  public:
    /** Fold one completion [us]. */
    void record(double latencyUs);

    /** Completions recorded. */
    long count() const { return total; }

    /**
     * Approximate percentile [us] (p in [0, 100]); 0 when empty.
     * Resolution is the bucket ratio 2^(1/8) (~9%).
     */
    double percentile(double p) const;

    /** Mean of the recorded latencies (exact, not bucketed) [us]. */
    double mean() const { return total > 0 ? sumUs / total : 0.0; }

  private:
    /** Lowest resolvable latency [us]; below folds into bucket 0. */
    static constexpr double minUs = 0.1;
    /** 8 buckets per octave over ~2^40 of dynamic range. */
    static constexpr int bucketCount = 320;

    std::array<long, bucketCount> buckets{};
    long total = 0;
    double sumUs = 0.0;
};

/** One control-tick sample of the run's trajectory. */
struct ControlSample
{
    /** Tick time [us]. */
    double tUs = 0.0;
    /** Dispatchable chips after the tick's scaling action. */
    int activeChips = 0;
    /** Windowed p99 the autoscaler saw [us]; -1 = no window yet. */
    double windowP99Us = -1.0;
    /** Admitted requests waiting for a chip at the tick. */
    long queueDepth = 0;
    /** Cumulative shed fraction at the tick. */
    double shedRate = 0.0;
};

/**
 * Everything an EventLoop::run produces: the serve::ServeReport every
 * serving engine fills (a Fleet replay is this report sliced to its
 * base) plus the stream-only admission, control-plane and batching
 * accounting.
 */
struct StreamReport : serve::ServeReport
{
    /** Arrivals generated (admitted + shed). */
    long arrivals = 0;
    /** Requests admitted past admission control. */
    long admitted = 0;
    /** Requests shed at admission. */
    long shed = 0;
    /** Chips reactivated on demand because a gang arrived while the
     * autoscaler had shrunk its capable chips below the gang size
     * (the recovery path of the acquireGang crash fix). */
    long gangReactivations = 0;
    /** Requests co-dispatched behind a batch leader (dynamic
     * batching; they paid no reload). */
    long batchedRequests = 0;
    /** Autoscaler grow / shrink actions taken. */
    long scaleUps = 0;
    long scaleDowns = 0;
    /** Mean end-to-end latency [us] (exact in both latency modes). */
    double meanUs = 0.0;

    /** Control-tick trajectory, in tick order. */
    std::vector<ControlSample> trajectory;

    /** Shed fraction of all arrivals. */
    double shedRate() const;

    /** Human-readable summary (headline lines + tables). */
    std::string render() const;
};

} // namespace aim::stream

#endif // AIM_STREAM_STREAMREPORT_HH
