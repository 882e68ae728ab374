/**
 * @file
 * Output checks of the benchmark.  Each checker compares a program
 * output against a computation of the harness's own or against a
 * property the output must hold, and returns one line per violation
 * (empty = pass).  They take plain report data so that
 * aimbench_selftest can feed them inputs with planted errors.
 */
#ifndef AIMBENCH_CHECKS_HH
#define AIMBENCH_CHECKS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "aim/Aim.hh"
#include "serve/ServeReport.hh"
#include "stream/StreamReport.hh"

namespace aimbench
{

using Problems = std::vector<std::string>;

/** Sum of outChannels * reduction * spatial over a model's layers. */
long specMacs(const aim::workload::ModelSpec &model);

/** Task MACs of an untruncated tiling must sum to specMacs(). */
Problems checkMacConservation(
    const aim::workload::ModelSpec &model,
    const std::vector<aim::sim::Round> &untruncated);

/**
 * The artifact's rounds are the untruncated tiling with every task
 * scaled by workScale and floored at @p floorMacs (one macro pass),
 * task for task.
 */
Problems checkScaledTiling(
    const std::vector<aim::sim::Round> &untruncated,
    const aim::CompiledModel &artifact, long floorMacs);

/** Deployed HR below the baseline; baseline within 0.5 +- 0.05. */
Problems checkHr(const aim::CompiledModel &artifact);

/**
 * Equation 3 by the harness's own popcount: every deployed layer's
 * HR must equal the HR the pipeline recorded for it, and their mean
 * the artifact's hrAverage, bit for bit.
 */
Problems checkPopcountHr(
    const std::vector<aim::quant::QuantizedLayer> &layers,
    const std::vector<double> &recordedLayerHr,
    double recordedHrAverage);

/** One execution of an artifact: MACs conserved, droop inside
 * (0, signoff), scheduled makespan no longer than in-order. */
Problems checkExecution(const aim::CompiledModel &artifact,
                        const aim::AimReport &rep,
                        double signoffWorstMv);

/**
 * A replayed trace of @p requests requests.  Requests that did not
 * complete with latency >= queue >= 0 and latency > 0 are counted
 * into @p failedRequests; whole-run properties (chips served,
 * per-chip time budget, placement, one cache hit per request and no
 * miss, MAC total to 1e-9) are returned.
 */
Problems checkReplay(const aim::serve::ServeReport &rep,
                     long requests, double expectedMacs,
                     long *failedRequests);

/**
 * A streamed horizon of @p horizon arrivals.  Arrivals that were
 * shed or did not complete are counted into @p failedArrivals;
 * whole-run properties (accounting identities, no shedding,
 * percentile order, MAC total to 1e-9, no cache miss or misplacement
 * and, when @p autoscaled, at least one scale-up and one
 * scale-down) are returned.
 */
Problems checkStream(const aim::stream::StreamReport &rep,
                     long horizon, double expectedMacs,
                     bool autoscaled, long *failedArrivals);

/**
 * The histogram digest of a run against the exact latencies of the
 * same stream: folding the exact latencies must count every
 * completion and give the digest's percentiles bit for bit.
 */
Problems checkDigest(const aim::stream::StreamReport &digest,
                     const aim::stream::StreamReport &exact);

/**
 * A compile decomposed into its layer entry points against the
 * pipeline's artifact: HR figures, accuracy, every task of every
 * round, and the lowered program and schedule, bit for bit.
 */
Problems checkSameArtifact(const aim::CompiledModel &decomposed,
                           const aim::CompiledModel &pipeline);

/** Two chip-level reports of the same execution, bit for bit. */
Problems checkSameRun(const aim::sim::RunReport &a,
                      const aim::sim::RunReport &b,
                      const std::string &what);

/** FNV-1a digest of every simulated field of a report: equal
 * digests across passes and runs mean bit-identical reports. */
uint64_t digest(const aim::serve::ServeReport &rep);
uint64_t digest(const aim::stream::StreamReport &rep);
/** Digest of compiled artifacts (HR figures, every task's MACs and
 * HR, program size) and of one execution of each. */
uint64_t
digest(const std::vector<std::shared_ptr<const aim::CompiledModel>> &artifacts,
       const std::vector<aim::AimReport> &executions);

} // namespace aimbench

#endif // AIMBENCH_CHECKS_HH
