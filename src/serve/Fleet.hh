/**
 * @file
 * Multi-chip serving fleet: an event-driven, chip-exclusive queueing
 * simulation over N instances of the modelled AIM chip.  Every
 * request executes its cached CompiledModel through sim::Runtime with
 * a per-request noise seed, so service times carry the real IR-drop /
 * booster dynamics of the chip model rather than a fitted constant.
 *
 * Two serving-specific costs sit on top of the chip model:
 *
 *   weight reload -- switching a chip's resident model rewrites every
 *       macro's SRAM-resident weights; the cost scales with the
 *       model's pretrained weight count
 *   booster retune -- moving the chip between workloads of different
 *       safe Rtog levels forces the IR-Booster through V-f retune
 *       transients, one settle per level step
 *
 * The IR-aware scheduler exists to dodge exactly these two costs.
 *
 * workScale extrapolation: compiled artifacts simulate a fraction of
 * each inference (AimOptions::workScale); the fleet scales measured
 * wall times and MAC counts back to full-inference magnitudes so
 * latencies, SLOs and TOPS are in real units.
 *
 * Engine: a replay is a finite, fully materialized stream, so serve()
 * is an adapter over stream::EventLoop with every control policy off
 * (no autoscaler, unbounded admission, no batching, exact service,
 * exact latency vectors).  The dispatch schedule, the cost
 * arithmetic and the concurrent request execution (FleetConfig::
 * threads host workers, bit-identical reports at any thread count)
 * are the EventLoop's; see stream/EventLoop.hh.
 */

#ifndef AIM_SERVE_FLEET_HH
#define AIM_SERVE_FLEET_HH

#include <string>
#include <vector>

#include "aim/Aim.hh"
#include "serve/ChipSku.hh"
#include "serve/ModelCache.hh"
#include "serve/Scheduler.hh"
#include "serve/ServeReport.hh"
#include "shard/Partitioner.hh"
#include "shard/ShardedRuntime.hh"

namespace aim::serve
{

/**
 * Gang-dispatch rule: requests for @p model execute sharded across
 * a group of partition.chips chips (src/shard/) instead of on a
 * single chip.  The gang is acquired atomically -- the request waits
 * until that many chips are simultaneously free -- and every member
 * chip is held for the whole pipeline makespan.
 */
struct GangSpec
{
    /** ModelZoo name served sharded. */
    std::string model;
    /** Partition shape (partition.chips = gang size). */
    shard::PartitionConfig partition;
    /** Micro-batches per request in the stage pipeline. */
    int microBatches = 4;
};

/**
 * Fleet shape and serving-cost calibration.
 *
 * `options` participates on both sides of the compile/execute split:
 * it keys the ModelCache artifacts the fleet requests (so two fleets
 * with different options never share artifacts) and, via
 * runConfigFor(), configures the per-chip runtimes that execute
 * them.  The fleet never compiles -- artifacts always come from the
 * caller's ModelCache.
 */
struct FleetConfig
{
    /** Chips in the fleet. */
    int chips = 3;
    /** Dispatch policy. */
    SchedPolicy policy = SchedPolicy::Fcfs;
    /** Compile / runtime options applied to every served model. */
    AimOptions options;
    /** Fleet seed; per-request runtime seeds derive from it. */
    uint64_t seed = 99;
    /**
     * Host worker threads executing chip runs (simulated results do
     * not depend on it).  1 = inline serial execution; 0 resolves to
     * the hardware concurrency; negative is rejected by
     * validateFleetConfig.
     */
    int threads = 1;
    /**
     * Macro weight reload cost per million weight elements [us]
     * (default ~ 8-bit weights over a ~100 GB/s on-package link).
     * Single source of truth for the reload link: when
     * options.isaLoadUsPerMword / isaRetuneUs carry their negative
     * "derive" sentinel, the serving engines copy this value (and
     * retuneUsPerStep) into the options at construction
     * (resolveDerivedCosts), so the instruction-grain costs and the
     * whole-model dispatch costs price the same link.
     */
    double reloadUsPerMweight = 8.0;
    /** Booster V-f retune cost per safe-level step [us]. */
    double retuneUsPerStep = 0.5;
    /** Models served sharded across chip gangs (may be empty). */
    std::vector<GangSpec> gangs;
    /** Chip-to-chip link calibration for gang-dispatched models. */
    shard::InterconnectConfig interconnect;
    /**
     * Chip SKU table of a heterogeneous fleet.  Empty (the default)
     * = homogeneous legacy fleet: every chip is the (cfg, cal) pair
     * the engine was constructed with, and behavior is bit-identical
     * to pre-SKU fleets.  Non-empty: every chip is an instance of
     * one of these SKUs per `skuOf`, artifacts compile per SKU, and
     * dispatch is capability-aware (a model only lands on a chip
     * whose SKU capacity holds its weights).
     */
    std::vector<ChipSku> skus;
    /**
     * Per-chip SKU assignment: skuOf[c] indexes `skus`.  Must have
     * exactly `chips` entries when `skus` is non-empty, and must be
     * empty when it is.
     */
    std::vector<int> skuOf;
};

/**
 * Check a fleet shape for values the simulation cannot represent.
 *
 * @return empty when valid, otherwise a human-readable description
 *         of the first problem found: non-positive chips, negative
 *         threads, invalid AimOptions / interconnect calibration, a
 *         gang whose size exceeds the fleet or whose partition /
 *         micro-batch shape is invalid, duplicate gang models, an
 *         invalid or inconsistent SKU table (bad ChipSku, skuOf
 *         size/range mismatch, duplicate SKU names), or -- on a
 *         heterogeneous fleet -- a gang whose size exceeds the
 *         number of chips *capable* of holding its per-member weight
 *         share.  The Fleet constructor calls this and aim_fatal on
 *         a non-empty result.
 */
std::string validateFleetConfig(const FleetConfig &fcfg);

/**
 * @p fcfg with the negative "derive" sentinel of
 * options.isaLoadUsPerMword / isaRetuneUs replaced by
 * reloadUsPerMweight / retuneUsPerStep (see
 * FleetConfig::reloadUsPerMweight).  Idempotent.
 */
FleetConfig resolveDerivedCosts(FleetConfig fcfg);

/** Simulates serving a request trace on a fleet of AIM chips. */
class Fleet
{
  public:
    /**
     * Fatal on an invalid @p fcfg.  The stored config is
     * resolveDerivedCosts(fcfg); config() returns the resolved
     * values.  On a heterogeneous fleet (fcfg.skus set)
     * @p cfg and @p cal are ignored in favour of the per-chip SKUs.
     */
    Fleet(const pim::PimConfig &cfg, const power::Calibration &cal,
          const FleetConfig &fcfg);

    /**
     * Serve a trace to completion (non-preemptive, chip-exclusive).
     * Artifacts come from @p cache, compiled on first use; the trace
     * must be sorted by arrival time with ids in [0, N)
     * (generateTrace output is).  Chip executions run on
     * FleetConfig::threads host workers; the returned report is
     * bit-identical at any thread count.  A model that fits no chip
     * of the fleet is fatal.
     *
     * Requests for a FleetConfig::gangs model execute sharded: the
     * fleet acquires the gang's chips atomically (start waits for
     * all members to free up), charges per-chip stage reloads and
     * retunes, and holds every member for the pipeline makespan.
     */
    ServeReport serve(const std::vector<Request> &trace,
                      ModelCache &cache);

    const FleetConfig &config() const { return fcfg; }

  private:
    pim::PimConfig cfg;
    power::Calibration cal;
    FleetConfig fcfg;
};

} // namespace aim::serve

#endif // AIM_SERVE_FLEET_HH
