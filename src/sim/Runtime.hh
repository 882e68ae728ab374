/**
 * @file
 * Chip-level runtime: executes compiled rounds on the 64-macro chip
 * with per-group IR monitors and IR-Booster controllers.
 *
 * Time advances in *windows* of one bit-serial pass (inputBits
 * cycles).  Every window, each active group samples its worst-macro
 * Rtog, the configured droop backend (power/IrBackend: Equation-2
 * analytic or incremental PDN-mesh) produces the group's droop, the
 * monitor digitizes it against the timing threshold of the current
 * frequency, and the Algorithm-2 controller reacts.  IRFailures
 * trigger recompute stalls for the failing group's Sets (Figure 11);
 * V-f switches cost settle windows.  Energy, wall time, IR-drop and
 * level statistics are aggregated into a RunReport.
 *
 * The engine itself is decomposed: sim/ChipState holds the round's
 * mutable state, sim/WindowKernel advances one window, and Runtime
 * is the thin orchestrator that maps tasks, loops windows and
 * finalizes reports.
 */

#ifndef AIM_SIM_RUNTIME_HH
#define AIM_SIM_RUNTIME_HH

#include <map>
#include <memory>
#include <vector>

#include "booster/GroupBooster.hh"
#include "mapping/Mappers.hh"
#include "pim/ToggleModel.hh"
#include "power/IrBackend.hh"
#include "power/IrMonitor.hh"
#include "power/PowerModel.hh"
#include "power/VfTable.hh"
#include "sim/Compiler.hh"

namespace aim::sim
{

/** Runtime tuning. */
struct RunConfig
{
    booster::BoosterConfig boost;
    /** false = DVFS baseline: nominal pair, no adjustment. */
    bool useBooster = true;
    /** Mapping strategy for each round. */
    mapping::MapperKind mapper = mapping::MapperKind::HrAware;
    uint64_t seed = 31;
    /** Safety cap on windows per round. */
    long maxWindowsPerRound = 200000;
    /**
     * Droop-evaluation backend (power/IrBackend): Analytic keeps the
     * Equation-2 fast path (bit-identical to the pre-backend
     * runtime); Mesh reads the exact DC droop of the PdnMesh PDN
     * per window for layout-level fidelity; Transient advances an RC
     * mesh (decap + bump inductance) one implicit-Euler step per
     * window for di/dt first-droop fidelity.
     */
    power::IrBackendKind irBackend = power::IrBackendKind::Analytic;
    /** Per-node decap of the Transient backend [nF]. */
    double transientDecapNf = 20.0;
    /** Implicit-Euler step per window of the Transient backend
     * [ns]. */
    double transientDtNs = 2.0;
    /** Series bump/package loop inductance of the Transient backend
     * [pH]; scaled by a chip SKU's PDN corner (serve::PdnCorner) to
     * model parts with different power-delivery networks. */
    double transientBumpPh = 200.0;
};

/** Aggregated outcome of a run. */
struct RunReport
{
    /** Total wall time [ns]. */
    double wallTimeNs = 0.0;
    /** Total useful MACs executed. */
    double totalMacs = 0.0;
    /** Effective throughput [TOPS] (2 ops per MAC). */
    double tops = 0.0;
    /** Mean power per active macro [mW]. */
    double macroPowerMw = 0.0;
    /** Worst sampled group IR-drop [mV]. */
    double irWorstMv = 0.0;
    /** Mean sampled group IR-drop [mV]. */
    double irMeanMv = 0.0;
    /** IRFailure count. */
    long failures = 0;
    /** Windows lost to recomputing and V-f settling. */
    long stallWindows = 0;
    /** Useful (progress) windows. */
    long usefulWindows = 0;
    /** V-f switch count. */
    long vfSwitches = 0;
    /** Work-weighted mean Rtog level of active groups [%]. */
    double meanLevel = 0.0;
    /** Work-weighted mean cycle Rtog. */
    double meanRtog = 0.0;
    /**
     * Wall time of each executed round [ns], in execution order.
     * mergeReports concatenates, so a merged report carries the full
     * per-round latency breakdown of the model (the serving layer
     * consumes this for queueing and latency accounting).
     */
    std::vector<double> roundLatencyNs;

    /** Fraction of windows doing useful work. */
    double utilization() const;
    /** Energy efficiency proxy [TOPS/W of the macro array]. */
    double topsPerWatt(int activeMacros) const;
};

class ChipState;
struct WindowStats;

/**
 * Construction-time execution environment of the window engine:
 * everything Runtime::runRound needs that is immutable across
 * rounds -- the V-f table, power model, the per-frequency timing
 * thresholds (one bisection each, computed once), the stall widths
 * and the shared droop backend.  Factored out of Runtime so the
 * instruction-level engine (src/isa/Engine) executes against the
 * byte-identical environment instead of re-deriving its own.
 */
struct RuntimeEnv
{
    RuntimeEnv(const pim::PimConfig &cfg,
               const power::Calibration &cal, const RunConfig &rcfg);

    pim::PimConfig cfg;
    power::Calibration cal;
    RunConfig rcfg;
    power::VfTable table;
    power::PowerModel pm;
    /** Timing threshold per grid frequency. */
    std::map<double, double> vminByF;
    long recomputeStall = 1;
    long switchStall = 1;
    /** Shared across rounds and threads (immutable; evals are
     * per-round).  shared_ptr keeps the env copyable. */
    std::shared_ptr<const power::IrBackend> backend;
};

/**
 * Post-loop round finalization shared by Runtime::runRound and
 * isa::Engine: wall time from the Set clocks, energy -> macro power,
 * the work-weighted level/Rtog/droop means and the effective-TOPS
 * derivation.  @p rep must already carry the loop-accumulated
 * counters (failures, stalls, useful windows, totalMacs).
 */
void finalizeRoundReport(const ChipState &state,
                         const WindowStats &stats,
                         const RuntimeEnv &env, RunReport &rep);

/** Executes rounds on the modelled chip. */
class Runtime
{
  public:
    Runtime(const pim::PimConfig &cfg, const power::Calibration &cal,
            const RunConfig &rcfg);

    /**
     * Run a compiled model.
     *
     * @param rounds compiled rounds
     * @param stream activation statistics of the workload
     */
    RunReport run(const std::vector<Round> &rounds,
                  const pim::StreamSpec &stream) const;

    /**
     * Run a compiled model with an explicit seed overriding
     * RunConfig::seed.  Lets one Runtime serve many requests with
     * decorrelated (but individually reproducible) noise streams.
     *
     * Thread-safety: run() is const and keeps all mutable execution
     * state (RNG, group/set bookkeeping, monitors, boosters) in
     * stack-local objects, so one Runtime may execute concurrent
     * run() calls from many threads.  The report is a pure function
     * of (rounds, stream, seed) and the construction-time config --
     * neither the calling thread nor the interleaving of concurrent
     * runs can change it, which is what lets exec::ExecPool
     * parallelize fleet serving bit-identically (src/serve/Fleet).
     */
    RunReport run(const std::vector<Round> &rounds,
                  const pim::StreamSpec &stream,
                  uint64_t seed) const;

    /**
     * Run with electrical-state carry: @p carry (when non-null) is
     * read to seed the first round's droop evaluator and overwritten
     * with the settled state of the last round, so back-to-back
     * requests on one chip see burst continuity instead of a cold DC
     * re-init (stateful backends only; the analytic and mesh
     * backends export nothing and ignore seeds).  A null @p carry --
     * or a carry holding nullptr on entry for the first request --
     * executes the seedless path bit-identically to run(rounds,
     * stream, seed).  Callers that carry state serialize runs per
     * chip themselves; the carry pointer must not be shared across
     * concurrent calls.
     */
    RunReport run(const std::vector<Round> &rounds,
                  const pim::StreamSpec &stream, uint64_t seed,
                  std::unique_ptr<power::IrState> *carry) const;

    /** Access the V-f table (for reporting). */
    const power::VfTable &vfTable() const { return env.table; }

    /** The droop backend executing this runtime's windows. */
    const power::IrBackend &irBackend() const
    {
        return *env.backend;
    }

    /** The shared execution environment (isa::Engine's substrate). */
    const RuntimeEnv &environment() const { return env; }

  private:
    RunReport runRound(const Round &round,
                       const pim::ToggleStats &toggles,
                       uint64_t roundSeed,
                       std::unique_ptr<power::IrState> *carry) const;

    RuntimeEnv env;
};

/** Merge per-round reports (time-weighted means). */
RunReport mergeReports(const std::vector<RunReport> &parts);

} // namespace aim::sim

#endif // AIM_SIM_RUNTIME_HH
