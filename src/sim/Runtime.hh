/**
 * @file
 * Chip-level runtime: executes compiled rounds on the 64-macro chip
 * with per-group IR monitors and IR-Booster controllers.
 *
 * Time advances in *windows* of one bit-serial pass (inputBits
 * cycles).  Every window, each active group samples its worst-macro
 * Rtog, the configured droop backend (power/IrBackend: Equation-2
 * analytic, exact DC PDN mesh or RC transient) produces the group's
 * droop, the monitor digitizes it against the timing threshold of
 * the current frequency, and the Algorithm-2 controller reacts.
 * IRFailures trigger recompute stalls for the failing group's Sets
 * (Figure 11); V-f switches cost settle windows.  Energy, wall time,
 * IR-drop and level statistics are aggregated into a RunReport.
 *
 * Runtime::run is the repo's one round walk: per round it maps the
 * tasks (Algorithm 3), sets up sim/ChipState, steps sim/WindowKernel
 * until every Set retires and finalizes the round report.  The
 * instruction-level engine (isa/Engine) does not walk rounds itself;
 * it observes this walk through read-only RoundHooks and keeps its
 * scoreboard, trace and timing replay on top.
 */

#ifndef AIM_SIM_RUNTIME_HH
#define AIM_SIM_RUNTIME_HH

#include <functional>
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

/**
 * Read-only observers of Runtime::run's round walk (the ISA engine's
 * attachment point).  Each hook is optional; none may mutate the
 * state, so a hooked run is bit-identical to an unhooked one.
 */
struct RoundHooks
{
    /** Round @p round starts, after its setup.  @p state is null for
     * an empty round, which consumes no time, RNG or carry. */
    std::function<void(size_t round, const ChipState *state)> begin;
    /** After each window; @p windowsRun counts the round's windows
     * so far. */
    std::function<void(const ChipState &state, long windowsRun)>
        window;
    /** The round's Sets have all retired (before finalization). */
    std::function<void(const ChipState &state)> end;
};

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
     *
     * @param carry optional electrical-state carry: read to seed the
     *        first round's droop evaluator and overwritten with the
     *        settled state of the last round, so back-to-back
     *        requests on one chip see burst continuity instead of a
     *        cold DC re-init (stateful backends only; the analytic
     *        and mesh backends export nothing and ignore seeds).  A
     *        carry holding nullptr on entry runs bit-identically to
     *        a null @p carry.  Callers that carry state serialize
     *        runs per chip themselves; the carry pointer must not be
     *        shared across concurrent calls.
     * @param hooks optional observers of the round walk
     */
    RunReport run(const std::vector<Round> &rounds,
                  const pim::StreamSpec &stream, uint64_t seed,
                  std::unique_ptr<power::IrState> *carry = nullptr,
                  const RoundHooks *hooks = nullptr) const;

    /** Access the V-f table (for reporting). */
    const power::VfTable &vfTable() const { return table; }

    /** The droop backend executing this runtime's windows. */
    const power::IrBackend &irBackend() const { return *backend; }

  private:
    RunReport runRound(size_t index, const Round &round,
                       const pim::ToggleStats &toggles,
                       uint64_t roundSeed,
                       std::unique_ptr<power::IrState> *carry,
                       const RoundHooks *hooks) const;

    pim::PimConfig cfg;
    power::Calibration cal;
    RunConfig rcfg;
    power::VfTable table;
    power::PowerModel pm;
    /** Timing threshold per grid frequency (one bisection each,
     * computed once, not per round). */
    std::map<double, double> vminByF;
    long recomputeStall = 1;
    long switchStall = 1;
    /** Shared across rounds and threads (immutable; evals are
     * per-round). */
    std::shared_ptr<const power::IrBackend> backend;
};

/** Merge per-round reports (time-weighted means). */
RunReport mergeReports(const std::vector<RunReport> &parts);

} // namespace aim::sim

#endif // AIM_SIM_RUNTIME_HH
