#include "sim/Runtime.hh"

#include <algorithm>
#include <cmath>

#include "sim/ChipState.hh"
#include "sim/WindowKernel.hh"
#include "util/Logging.hh"
#include "util/Rng.hh"
#include "util/Stats.hh"

namespace aim::sim
{

double
RunReport::utilization() const
{
    const long total = usefulWindows + stallWindows;
    if (total == 0)
        return 1.0;
    return static_cast<double>(usefulWindows) /
           static_cast<double>(total);
}

double
RunReport::topsPerWatt(int active_macros) const
{
    const double watts =
        macroPowerMw * std::max(active_macros, 1) / 1000.0;
    return watts > 0.0 ? tops / watts : 0.0;
}

namespace
{

/**
 * Post-loop round finalization: wall time from the Set clocks,
 * energy -> macro power, the work-weighted level/Rtog/droop means
 * and the effective-TOPS derivation.  @p rep must already carry the
 * loop-accumulated counters (failures, stalls, useful windows,
 * totalMacs).
 */
void
finalizeRoundReport(const ChipState &state, const WindowStats &stats,
                    const power::PowerModel &pm, double f_nominal,
                    RunReport &rep)
{
    for (const auto &[sid, ss] : state.sets)
        rep.wallTimeNs = std::max(rep.wallTimeNs, ss.wallNs);
    double energy = 0.0;
    for (const auto &gs : state.groups)
        energy += gs.energyMwNs;
    rep.macroPowerMw =
        rep.wallTimeNs > 0.0 && state.activeMacros > 0
            ? energy / rep.wallTimeNs / state.activeMacros
            : 0.0;
    rep.irMeanMv = stats.dropStats.mean();
    rep.meanLevel = stats.levelSamples > 0
                        ? stats.levelWeighted / stats.levelSamples
                        : 100.0;
    rep.meanRtog = stats.levelSamples > 0
                       ? stats.rtogWeighted / stats.levelSamples
                       : 0.0;
    // Effective throughput: the paper's framing is peak TOPS scaled
    // by the achieved frequency and the fraction of windows doing
    // useful work (recompute bubbles and V-f settling subtract).
    const double mean_f =
        rep.usefulWindows > 0
            ? stats.usefulFreqSum / rep.usefulWindows
            : f_nominal;
    rep.tops = pm.chipTops(mean_f, rep.utilization());
    rep.roundLatencyNs.push_back(rep.wallTimeNs);
}

} // namespace

Runtime::Runtime(const pim::PimConfig &cfg,
                 const power::Calibration &cal, const RunConfig &rcfg)
    : cfg(cfg), cal(cal), rcfg(rcfg), table(cal), pm(cal)
{
    for (double f : cal.fGrid)
        vminByF[f] = table.vMinTiming(f);

    recomputeStall = std::max<long>(
        1, (cal.recomputePenaltyCycles + cfg.inputBits - 1) /
               cfg.inputBits);
    switchStall = std::max<long>(
        1, (cal.vfSwitchPenaltyCycles + cfg.inputBits - 1) /
               cfg.inputBits);

    power::IrBackendConfig bcfg;
    bcfg.kind = rcfg.irBackend;
    bcfg.groups = cfg.groups;
    bcfg.macrosPerGroup = cfg.macrosPerGroup;
    bcfg.transientDecapNf = rcfg.transientDecapNf;
    bcfg.transientDtNs = rcfg.transientDtNs;
    bcfg.transientBumpPh = rcfg.transientBumpPh;
    bcfg.windowCycles = cfg.inputBits;
    backend = power::makeIrBackend(bcfg, cal);
}

RunReport
Runtime::run(const std::vector<Round> &rounds,
             const pim::StreamSpec &stream) const
{
    return run(rounds, stream, rcfg.seed);
}

RunReport
Runtime::run(const std::vector<Round> &rounds,
             const pim::StreamSpec &stream, uint64_t seed,
             std::unique_ptr<power::IrState> *carry,
             const RoundHooks *hooks) const
{
    const auto toggles =
        pim::estimateToggleStats(stream, cfg.rows, 200, seed);
    std::vector<RunReport> parts;
    parts.reserve(rounds.size());
    for (size_t r = 0; r < rounds.size(); ++r)
        parts.push_back(
            runRound(r, rounds[r], toggles, ++seed, carry, hooks));
    return mergeReports(parts);
}

RunReport
Runtime::runRound(size_t index, const Round &round,
                  const pim::ToggleStats &toggles, uint64_t round_seed,
                  std::unique_ptr<power::IrState> *carry,
                  const RoundHooks *hooks) const
{
    RunReport rep;
    if (round.tasks.empty()) {
        if (hooks && hooks->begin)
            hooks->begin(index, nullptr);
        return rep;
    }

    util::Rng rng(round_seed);

    // Map the round's tasks onto macros.
    const auto objective =
        rcfg.boost.mode == booster::BoostMode::Sprint
            ? mapping::Objective::Sprint
            : mapping::Objective::LowPower;
    mapping::MappingEvaluator eval(cfg, table, pm, objective,
                                   round_seed);
    const mapping::Mapping map =
        mapWith(rcfg.mapper, round.tasks, cfg, eval, round_seed);

    // Round setup: group / Set bookkeeping, controllers, samplers.
    ChipState state(cfg, cal, table, rcfg.boost, rcfg.useBooster,
                    round, map, toggles, rng);
    rep.totalMacs = state.totalMacs;
    if (hooks && hooks->begin)
        hooks->begin(index, &state);

    // Per-round droop evaluator of the configured backend, seeded
    // from the carried electrical state when the caller threads one
    // through (burst continuity across requests on one chip).  The
    // null-carry path calls the plain newEval and stays bit-identical
    // to the pre-carry runtime.
    const auto droop =
        carry ? backend->newEval(state.activeMacroIds(), carry->get())
              : backend->newEval(state.activeMacroIds());

    WindowKernel kernel(cfg, cal, rcfg.useBooster, pm, vminByF,
                        recomputeStall, switchStall);
    WindowStats stats;

    long window = 0;
    while (window < rcfg.maxWindowsPerRound && state.anyRemaining()) {
        kernel.step(state, *droop, rng, rep, stats);
        ++window;
        if (hooks && hooks->window)
            hooks->window(state, window);
    }
    aim_assert(!state.anyRemaining(), "round did not converge within ",
               rcfg.maxWindowsPerRound, " windows");
    if (hooks && hooks->end)
        hooks->end(state);

    finalizeRoundReport(state, stats, pm, cal.fNominal, rep);
    if (carry)
        *carry = droop->exportState();
    return rep;
}

RunReport
mergeReports(const std::vector<RunReport> &parts)
{
    RunReport out;
    double power_time = 0.0;
    double level_time = 0.0;
    double rtog_time = 0.0;
    double drop_time = 0.0;
    double tops_time = 0.0;
    for (const auto &p : parts) {
        out.wallTimeNs += p.wallTimeNs;
        out.roundLatencyNs.insert(out.roundLatencyNs.end(),
                                  p.roundLatencyNs.begin(),
                                  p.roundLatencyNs.end());
        out.totalMacs += p.totalMacs;
        out.failures += p.failures;
        out.stallWindows += p.stallWindows;
        out.usefulWindows += p.usefulWindows;
        out.vfSwitches += p.vfSwitches;
        out.irWorstMv = std::max(out.irWorstMv, p.irWorstMv);
        power_time += p.macroPowerMw * p.wallTimeNs;
        level_time += p.meanLevel * p.wallTimeNs;
        rtog_time += p.meanRtog * p.wallTimeNs;
        drop_time += p.irMeanMv * p.wallTimeNs;
        tops_time += p.tops * p.wallTimeNs;
    }
    if (out.wallTimeNs > 0.0) {
        out.macroPowerMw = power_time / out.wallTimeNs;
        out.meanLevel = level_time / out.wallTimeNs;
        out.meanRtog = rtog_time / out.wallTimeNs;
        out.irMeanMv = drop_time / out.wallTimeNs;
        out.tops = tops_time / out.wallTimeNs;
    }
    return out;
}

} // namespace aim::sim
