#include "power/TransientBackend.hh"

#include <algorithm>
#include <cmath>

#include "util/Logging.hh"

namespace aim::power
{

/** The transient backend's exportable electrical state: the RC/RL
 * snapshot (node voltages + bump inductor currents) of a settled
 * round.  Loads are not carried -- the next round re-injects its own
 * demand as a delta from zero, which the carried bump currents
 * already (approximately) supply. */
struct TransientIrState final : IrState
{
    explicit TransientIrState(const PdnTransientState &s) : state(s)
    {
    }

    PdnTransientState state;
};

/**
 * Per-round transient evaluator: the RC/RL state (node voltages +
 * bump inductor currents) advanced one implicit-Euler step per
 * window.  Unlike MeshEval there is no dirty-window gating -- time
 * advances every window whether or not the demand moved, which is
 * exactly what lets a constant demand relax onto the DC solution and
 * a demand step excite the first-droop transient.
 */
class TransientEval final : public IrEval
{
  public:
    TransientEval(const TransientBackend &backend,
                  const std::vector<std::vector<int>> &activeMacros,
                  const TransientIrState *seed = nullptr)
        : bk(backend), mesh(backend.transMesh)
    {
        const auto rects = bk.groupRects(activeMacros);
        groupNodes = bk.groupNodeLists(rects);
        const size_t groups = rects.size();
        activeCount.assign(groups, 0);
        appliedA.assign(groups, 0.0);
        for (size_t g = 0; g < groups; ++g)
            activeCount[g] = static_cast<int>(rects[g].size());
        if (seed) {
            // Burst continuity: start from the settled state the
            // previous request on this chip exported.  The voltages
            // and bump currents already reflect real recent load, so
            // the first windows see where the supply actually is,
            // not a synthetic heavy phase.
            state = seed->state;
        } else {
            // Seed the electrical state from the construction-time
            // full-activity DC point with the load set empty: the first
            // windows inject the round's actual demand and the RC
            // state physically relaxes onto it, as if the chip came
            // out of a heavy phase.
            state = mesh.transientInit(bk.baselineSol);
        }
    }

    std::unique_ptr<IrState>
    exportState() const override
    {
        return std::make_unique<TransientIrState>(state);
    }

    void
    window(const std::vector<GroupWindow> &groups, util::Rng &rng,
           std::vector<double> &dropMv) override
    {
        // Track the demand exactly: every group's load delta lands
        // in one batched applyLoadDeltas call (no rtogThreshold
        // gating -- the step below integrates every di/dt).
        pendingDeltas.clear();
        for (size_t g = 0;
             g < groups.size() && g < groupNodes.size(); ++g) {
            const GroupWindow &gw = groups[g];
            if (!gw.active || activeCount[g] == 0)
                continue;
            const double demand = bk.groupDemandA(
                gw.v, gw.fGhz, gw.rtog, activeCount[g]);
            const double delta = demand - appliedA[g];
            if (delta != 0.0) {
                const MeshBackend::GroupNodes &gn = groupNodes[g];
                for (size_t i = 0; i < gn.nodes.size(); ++i)
                    pendingDeltas.push_back(
                        {gn.nodes[i], delta * gn.weightPerAmp[i]});
                appliedA[g] = demand;
            }
        }
        if (!pendingDeltas.empty())
            mesh.applyLoadDeltas(pendingDeltas);

        // One backward-Euler step of the RC/RL network per window.
        // In auto-dt mode the step is the shortest active group
        // window's duration, so integrated RC time tracks the chip's
        // simulated wall time as the booster moves the clock.
        double f_max = 0.0;
        for (const GroupWindow &gw : groups)
            if (gw.active)
                f_max = std::max(f_max, gw.fGhz);
        mesh.stepTransient(bk.effectiveDtSec(f_max), state);

        for (size_t g = 0; g < groups.size(); ++g) {
            const GroupWindow &gw = groups[g];
            if (!gw.active)
                continue;
            const double dyn =
                g < groupNodes.size() && activeCount[g] > 0
                    ? bk.scale *
                          MeshBackend::nodesDropMv(
                              state.sol, groupNodes[g],
                              bk.transientConfig().vdd)
                    : 0.0;
            const double noisy = bk.ir.staticDropMv(gw.v) + dyn +
                                 rng.normal(0.0, bk.cal.dpimNoiseMv);
            dropMv[g] = std::max(noisy, 0.0);
        }
    }

  private:
    const TransientBackend &bk;
    PdnMesh mesh;
    PdnTransientState state;
    std::vector<MeshBackend::GroupNodes> groupNodes;
    std::vector<PdnLoadDelta> pendingDeltas;
    std::vector<int> activeCount;
    /** Demand currently injected per group [A]. */
    std::vector<double> appliedA;
};

namespace
{

/** The backend's mesh with the transient storage elements added. */
PdnMeshConfig
transientMeshConfig(const IrBackendConfig &cfg, PdnMeshConfig mesh)
{
    aim_assert(cfg.transientDecapNf > 0.0,
               "transient backend needs positive decap");
    aim_assert(cfg.transientDtNs >= 0.0,
               "transient backend needs a non-negative dt (0 = "
               "derive the step from the window duration)");
    aim_assert(cfg.windowCycles > 0, "windowCycles must be positive");
    aim_assert(cfg.transientBumpPh >= 0.0,
               "negative bump inductance");
    mesh.decapFarad = cfg.transientDecapNf * 1e-9;
    mesh.bumpInductanceH = cfg.transientBumpPh * 1e-12;
    return mesh;
}

} // namespace

TransientBackend::TransientBackend(const IrBackendConfig &cfg,
                                   const Calibration &cal)
    : MeshBackend(cfg, cal),
      transMesh(transientMeshConfig(cfg, meshConfig()))
{
    autoDt = cfg.transientDtNs == 0.0;
    winCycles = cfg.windowCycles;
    stepSec = autoDt ? 0.0 : cfg.transientDtNs * 1e-9;
}

double
TransientBackend::effectiveDtSec(double fMaxGhz) const
{
    if (!autoDt)
        return stepSec;
    const double f = fMaxGhz > 0.0 ? fMaxGhz : cal.fNominal;
    return winCycles / (f * 1e9);
}

std::unique_ptr<IrEval>
TransientBackend::newEval(
    const std::vector<std::vector<int>> &active_macros) const
{
    return std::make_unique<TransientEval>(*this, active_macros);
}

std::unique_ptr<IrEval>
TransientBackend::newEval(
    const std::vector<std::vector<int>> &active_macros,
    const IrState *seed) const
{
    const auto *ours = dynamic_cast<const TransientIrState *>(seed);
    return std::make_unique<TransientEval>(*this, active_macros,
                                           ours);
}

} // namespace aim::power
