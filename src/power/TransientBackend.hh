/**
 * @file
 * di/dt transient droop backend: the PDN mesh with per-node decap
 * and bump-branch loop inductance, advanced one backward-Euler step
 * per window (IrBackendKind::Transient).
 *
 * The purely resistive MeshBackend reads DC droop per window, so its
 * droop is a memoryless function of the window's demand -- it cannot
 * produce the first-droop overshoot the paper's Figure 17 traces
 * show on load steps.  This backend keeps the node-voltage vector
 * and the bump inductor currents as per-round IrEval state: when a
 * bursty ToggleStats window steps the demand current, the bump
 * branches cannot follow the di/dt, the difference discharges the
 * decap, and the droop transiently overshoots the DC solution before
 * the inductor current catches up (classic first droop).  Under
 * steady demand the state relaxes onto MeshBackend's DC solve; with
 * decap and inductance at zero (or dt -> infinity) every step *is*
 * the DC solve.
 *
 * Everything except the per-window step is inherited from
 * MeshBackend: the macro footprint mapping, the full-activity solve
 * and the Equation-2 anchor calibration (so all three backends
 * agree on how much current flows at full uniform activity, and the
 * transient backend disagrees only where history matters).
 */

#ifndef AIM_POWER_TRANSIENTBACKEND_HH
#define AIM_POWER_TRANSIENTBACKEND_HH

#include "power/MeshBackend.hh"

namespace aim::power
{

class TransientEval;

/** di/dt RC-mesh droop backend (IrBackendKind::Transient). */
class TransientBackend final : public MeshBackend
{
  public:
    /**
     * Pays MeshBackend's construction, then builds the transient
     * mesh (decap, bump inductance, step) from IrBackendConfig's
     * transient* fields.  Its per-dt factors are cached on that mesh
     * and shared by every evaluator's copy of it.
     */
    TransientBackend(const IrBackendConfig &cfg,
                     const Calibration &cal);

    IrBackendKind
    kind() const override
    {
        return IrBackendKind::Transient;
    }

    std::unique_ptr<IrEval>
    newEval(const std::vector<std::vector<int>> &activeMacros)
        const override;

    /**
     * Evaluator seeded from a previous round's settled RC/RL state
     * (TransientEval::exportState): the node voltages and bump
     * currents start where the last request on this chip left them,
     * so a back-to-back burst sees electrical continuity instead of
     * the cold full-activity DC re-init.  Null or foreign seeds fall
     * back to the cold path bit-identically.
     */
    std::unique_ptr<IrEval>
    newEval(const std::vector<std::vector<int>> &activeMacros,
            const IrState *seed) const override;

    /** Mesh config of the per-window transient steps. */
    const PdnMeshConfig &transientConfig() const
    {
        return transMesh.config();
    }

    /** Fixed Backward-Euler step per window [s]; 0 in auto-dt mode
     * (IrBackendConfig::transientDtNs == 0). */
    double dtSec() const { return stepSec; }

    /**
     * The step actually integrated for a window whose fastest active
     * group runs at @p fMaxGhz: the configured fixed step, or -- in
     * auto-dt mode -- the shortest group window's physical duration,
     * windowCycles / f (conservative: the RC state is advanced no
     * further than any group's clock).  A non-positive frequency (no
     * active groups) falls back to the calibration's nominal clock.
     */
    double effectiveDtSec(double fMaxGhz) const;

  private:
    friend class TransientEval;

    /** Load-free transient mesh every evaluator copies. */
    PdnMesh transMesh;
    double stepSec = 2e-9;
    bool autoDt = false;
    int winCycles = 8;
};

} // namespace aim::power

#endif // AIM_POWER_TRANSIENTBACKEND_HH
