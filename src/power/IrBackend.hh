/**
 * @file
 * Pluggable droop-evaluation backends for the chip runtime.
 *
 * The window engine (src/sim/WindowKernel) asks *some* model for the
 * per-group IR-drop of every window; which model answers is a
 * scenario axis, not a hard-wired dependency:
 *
 *   Analytic -- the paper's Equation-2 estimator (power/IrModel):
 *       one region per group, drop linear in Rtog.  Fast, and the
 *       default; runs are bit-identical to the pre-backend runtime.
 *   Mesh     -- the layout-level substitute (power/PdnMesh): active
 *       macros map to footprint nodes of a resistive PDN mesh, whose
 *       exact DC droop a window reads from a precomputed transfer
 *       matrix of the macro currents.  Spatially aware: a group's
 *       droop depends on its neighbours' activity and its distance
 *       to the bumps, the effect RedHawk sees and Equation 2
 *       averages away (paper Figures 4/16/17).
 *
 * Threading contract: an IrBackend is immutable after construction
 * and shared by every concurrent Runtime::run call; all per-round
 * mutable state (applied currents, electrical state) lives in
 * the IrEval a caller creates per round via newEval().  Evaluating a
 * window consumes the shared round RNG once per active group, in
 * ascending group order, for every backend -- so reports stay a pure
 * function of (round, seed, backend kind).
 */

#ifndef AIM_POWER_IRBACKEND_HH
#define AIM_POWER_IRBACKEND_HH

#include <memory>
#include <string>
#include <vector>

#include "power/Calibration.hh"
#include "power/IrModel.hh"
#include "util/Rng.hh"

namespace aim::power
{

/** Which droop model answers the window engine.  Fixed underlying
 * type: validateOptions range-checks values that arrive from config
 * plumbing, so any int must be representable. */
enum class IrBackendKind : int
{
    Analytic,  ///< Equation-2 per-group estimator (the default)
    Mesh,      ///< exact DC PDN-mesh droop via a transfer matrix
    Transient, ///< di/dt RC mesh, one implicit-Euler step per window
};

/** Short printable name of a backend kind. */
const char *irBackendName(IrBackendKind kind);

/**
 * Parse a backend name as printed by irBackendName ("analytic",
 * "mesh", "transient").
 *
 * @return true and set @p out on a known name; false (leaving @p out
 *         untouched) otherwise.  Shared by aim_cli's --ir-backend
 *         and any other string-facing config surface, so they reject
 *         unknown spellings identically.
 */
bool irBackendFromName(const std::string &name, IrBackendKind &out);

/** One group's operating point for a window evaluation. */
struct GroupWindow
{
    /** Group hosts at least one task this round. */
    bool active = false;
    /** Supply voltage [V]. */
    double v = 0.0;
    /** Effective (Set-synchronized) frequency [GHz]. */
    double fGhz = 0.0;
    /** Worst macro Rtog sampled this window. */
    double rtog = 0.0;
};

/**
 * Opaque settled electrical state exported by an IrEval at the end
 * of a round and fed to IrBackend::newEval to seed the next round's
 * evaluator.  What it holds is backend-private (the transient
 * backend stores node voltages and bump inductor currents); callers
 * only move it between exportState() and newEval().  Stateless
 * backends export nothing and ignore seeds.
 */
struct IrState
{
    virtual ~IrState() = default;
};

/**
 * Per-round droop evaluator.  Stateful (applied currents, RC
 * state); create one per round via IrBackend::newEval and discard
 * it with the round.
 */
class IrEval
{
  public:
    virtual ~IrEval() = default;

    /**
     * Snapshot the evaluator's settled electrical state so a later
     * round (the next request of a burst on the same chip) can start
     * from it instead of a cold DC re-init.  Backends whose droop is
     * memoryless return nullptr (the default).
     */
    virtual std::unique_ptr<IrState> exportState() const
    {
        return nullptr;
    }

    /**
     * Evaluate the droop of one window.
     *
     * @param groups  operating points, indexed by group id
     * @param rng     shared round RNG; implementations must consume
     *                exactly one draw per active group, ascending
     * @param dropMv  out: droop per group [mV]; entries of inactive
     *                groups are left untouched.  Sized by the caller.
     */
    virtual void window(const std::vector<GroupWindow> &groups,
                        util::Rng &rng,
                        std::vector<double> &dropMv) = 0;
};

/**
 * Immutable droop-model half shared across rounds and threads.
 * Construction pays any one-time cost (the mesh backend's factor,
 * calibration solve and transfer matrix); newEval() is cheap.
 */
class IrBackend
{
  public:
    virtual ~IrBackend() = default;

    virtual IrBackendKind kind() const = 0;

    /**
     * Create the per-round evaluator.
     *
     * @param activeMacros macro ids hosting tasks, per group (index =
     *        group id); backends that are not spatial may ignore it
     */
    virtual std::unique_ptr<IrEval>
    newEval(const std::vector<std::vector<int>> &activeMacros)
        const = 0;

    /**
     * Create the per-round evaluator seeded from a prior round's
     * exported electrical state (burst continuity across
     * back-to-back requests on one chip).  A null @p seed -- or a
     * seed of a different backend kind -- falls back to the plain
     * newEval(), so the unseeded path stays bit-identical to it.
     */
    virtual std::unique_ptr<IrEval>
    newEval(const std::vector<std::vector<int>> &activeMacros,
            const IrState *seed) const
    {
        (void)seed;
        return newEval(activeMacros);
    }
};

/** Geometry and tuning a backend is built from. */
struct IrBackendConfig
{
    IrBackendKind kind = IrBackendKind::Analytic;
    /** Macro groups on the chip. */
    int groups = 16;
    /** Macros per group. */
    int macrosPerGroup = 4;

    // --- Mesh backend tuning (ignored by Analytic) ---
    /** PDN grid nodes per side. */
    int meshSize = 16;
    /** Bump pitch in grid nodes. */
    int meshBumpPitch = 4;
    /**
     * Relative demand-current change below which a group's mesh load
     * is left in place (its droop is scaled linearly with demand
     * instead -- exact for the group's own contribution on a linear
     * network, stale only for neighbour coupling).  Only materially
     * changed groups refresh the droop map.
     */
    double rtogThreshold = 0.15;

    // --- Transient backend tuning (ignored by Analytic and Mesh) ---
    /**
     * Decap from every mesh node to ground [nF].  Sets the RC
     * relaxation the transient backend integrates; shrinking it
     * towards zero (with transientBumpPh) collapses the transient
     * step onto the resistive DC solve.
     */
    double transientDecapNf = 20.0;
    /**
     * Backward-Euler step per window [ns].  0 = auto: derive the
     * step from the window's actual duration -- windowCycles divided
     * by the slowest active group's effective frequency -- so the
     * integrated RC time tracks simulated wall time even as the
     * booster moves the clock.
     */
    double transientDtNs = 2.0;
    /**
     * Cycles per bit-serial window (PimConfig::inputBits), the
     * numerator of the auto-derived step.  Only read when
     * transientDtNs == 0.
     */
    int windowCycles = 8;
    /**
     * Series loop inductance of each bump branch [pH] (C4 +
     * package).  This is what makes a load step overshoot its DC
     * droop (first droop, paper Figure 17): the bump current cannot
     * follow the di/dt, so the difference discharges the decap.
     */
    double transientBumpPh = 200.0;
};

/**
 * Build a backend; fatal on an unknown kind.  Backends are a pure
 * function of (config, calibration) and immutable, so heavy ones
 * (the mesh backends' factor and transfer-matrix solves) are
 * memoized process-wide and shared -- a sharded runtime or pipeline
 * that constructs a Runtime per request pays them once, not per
 * request.  The transient backend's per-dt factors live on its
 * shared mesh, so they are paid once per process as well.
 */
std::shared_ptr<const IrBackend>
makeIrBackend(const IrBackendConfig &cfg, const Calibration &cal);

} // namespace aim::power

#endif // AIM_POWER_IRBACKEND_HH
