/**
 * @file
 * Layout-level droop backend: the window engine's view of the
 * PdnMesh PDN solver (power/PdnMesh).
 *
 * Geometry: the die is tiled into a gRows x gCols grid of group
 * regions, each subdivided into macro sub-tiles; a group's *active*
 * macros inject demand current at their footprint nodes.  Demand
 * follows the same Equation-2 current model the analytic backend
 * implies (IrModel::demandCurrentA), so both backends agree on *how
 * much* current flows -- the mesh adds *where* it flows and what the
 * resistive network does with it (bump proximity, neighbour
 * coupling).
 *
 * Cost model: the mesh is linear and its loads are current sources,
 * so every droop it can report is a linear map of the macro
 * currents.  Construction factors the mesh once and pays one solve
 * against the full-activity load (which calibrates the mesh scale to
 * Equation 2's full-activity dynamic drop) plus one unit-load solve
 * per macro, giving a macro x macro transfer matrix [mV/A]: the mean
 * drop over macro a's footprint per amp drawn evenly over macro b's.
 * Each round's evaluator folds it into a group x group matrix for
 * its layout (groupTransferMv), and a window whose demand moved
 * beyond IrBackendConfig::rtogThreshold costs one small mat-vec --
 * the exact DC droop of the currents it injects.  Groups inside the
 * threshold scale their cached footprint drop linearly with demand
 * (exact for the group's own contribution, stale only for neighbour
 * coupling).
 */

#ifndef AIM_POWER_MESHBACKEND_HH
#define AIM_POWER_MESHBACKEND_HH

#include "power/IrBackend.hh"
#include "power/PdnMesh.hh"

namespace aim::power
{

class MeshEval;

/**
 * PDN-mesh droop backend (IrBackendKind::Mesh).  Also the base of
 * the di/dt TransientBackend, which reuses the footprint mapping,
 * the full-activity solve and the Equation-2 anchor calibration and
 * only swaps the per-window evaluator.
 */
class MeshBackend : public IrBackend
{
  public:
    /**
     * Factors the mesh, pays the full-activity solve that calibrates
     * the scale, and builds the macro transfer matrix.
     */
    MeshBackend(const IrBackendConfig &cfg, const Calibration &cal);

    IrBackendKind
    kind() const override
    {
        return IrBackendKind::Mesh;
    }

    std::unique_ptr<IrEval>
    newEval(const std::vector<std::vector<int>> &activeMacros)
        const override;

    /** Node rectangle of one macro's footprint. */
    struct Footprint
    {
        int row0 = 0;
        int col0 = 0;
        int rows = 0;
        int cols = 0;
    };

    /** Footprint of macro @p m on the mesh. */
    Footprint macroFootprint(int m) const;

    /**
     * A group's footprint flattened onto mesh node indices:
     * injecting deltaA * weightPerAmp[i] at nodes[i] spreads a group
     * demand delta evenly over its active macros and then evenly
     * over each macro's footprint nodes.  This is the batched
     * PdnMesh::applyLoadDeltas form of the per-rect addBlockLoad
     * scatter the transient evaluator steps with.
     */
    struct GroupNodes
    {
        std::vector<int> nodes;
        std::vector<double> weightPerAmp;
    };

    /** Flatten @p rects (one entry per group) into GroupNodes. */
    std::vector<GroupNodes> groupNodeLists(
        const std::vector<std::vector<Footprint>> &rects) const;

    /** Mean drop over a flattened group footprint [mV]. */
    static double nodesDropMv(const PdnSolution &sol,
                              const GroupNodes &gn, double vdd);

    /**
     * Active-macro footprints per group (index = group id), sized to
     * the configured group count regardless of the layout's length.
     */
    std::vector<std::vector<Footprint>>
    groupRects(const std::vector<std::vector<int>> &activeMacros)
        const;

    /**
     * The transfer matrix folded onto a layout, row-major groups x
     * groups [mV/A]: entry (g, h) is the mean drop over group g's
     * active footprints per amp of group h's demand, spread evenly
     * over h's active macros.  Groups without active macros have
     * zero rows and columns.
     */
    std::vector<double>
    groupTransferMv(const std::vector<std::vector<int>> &activeMacros)
        const;

    /** Mesh-to-Equation-2 calibration factor. */
    double dynScale() const { return scale; }

    /** The construction-time full-activity solution. */
    const PdnSolution &baseline() const { return baselineSol; }

    /** Full-chip dynamic demand current at Rtog = 1, nominal V-f. */
    double fullDemandA() const { return fullA; }

    const IrBackendConfig &config() const { return bcfg; }

    /** Config of the backend's mesh. */
    const PdnMeshConfig &meshConfig() const { return meshCfg; }

  protected:
    friend class MeshEval;

    /** Demand current one group draws [A]. */
    double groupDemandA(double v, double fGhz, double rtog,
                        int activeMacros) const;

    IrBackendConfig bcfg;
    Calibration cal;
    IrModel ir;
    /** Mesh config (geometry from bcfg, VDD from the calibration). */
    PdnMeshConfig meshCfg;
    PdnSolution baselineSol;
    /** Macro x macro transfer matrix, row-major [mV/A]. */
    std::vector<double> transferMv;
    double scale = 1.0;
    double fullA = 0.0;
};

} // namespace aim::power

#endif // AIM_POWER_MESHBACKEND_HH
