/**
 * @file
 * 2-D resistive power-delivery-network solver -- the RedHawk layout
 * substitute behind the paper's Figure 16 heat maps and Figure 17
 * bump traces.
 *
 * The die is discretized into a grid of PDN nodes joined by equal
 * sheet conductances.  Bump nodes (C4 pads) connect to the ideal
 * supply through a bump resistance; circuit blocks draw current at
 * their footprint nodes.  Solving Kirchhoff's current law yields the
 * on-die voltage map; IR-drop is VDD minus that map.
 *
 * One solve path: the nodal matrix is symmetric positive definite
 * and, in row-major node order, banded with half-bandwidth equal to
 * the mesh side, so it is factored once by banded Cholesky (the DC
 * matrix at construction, each transient matrix G + C/dt + g_be on
 * first use of its dt) and every solve is a source build plus a
 * forward and a backward triangular sweep.  Solves are exact to
 * round-off: there is no tolerance, iteration cap or warm start.
 */

#ifndef AIM_POWER_PDNMESH_HH
#define AIM_POWER_PDNMESH_HH

#include <memory>
#include <string>
#include <vector>

namespace aim::power
{

/** Mesh geometry and electrical parameters. */
struct PdnMeshConfig
{
    /** Grid nodes per side. */
    int size = 48;
    /** Sheet conductance between neighbouring nodes [S]. */
    double sheetConductance = 28.0;
    /** Conductance from a bump node to the ideal supply [S]. */
    double bumpConductance = 90.0;
    /** Bump pitch in grid nodes (every k-th node on both axes). */
    int bumpPitch = 6;
    /** Supply voltage at the bumps [V]. */
    double vdd = 0.75;
    /**
     * Decap from every node to ground [F].  Zero (the default) keeps
     * the mesh purely resistive: stepTransient degenerates to the DC
     * solve and the DC solve() path never reads it.
     */
    double decapFarad = 0.0;
    /**
     * Series loop inductance of each bump branch [H] (C4 + package).
     * The branch becomes supply -> L -> 1/bumpConductance -> node;
     * zero keeps the branch purely resistive.
     */
    double bumpInductanceH = 0.0;
};

/** Solved voltage map plus bump observables. */
struct PdnSolution
{
    /** Node voltages, row-major size x size [V]. */
    std::vector<double> voltage;
    int size = 0;
    /** Total current delivered through the bumps [A]. */
    double bumpCurrentA = 0.0;
    /** Mean voltage across bump nodes [V]. */
    double bumpVoltage = 0.0;

    /** Worst (largest) IR-drop on the die [mV]. */
    double worstDropMv(double vdd) const;
    /** Mean IR-drop over all nodes [mV]. */
    double meanDropMv(double vdd) const;
    /** Drop at one node [mV]. */
    double dropAtMv(int row, int col, double vdd) const;
    /** ASCII heat map of the drop (darker glyph = larger drop). */
    std::string renderHeatMap(double vdd, double scaleMv) const;
};

/** One sparse load adjustment: amps added at a flat node index. */
struct PdnLoadDelta
{
    int node = 0;
    double amps = 0.0;
};

/**
 * Transient (RC + bump-L) state advanced by PdnMesh::stepTransient:
 * the node-voltage map of the last accepted step plus the inductor
 * current of every bump branch (row-major bump order).  Seed it from
 * a DC solution with PdnMesh::transientInit.
 */
struct PdnTransientState
{
    /** Node voltages at the last step. */
    PdnSolution sol;
    /** Bump-branch inductor currents [A], row-major over bumps. */
    std::vector<double> bumpA;
};

/**
 * PDN mesh solver.  Immutable geometry and factors with a mutable
 * load set.  Copies share the factors, including the per-dt
 * transient cache (internally locked), so a backend builds one mesh
 * and hands each concurrent evaluator its own copy.  One instance is
 * not for concurrent use: its load set is unsynchronized.
 */
class PdnMesh
{
  public:
    /** Validates the config and factors the DC nodal matrix. */
    explicit PdnMesh(const PdnMeshConfig &cfg);

    /** Zero all load currents. */
    void clearLoads();

    /**
     * Add a rectangular current load (a circuit block footprint).
     * The current is spread uniformly over the covered nodes.
     *
     * @param row0,col0 upper-left node (inclusive)
     * @param rows,cols footprint extent in nodes
     * @param currentA  total block current [A]
     */
    void addBlockLoad(int row0, int col0, int rows, int cols,
                      double currentA);

    /**
     * Apply a batch of sparse load deltas in one pass -- the
     * transient backend's per-window path: every group's demand
     * delta, pre-scattered onto flat node indices, lands in a single
     * call instead of per-group addBlockLoad rectangles.
     */
    void applyLoadDeltas(const std::vector<PdnLoadDelta> &deltas);

    /** Per-node load currents, row-major [A]. */
    const std::vector<double> &loads() const { return loadA; }

    /** Flat row-major index of a node. */
    int
    nodeIndex(int row, int col) const
    {
        return row * cfg.size + col;
    }

    /** Solve KCL for the current load set. */
    PdnSolution solve() const;

    /**
     * In-place solve: @p sol's voltage buffer is reused, so a caller
     * that re-solves every step allocates nothing after the first.
     */
    void resolve(PdnSolution &sol) const;

    /**
     * Consistent transient state for a DC operating point: voltages
     * from @p dc, every bump-branch inductor current at its DC value
     * (what the branch resistor carries at those voltages).  Starting
     * from transientInit(solve()) and holding the loads, stepTransient
     * is a fixed point.
     */
    PdnTransientState transientInit(const PdnSolution &dc) const;

    /**
     * Advance the RC/RL network one backward-Euler step of @p dtSec
     * seconds from @p state under the current load set, in place.
     *
     * Branch-implicit discretization: the bump inductor current is
     * eliminated into the nodal system (an effective bump conductance
     * 1/(1/gb + L/dt) plus a history source), and every node gains a
     * decap conductance C/dt with a C/dt * V_prev history source, so
     * the step is one SPD solve -- unconditionally stable at any dt.
     * Its matrix depends only on dt; it is factored on the first step
     * of each distinct dt and cached for every copy of this mesh.
     * With decapFarad == 0 and bumpInductanceH == 0 the step *is* the
     * DC solve, bit for bit: same factor, same source.
     */
    void stepTransient(double dtSec, PdnTransientState &state) const;

    /**
     * Max |KCL residual| of @p sol under the current load set [A] --
     * the solver-independent check the property suite gates on.
     */
    double kclResidualMax(const PdnSolution &sol) const;

    /** True when a node is a bump (supply-connected) node. */
    bool isBump(int row, int col) const;

    const PdnMeshConfig &config() const { return cfg; }

  private:
    class Factor;
    class FactorCache;

    /** DC source vector (loads + bump injection) into @p x. */
    void buildDcSource(std::vector<double> &x) const;
    /** Bump observables of a finished DC solve. */
    void finishSolution(PdnSolution &sol) const;
    /** Transient factor for @p dtSec (cached per dt). */
    const Factor &transientFactor(double dtSec, double gc,
                                  double gbe) const;

    PdnMeshConfig cfg;
    std::vector<double> loadA;

    // Geometry precomputed at construction: flat bump indices
    // (row-major), the neighbour-link diagonal and the DC diagonal
    // (+bump conductance).
    std::vector<int> bumpIdx;
    std::vector<double> baseDiag;
    std::vector<double> dcDiag;

    std::shared_ptr<const Factor> dcFactor;
    std::shared_ptr<FactorCache> stepFactors;
    /** Last transient factor this copy used, to skip the locked
     *  cache lookup while dt holds (the common case). */
    mutable const Factor *lastStep = nullptr;
    mutable double lastDtSec = -1.0;
};

} // namespace aim::power

#endif // AIM_POWER_PDNMESH_HH
