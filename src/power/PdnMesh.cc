#include "power/PdnMesh.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>

#include "util/Logging.hh"

namespace aim::power
{

/**
 * Banded Cholesky factor L (A = L L^T) of a 5-point nodal matrix
 * A = D - g N on an n x n grid: D the per-node diagonal, N the grid
 * adjacency, g the sheet conductance.  In row-major node order A's
 * half-bandwidth is n, and so is L's (Cholesky fills the band but
 * never leaves it), so row i of L is stored as its n+1 band entries,
 * columns i-n .. i, with the diagonal last.  Factoring costs
 * O(n^4); each solve two O(n^3) triangular sweeps.
 */
class PdnMesh::Factor
{
  public:
    Factor(int n, double g, const std::vector<double> &diag)
        : bw(n), nn(n * n),
          band(static_cast<size_t>(nn) * (n + 1), 0.0),
          invDiag(static_cast<size_t>(nn), 0.0)
    {
        const int w = bw + 1;
        for (int i = 0; i < nn; ++i) {
            double *li = &band[static_cast<size_t>(i) * w];
            li[bw] = diag[static_cast<size_t>(i)];
            if (i % n != 0)
                li[bw - 1] = -g; // west neighbour, column i-1
            if (i >= n)
                li[0] = -g; // north neighbour, column i-n
        }
        for (int i = 0; i < nn; ++i) {
            double *li = &band[static_cast<size_t>(i) * w];
            const int k0 = std::max(0, i - bw);
            for (int j = k0; j <= i; ++j) {
                const double *lj = &band[static_cast<size_t>(j) * w];
                // A(i,j) - sum_k L(i,k) L(j,k) over the shared band.
                double s = li[j - i + bw];
                for (int k = k0; k < j; ++k)
                    s -= li[k - i + bw] * lj[k - j + bw];
                if (j < i) {
                    li[j - i + bw] = s * invDiag[static_cast<size_t>(j)];
                } else {
                    aim_assert(s > 0.0,
                               "PDN nodal matrix is not positive "
                               "definite");
                    li[bw] = std::sqrt(s);
                    invDiag[static_cast<size_t>(i)] = 1.0 / li[bw];
                }
            }
        }
    }

    /** Solve A x = b in place (@p x holds b on entry). */
    void
    solve(double *x) const
    {
        const int w = bw + 1;
        // Forward: L y = b, row by row.
        for (int i = 0; i < nn; ++i) {
            const double *li = &band[static_cast<size_t>(i) * w];
            const int k0 = std::max(0, i - bw);
            double s = x[i];
            for (int k = k0; k < i; ++k)
                s -= li[k - i + bw] * x[k];
            x[i] = s * invDiag[static_cast<size_t>(i)];
        }
        // Backward: L^T x = y, column-oriented so L is still read
        // row by row.
        for (int i = nn - 1; i >= 0; --i) {
            const double *li = &band[static_cast<size_t>(i) * w];
            const int k0 = std::max(0, i - bw);
            const double xi = x[i] * invDiag[static_cast<size_t>(i)];
            x[i] = xi;
            for (int k = k0; k < i; ++k)
                x[k] -= li[k - i + bw] * xi;
        }
    }

  private:
    int bw;
    int nn;
    std::vector<double> band;
    std::vector<double> invDiag;
};

/** Transient factors keyed by dt, shared by every copy of a mesh. */
class PdnMesh::FactorCache
{
  public:
    std::mutex mutex;
    std::map<double, std::unique_ptr<const Factor>> byDt;
};

namespace
{

/** Max |KCL residual| of v under (D - g N) v = src, in amps. */
double
residualMax(int n, double g, const double *v, const double *src,
            const double *diag)
{
    double worst = 0.0;
    for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c) {
            const size_t i = static_cast<size_t>(r) * n + c;
            double acc = src[i] - diag[i] * v[i];
            if (r > 0)
                acc += g * v[i - n];
            if (r + 1 < n)
                acc += g * v[i + n];
            if (c > 0)
                acc += g * v[i - 1];
            if (c + 1 < n)
                acc += g * v[i + 1];
            worst = std::max(worst, std::fabs(acc));
        }
    return worst;
}

} // namespace

double
PdnSolution::worstDropMv(double vdd) const
{
    double worst = 0.0;
    for (double v : voltage)
        worst = std::max(worst, (vdd - v) * 1000.0);
    return worst;
}

double
PdnSolution::meanDropMv(double vdd) const
{
    if (voltage.empty())
        return 0.0;
    double acc = 0.0;
    for (double v : voltage)
        acc += (vdd - v) * 1000.0;
    return acc / static_cast<double>(voltage.size());
}

double
PdnSolution::dropAtMv(int row, int col, double vdd) const
{
    return (vdd - voltage.at(static_cast<size_t>(row) * size + col)) *
           1000.0;
}

std::string
PdnSolution::renderHeatMap(double vdd, double scaleMv) const
{
    static const char glyphs[] = " .:-=+*#%@";
    std::string out;
    for (int r = 0; r < size; ++r) {
        for (int c = 0; c < size; ++c) {
            const double d = dropAtMv(r, c, vdd);
            int idx = static_cast<int>(d / scaleMv * 9.0);
            idx = std::clamp(idx, 0, 9);
            out += glyphs[idx];
        }
        out += '\n';
    }
    return out;
}

PdnMesh::PdnMesh(const PdnMeshConfig &cfg)
    : cfg(cfg),
      loadA(static_cast<size_t>(cfg.size) * cfg.size, 0.0),
      stepFactors(std::make_shared<FactorCache>())
{
    aim_assert(cfg.size >= 4, "mesh too small");
    aim_assert(cfg.bumpPitch >= 1, "bump pitch must be positive");
    aim_assert(cfg.decapFarad >= 0.0, "negative decap");
    aim_assert(cfg.bumpInductanceH >= 0.0,
               "negative bump inductance");

    const int n = cfg.size;
    const size_t nn = static_cast<size_t>(n) * n;
    const double g = cfg.sheetConductance;
    baseDiag.assign(nn, 0.0);
    for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c) {
            double gsum = 0.0;
            if (r > 0)
                gsum += g;
            if (r + 1 < n)
                gsum += g;
            if (c > 0)
                gsum += g;
            if (c + 1 < n)
                gsum += g;
            baseDiag[static_cast<size_t>(r) * n + c] = gsum;
            if (isBump(r, c))
                bumpIdx.push_back(static_cast<int>(
                    static_cast<size_t>(r) * n + c));
        }
    dcDiag = baseDiag;
    for (int b : bumpIdx)
        dcDiag[b] += cfg.bumpConductance;
    dcFactor = std::make_shared<const Factor>(n, g, dcDiag);
}

void
PdnMesh::clearLoads()
{
    std::fill(loadA.begin(), loadA.end(), 0.0);
}

void
PdnMesh::addBlockLoad(int row0, int col0, int rows, int cols,
                      double currentA)
{
    aim_assert(row0 >= 0 && col0 >= 0 && rows > 0 && cols > 0 &&
                   row0 + rows <= cfg.size && col0 + cols <= cfg.size,
               "block footprint outside the mesh");
    const double per_node =
        currentA / (static_cast<double>(rows) * cols);
    for (int r = row0; r < row0 + rows; ++r)
        for (int c = col0; c < col0 + cols; ++c)
            loadA[static_cast<size_t>(r) * cfg.size + c] += per_node;
}

void
PdnMesh::applyLoadDeltas(const std::vector<PdnLoadDelta> &deltas)
{
    const long nn = static_cast<long>(loadA.size());
    for (const PdnLoadDelta &d : deltas) {
        aim_assert(d.node >= 0 && d.node < nn,
                   "load delta outside the mesh");
        loadA[d.node] += d.amps;
    }
}

bool
PdnMesh::isBump(int row, int col) const
{
    return row % cfg.bumpPitch == 0 && col % cfg.bumpPitch == 0;
}

void
PdnMesh::buildDcSource(std::vector<double> &x) const
{
    const size_t nn = loadA.size();
    x.resize(nn);
    for (size_t i = 0; i < nn; ++i)
        x[i] = -loadA[i];
    const double inj = cfg.bumpConductance * cfg.vdd;
    for (int b : bumpIdx)
        x[b] += inj;
}

void
PdnMesh::finishSolution(PdnSolution &sol) const
{
    // Bump observables for Figure 17 (row-major bump order, same as
    // the seed's isBump scan).
    const double gb = cfg.bumpConductance;
    double current = 0.0;
    double v_acc = 0.0;
    for (int b : bumpIdx) {
        const double v = sol.voltage[b];
        current += gb * (cfg.vdd - v);
        v_acc += v;
    }
    sol.bumpCurrentA = current;
    sol.bumpVoltage =
        bumpIdx.empty()
            ? cfg.vdd
            : v_acc / static_cast<double>(bumpIdx.size());
}

PdnSolution
PdnMesh::solve() const
{
    PdnSolution sol;
    resolve(sol);
    return sol;
}

void
PdnMesh::resolve(PdnSolution &sol) const
{
    sol.size = cfg.size;
    buildDcSource(sol.voltage);
    dcFactor->solve(sol.voltage.data());
    finishSolution(sol);
}

double
PdnMesh::kclResidualMax(const PdnSolution &sol) const
{
    const int n = cfg.size;
    aim_assert(sol.size == n &&
                   sol.voltage.size() == static_cast<size_t>(n) * n,
               "solution does not match the mesh");
    std::vector<double> src;
    buildDcSource(src);
    return residualMax(n, cfg.sheetConductance, sol.voltage.data(),
                       src.data(), dcDiag.data());
}

PdnTransientState
PdnMesh::transientInit(const PdnSolution &dc) const
{
    const int n = cfg.size;
    aim_assert(dc.size == n &&
                   dc.voltage.size() == static_cast<size_t>(n) * n,
               "transientInit needs a solution of this mesh");
    PdnTransientState state;
    state.sol = dc;
    state.bumpA.reserve(bumpIdx.size());
    for (int b : bumpIdx)
        state.bumpA.push_back(cfg.bumpConductance *
                              (cfg.vdd - dc.voltage[b]));
    return state;
}

const PdnMesh::Factor &
PdnMesh::transientFactor(double dt_sec, double gc, double gbe) const
{
    if (lastStep && lastDtSec == dt_sec)
        return *lastStep;
    std::lock_guard<std::mutex> lock(stepFactors->mutex);
    std::unique_ptr<const Factor> &slot = stepFactors->byDt[dt_sec];
    if (!slot) {
        std::vector<double> diag(baseDiag.size());
        for (size_t i = 0; i < diag.size(); ++i)
            diag[i] = baseDiag[i] + gc;
        for (int b : bumpIdx)
            diag[b] += gbe;
        slot = std::make_unique<const Factor>(
            cfg.size, cfg.sheetConductance, diag);
    }
    lastStep = slot.get();
    lastDtSec = dt_sec;
    return *slot;
}

void
PdnMesh::stepTransient(double dt_sec, PdnTransientState &state) const
{
    const int n = cfg.size;
    aim_assert(dt_sec > 0.0, "transient step needs dt > 0");
    aim_assert(state.sol.size == n &&
                   state.sol.voltage.size() ==
                       static_cast<size_t>(n) * n,
               "transient state does not match the mesh");
    aim_assert(state.bumpA.size() == bumpIdx.size(),
               "transient state bump count");

    const double gb = cfg.bumpConductance;
    // Backward Euler, branch-implicit:
    //   decap     C dV/dt           ->  gc = C/dt into the diagonal,
    //                                   gc V_prev into the source
    //   bump L    L dI/dt = Vdd - V - I/gb
    //             -> I' = gbe (Vdd + (L/dt) I_prev - V'),
    //                gbe = 1 / (1/gb + L/dt)
    // so the step is one SPD solve of a network whose diagonal only
    // grew -- unconditionally stable for any dt.  With no storage
    // elements (gc == l_dt == 0) the matrix is the DC one, so the
    // step reuses the DC factor; the source below then reduces to
    // the DC source bit for bit (0 * V_prev and 0 * I_prev vanish).
    const double gc = cfg.decapFarad / dt_sec;
    const double l_dt = cfg.bumpInductanceH / dt_sec;
    const double gbe =
        l_dt == 0.0 ? gb : 1.0 / (1.0 / gb + l_dt);
    const Factor &factor = gc == 0.0 && l_dt == 0.0
                               ? *dcFactor
                               : transientFactor(dt_sec, gc, gbe);

    // The previous voltages turn into the source in place (each
    // entry is read before it is overwritten), so the every-window
    // step allocates nothing.
    double *v = state.sol.voltage.data();
    const size_t nn = loadA.size();
    for (size_t i = 0; i < nn; ++i)
        v[i] = gc * v[i] - loadA[i];
    // Per-bump history source gbe (Vdd + (L/dt) I_prev); with l_dt
    // == 0 this is exactly the DC bump injection gb * Vdd.
    {
        size_t k = 0;
        for (int b : bumpIdx) {
            v[b] += gbe * (cfg.vdd + l_dt * state.bumpA[k]);
            ++k;
        }
    }
    factor.solve(v);

    // Branch update + bump observables from the implicit equations,
    // so the reported current is consistent with the step just taken
    // (total bump charge balances load charge plus decap charge).
    double current = 0.0;
    double v_acc = 0.0;
    size_t k = 0;
    for (int b : bumpIdx) {
        const double node_v = v[b];
        const double i_new =
            gbe * (cfg.vdd + l_dt * state.bumpA[k] - node_v);
        state.bumpA[k] = i_new;
        current += i_new;
        v_acc += node_v;
        ++k;
    }
    state.sol.bumpCurrentA = current;
    state.sol.bumpVoltage =
        k > 0 ? v_acc / static_cast<double>(k) : cfg.vdd;
}

} // namespace aim::power
