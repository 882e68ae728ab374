/**
 * @file
 * Reference PDN solver for the test suites: the seed's lexicographic
 * successive over-relaxation (SOR), DC and backward-Euler transient,
 * run to a caller-chosen tolerance.  power::PdnMesh solves the same
 * nodal equations exactly by banded Cholesky; this independent
 * iterative route is what its answers are checked against.
 */

#ifndef AIM_TESTS_PDNORACLE_HH
#define AIM_TESTS_PDNORACLE_HH

#include <algorithm>
#include <cmath>
#include <vector>

#include "power/PdnMesh.hh"

namespace aim::test
{

namespace detail
{

/**
 * Lexicographic SOR on v for the nodal system of @p mesh with an
 * extra per-node conductance @p gc (history source gc * vPrev) and
 * the bump branches replaced by conductance @p gbe with per-node
 * source @p bumpSrc.  Sweeps until the largest |G_i dV_i| of a sweep
 * drops under @p tolerance; returns false if @p maxIterations ran
 * out first.
 */
inline bool
sorSweeps(const power::PdnMesh &mesh, std::vector<double> &v,
          double gc, const std::vector<double> &vPrev, double gbe,
          const std::vector<double> &bumpSrc, double tolerance,
          int maxIterations, double omega)
{
    const power::PdnMeshConfig &cfg = mesh.config();
    const int n = cfg.size;
    const double g = cfg.sheetConductance;
    const std::vector<double> &load = mesh.loads();
    for (int iter = 0; iter < maxIterations; ++iter) {
        double residual = 0.0;
        for (int r = 0; r < n; ++r)
            for (int c = 0; c < n; ++c) {
                const size_t i = static_cast<size_t>(r) * n + c;
                double gsum = gc;
                double isum = gc * vPrev[i] - load[i];
                if (r > 0) {
                    gsum += g;
                    isum += g * v[i - n];
                }
                if (r + 1 < n) {
                    gsum += g;
                    isum += g * v[i + n];
                }
                if (c > 0) {
                    gsum += g;
                    isum += g * v[i - 1];
                }
                if (c + 1 < n) {
                    gsum += g;
                    isum += g * v[i + 1];
                }
                if (mesh.isBump(r, c)) {
                    gsum += gbe;
                    isum += bumpSrc[i];
                }
                const double v_sor =
                    v[i] + omega * (isum / gsum - v[i]);
                residual = std::max(residual,
                                    std::fabs(gsum * (v_sor - v[i])));
                v[i] = v_sor;
            }
        if (residual < tolerance)
            return true;
    }
    return false;
}

} // namespace detail

/**
 * DC solve of @p mesh's load set from the flat-VDD guess, with bump
 * observables filled in as PdnMesh::solve does.
 *
 * @return true when the sweeps reached @p tolerance [A]
 */
inline bool
lexicographicSolve(const power::PdnMesh &mesh, power::PdnSolution &sol,
                   double tolerance, int maxIterations = 200000,
                   double omega = 1.88)
{
    const power::PdnMeshConfig &cfg = mesh.config();
    const int n = cfg.size;
    const size_t nn = static_cast<size_t>(n) * n;
    sol.size = n;
    sol.voltage.assign(nn, cfg.vdd);
    const std::vector<double> none(nn, 0.0);
    const std::vector<double> bump_src(
        nn, cfg.bumpConductance * cfg.vdd);
    const bool ok =
        detail::sorSweeps(mesh, sol.voltage, 0.0, none,
                          cfg.bumpConductance, bump_src, tolerance,
                          maxIterations, omega);
    sol.bumpCurrentA = 0.0;
    double v_acc = 0.0;
    int bumps = 0;
    for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c)
            if (mesh.isBump(r, c)) {
                const double v = sol.voltage[mesh.nodeIndex(r, c)];
                sol.bumpCurrentA += cfg.bumpConductance * (cfg.vdd - v);
                v_acc += v;
                ++bumps;
            }
    sol.bumpVoltage = bumps > 0 ? v_acc / bumps : cfg.vdd;
    return ok;
}

/**
 * One backward-Euler step of @p dtSec, the same discretization as
 * PdnMesh::stepTransient, warm-started from @p state's voltages.
 *
 * @return true when the sweeps reached @p tolerance [A]
 */
inline bool
lexicographicStep(const power::PdnMesh &mesh, double dtSec,
                  power::PdnTransientState &state, double tolerance,
                  int maxIterations = 200000, double omega = 1.88)
{
    const power::PdnMeshConfig &cfg = mesh.config();
    const int n = cfg.size;
    const double gc = cfg.decapFarad / dtSec;
    const double l_dt = cfg.bumpInductanceH / dtSec;
    const double gbe = 1.0 / (1.0 / cfg.bumpConductance + l_dt);
    const std::vector<double> prev = state.sol.voltage;
    std::vector<double> bump_src(prev.size(), 0.0);
    size_t k = 0;
    for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c)
            if (mesh.isBump(r, c))
                bump_src[mesh.nodeIndex(r, c)] =
                    gbe * (cfg.vdd + l_dt * state.bumpA[k++]);
    const bool ok =
        detail::sorSweeps(mesh, state.sol.voltage, gc, prev, gbe,
                          bump_src, tolerance, maxIterations, omega);
    double current = 0.0;
    double v_acc = 0.0;
    k = 0;
    for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c)
            if (mesh.isBump(r, c)) {
                const double v = state.sol.voltage[mesh.nodeIndex(r, c)];
                const double i_new =
                    gbe * (cfg.vdd + l_dt * state.bumpA[k] - v);
                state.bumpA[k++] = i_new;
                current += i_new;
                v_acc += v;
            }
    state.sol.bumpCurrentA = current;
    state.sol.bumpVoltage = k > 0 ? v_acc / static_cast<double>(k)
                                  : cfg.vdd;
    return ok;
}

} // namespace aim::test

#endif // AIM_TESTS_PDNORACLE_HH
