/**
 * @file
 * Property suite of the PDN solver (banded Cholesky, power/PdnMesh):
 * on randomized meshes the exact solve must leave a KCL residual at
 * round-off and agree with the seed's lexicographic SOR run to a
 * tight tolerance (tests/PdnOracle.hh), the transient step must
 * match the oracle's step and reduce to the DC solve without storage
 * elements, cached per-dt factors must not depend on the order they
 * were built in, and the default geometry is pinned by %.17g goldens.
 *
 * Carries the ctest label "solver" (see CMakeLists) so CI lanes can
 * run it explicitly with `ctest -L solver`.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "PdnOracle.hh"
#include "power/PdnMesh.hh"

using namespace aim::power;
using aim::test::lexicographicSolve;
using aim::test::lexicographicStep;

namespace
{

/** One randomized mesh problem: config + a handful of block loads. */
struct RandomProblem
{
    PdnMeshConfig cfg;
    struct Load
    {
        int row0, col0, rows, cols;
        double amps;
    };
    std::vector<Load> loads;
};

/**
 * Deterministic random problem generator at mesh side @p size.
 * Pitches and conductances span the configurations the droop
 * backends use (meshSize 16 default, 24 in bench_fig17, 48 solver
 * default).
 */
RandomProblem
randomProblem(std::mt19937_64 &rng, int size)
{
    RandomProblem p;
    p.cfg.size = size;
    p.cfg.bumpPitch = 3 + static_cast<int>(rng() % 4);
    std::uniform_real_distribution<double> sheet(8.0, 60.0);
    std::uniform_real_distribution<double> bump(30.0, 200.0);
    std::uniform_real_distribution<double> amps(0.05, 1.5);
    p.cfg.sheetConductance = sheet(rng);
    p.cfg.bumpConductance = bump(rng);
    const int n_loads = 1 + static_cast<int>(rng() % 5);
    for (int i = 0; i < n_loads; ++i) {
        RandomProblem::Load ld;
        ld.rows = 1 + static_cast<int>(rng() % (size / 2));
        ld.cols = 1 + static_cast<int>(rng() % (size / 2));
        ld.row0 = static_cast<int>(rng() % (size - ld.rows));
        ld.col0 = static_cast<int>(rng() % (size - ld.cols));
        ld.amps = amps(rng);
        p.loads.push_back(ld);
    }
    return p;
}

PdnMesh
buildMesh(const RandomProblem &p)
{
    PdnMesh mesh(p.cfg);
    for (const auto &ld : p.loads)
        mesh.addBlockLoad(ld.row0, ld.col0, ld.rows, ld.cols,
                          ld.amps);
    return mesh;
}

const int kSizes[] = {16, 24, 48};

} // namespace

TEST(SolverProperty, ResidualBelowToleranceOnRandomMeshes)
{
    // Physics contract: the direct solve's true KCL residual is at
    // round-off.  Loads are amps and conductances tens of siemens on
    // ~0.75 V, so 1e-10 A is many orders below any physical signal
    // and well above double-precision noise.
    std::mt19937_64 rng(20250808);
    for (int size : kSizes)
        for (int trial = 0; trial < 4; ++trial) {
            const RandomProblem p = randomProblem(rng, size);
            const PdnMesh mesh = buildMesh(p);
            const PdnSolution sol = mesh.solve();
            EXPECT_LT(mesh.kclResidualMax(sol), 1e-10)
                << "size " << size << " trial " << trial;
        }
}

TEST(SolverProperty, CholeskyAgreesWithLexicographicOracle)
{
    // Both routes solve the same linear system: the exact factor and
    // the seed's SOR at a 1e-12 A tolerance agree on every node and
    // on the bump observables.
    std::mt19937_64 rng(7);
    for (int size : kSizes)
        for (int trial = 0; trial < 2; ++trial) {
            const RandomProblem p = randomProblem(rng, size);
            const PdnMesh mesh = buildMesh(p);
            const PdnSolution exact = mesh.solve();
            PdnSolution oracle;
            ASSERT_TRUE(lexicographicSolve(mesh, oracle, 1e-12));
            ASSERT_EQ(exact.voltage.size(), oracle.voltage.size());
            for (size_t i = 0; i < exact.voltage.size(); ++i)
                EXPECT_NEAR(exact.voltage[i], oracle.voltage[i], 1e-9)
                    << "size " << size << " trial " << trial
                    << " node " << i;
            EXPECT_NEAR(exact.bumpCurrentA, oracle.bumpCurrentA, 1e-8);
            EXPECT_NEAR(exact.bumpVoltage, oracle.bumpVoltage, 1e-9);
        }
}

TEST(SolverProperty, TransientStepAgreesWithLexicographicOracle)
{
    // A load step marched a few windows: every backward-Euler step
    // of the factored path matches the oracle's step from the same
    // state, voltages and bump-branch currents alike.
    PdnMeshConfig cfg;
    cfg.size = 16;
    cfg.bumpPitch = 4;
    cfg.decapFarad = 20e-9;
    cfg.bumpInductanceH = 200e-12;
    PdnMesh mesh(cfg);
    mesh.addBlockLoad(2, 2, 12, 12, 0.5);
    PdnTransientState exact = mesh.transientInit(mesh.solve());
    PdnTransientState oracle = exact;
    mesh.clearLoads();
    mesh.addBlockLoad(2, 2, 12, 12, 4.0);
    for (int step = 0; step < 6; ++step) {
        const double dt = step % 2 == 0 ? 2e-9 : 1e-9;
        mesh.stepTransient(dt, exact);
        ASSERT_TRUE(lexicographicStep(mesh, dt, oracle, 1e-12));
        for (size_t i = 0; i < exact.sol.voltage.size(); ++i)
            ASSERT_NEAR(exact.sol.voltage[i], oracle.sol.voltage[i],
                        1e-9)
                << "step " << step << " node " << i;
        for (size_t k = 0; k < exact.bumpA.size(); ++k)
            ASSERT_NEAR(exact.bumpA[k], oracle.bumpA[k], 1e-7)
                << "step " << step << " bump " << k;
    }
}

TEST(SolverProperty, TransientStepIsDcSolveWithoutStorage)
{
    // With C = L = 0 the backward-Euler step runs the DC factor on
    // the DC source -- the voltages must match bit for bit, not just
    // within tolerance.
    PdnMeshConfig cfg;
    cfg.size = 16;
    cfg.bumpPitch = 4;
    PdnMesh mesh(cfg);
    mesh.addBlockLoad(3, 3, 8, 8, 1.75);
    const PdnSolution dc = mesh.solve();

    PdnTransientState state = mesh.transientInit(dc);
    mesh.addBlockLoad(3, 3, 8, 8, 0.4); // step the demand
    mesh.stepTransient(1e-9, state);
    const PdnSolution after = mesh.solve();

    ASSERT_EQ(state.sol.voltage.size(), after.voltage.size());
    for (size_t i = 0; i < after.voltage.size(); ++i)
        ASSERT_EQ(state.sol.voltage[i], after.voltage[i]);
    EXPECT_EQ(state.sol.bumpCurrentA, after.bumpCurrentA);
}

TEST(SolverProperty, TransientFactorsIndependentOfDtOrder)
{
    // Each distinct dt gets its own cached factor, built from dt
    // alone: factoring 1 ns before 3 ns or after it, on a mesh or on
    // a copy sharing its cache, yields the same bits.
    PdnMeshConfig cfg;
    cfg.size = 16;
    cfg.bumpPitch = 4;
    cfg.decapFarad = 20e-9;
    cfg.bumpInductanceH = 200e-12;
    PdnMesh a(cfg);
    PdnMesh b(cfg);
    a.addBlockLoad(4, 4, 8, 8, 2.0);
    b.addBlockLoad(4, 4, 8, 8, 2.0);
    const PdnTransientState init = a.transientInit(a.solve());

    PdnTransientState sa = init;
    PdnTransientState sb = init;
    a.stepTransient(1e-9, sa); // a factors 1 ns first
    PdnTransientState scratch = init;
    b.stepTransient(3e-9, scratch); // b factors 3 ns first
    b.stepTransient(1e-9, sb);
    const PdnMesh copy = b; // shares b's cache
    PdnTransientState sc = init;
    copy.stepTransient(1e-9, sc);
    for (size_t i = 0; i < sa.sol.voltage.size(); ++i) {
        ASSERT_EQ(sa.sol.voltage[i], sb.sol.voltage[i]) << "node " << i;
        ASSERT_EQ(sa.sol.voltage[i], sc.sol.voltage[i]) << "node " << i;
    }
    EXPECT_EQ(sa.bumpA, sb.bumpA);
    EXPECT_EQ(sa.bumpA, sc.bumpA);
}

TEST(SolverProperty, ApplyLoadDeltasMatchesBlockLoads)
{
    // The batched per-window delta path is only a faster spelling of
    // addBlockLoad: scattering the same per-node amps must leave the
    // mesh in the same state.
    PdnMeshConfig cfg;
    cfg.size = 16;
    cfg.bumpPitch = 4;
    PdnMesh a(cfg);
    PdnMesh b(cfg);

    a.addBlockLoad(2, 3, 4, 5, 1.23);
    std::vector<PdnLoadDelta> deltas;
    const double per_node = 1.23 / (4.0 * 5.0);
    for (int r = 2; r < 6; ++r)
        for (int c = 3; c < 8; ++c)
            deltas.push_back({b.nodeIndex(r, c), per_node});
    b.applyLoadDeltas(deltas);

    const PdnSolution sa = a.solve();
    const PdnSolution sb = b.solve();
    for (size_t i = 0; i < sa.voltage.size(); ++i)
        EXPECT_NEAR(sa.voltage[i], sb.voltage[i], 1e-12);
}

TEST(SolverProperty, DefaultPathGoldens)
{
    // %.17g goldens of the exact solve at the solver's default
    // geometry and at the 24-node mesh after a load perturbation:
    // drift here means the solve changed physics, not code shape.
    PdnMeshConfig cfg; // size 48
    PdnMesh mesh(cfg);
    mesh.addBlockLoad(6, 6, 16, 16, 2.0);
    mesh.addBlockLoad(30, 10, 8, 24, 1.0);
    const PdnSolution big = mesh.solve();
    EXPECT_DOUBLE_EQ(big.worstDropMv(cfg.vdd), 4.8319288528263504);
    EXPECT_DOUBLE_EQ(big.meanDropMv(cfg.vdd), 1.0637275001404349);
    EXPECT_DOUBLE_EQ(big.bumpCurrentA, 2.999999999999249);
    EXPECT_DOUBLE_EQ(big.bumpVoltage, 0.74947916666666681);

    PdnMeshConfig rcfg = cfg;
    rcfg.size = 24;
    rcfg.bumpPitch = 6;
    PdnMesh small(rcfg);
    small.addBlockLoad(4, 4, 10, 10, 1.5);
    small.addBlockLoad(4, 4, 10, 10, 0.05);
    const PdnSolution perturbed = small.solve();
    EXPECT_DOUBLE_EQ(perturbed.worstDropMv(rcfg.vdd),
                     6.6890206669903973);
    EXPECT_DOUBLE_EQ(perturbed.bumpCurrentA, 1.5500000000005221);
}
