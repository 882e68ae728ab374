/**
 * @file
 * Behaviour of the pluggable droop backends (power/IrBackend): the
 * mesh backend's determinism, activity tracking, spatial coupling,
 * and agreement with the analytic Equation-2 backend.
 */

#include <gtest/gtest.h>

#include "PdnOracle.hh"
#include "TestUtil.hh"
#include "power/MeshBackend.hh"
#include "util/Stats.hh"

using namespace aim;
using namespace aim::sim;
using aim::test::fullLayout;
using aim::test::runWith;
using aim::test::uniformWindow;

TEST(IrBackend, NamesAndFactory)
{
    EXPECT_STREQ(
        power::irBackendName(power::IrBackendKind::Analytic),
        "analytic");
    EXPECT_STREQ(power::irBackendName(power::IrBackendKind::Mesh),
                 "mesh");
    EXPECT_STREQ(
        power::irBackendName(power::IrBackendKind::Transient),
        "transient");
    power::IrBackendConfig bc;
    const auto cal = power::defaultCalibration();
    EXPECT_EQ(power::makeIrBackend(bc, cal)->kind(),
              power::IrBackendKind::Analytic);
    bc.kind = power::IrBackendKind::Mesh;
    EXPECT_EQ(power::makeIrBackend(bc, cal)->kind(),
              power::IrBackendKind::Mesh);
    bc.kind = power::IrBackendKind::Transient;
    EXPECT_EQ(power::makeIrBackend(bc, cal)->kind(),
              power::IrBackendKind::Transient);
}

TEST(IrBackend, NameRoundTrip)
{
    using power::IrBackendKind;
    for (IrBackendKind kind :
         {IrBackendKind::Analytic, IrBackendKind::Mesh,
          IrBackendKind::Transient}) {
        IrBackendKind parsed;
        ASSERT_TRUE(power::irBackendFromName(
            power::irBackendName(kind), parsed));
        EXPECT_EQ(parsed, kind);
    }
    IrBackendKind out = IrBackendKind::Mesh;
    EXPECT_FALSE(power::irBackendFromName("redhawk", out));
    EXPECT_FALSE(power::irBackendFromName("", out));
    EXPECT_EQ(out, IrBackendKind::Mesh) << "failed parse wrote out";
}

TEST(IrBackend, MeshDeterministicForSeed)
{
    const auto a = runWith(power::IrBackendKind::Mesh, 0.40);
    const auto b = runWith(power::IrBackendKind::Mesh, 0.40);
    EXPECT_DOUBLE_EQ(a.tops, b.tops);
    EXPECT_DOUBLE_EQ(a.irMeanMv, b.irMeanMv);
    EXPECT_DOUBLE_EQ(a.irWorstMv, b.irWorstMv);
    EXPECT_DOUBLE_EQ(a.macroPowerMw, b.macroPowerMw);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.vfSwitches, b.vfSwitches);
}

TEST(IrBackend, MeshActuallyDiffersFromAnalytic)
{
    const auto a = runWith(power::IrBackendKind::Analytic, 0.40);
    const auto m = runWith(power::IrBackendKind::Mesh, 0.40);
    EXPECT_NE(a.irMeanMv, m.irMeanMv);
}

TEST(IrBackend, MeshDroopTracksActivity)
{
    const auto cold = runWith(power::IrBackendKind::Mesh, 0.25);
    const auto hot = runWith(power::IrBackendKind::Mesh, 0.55);
    EXPECT_GT(hot.irMeanMv, cold.irMeanMv);
    EXPECT_GT(hot.irWorstMv, cold.irWorstMv);
}

TEST(IrBackend, MeshCorrelatesWithAnalyticAcrossHr)
{
    std::vector<double> analytic;
    std::vector<double> mesh;
    for (double hr = 0.20; hr <= 0.601; hr += 0.05) {
        analytic.push_back(
            runWith(power::IrBackendKind::Analytic, hr).irMeanMv);
        mesh.push_back(
            runWith(power::IrBackendKind::Mesh, hr).irMeanMv);
    }
    EXPECT_GE(util::pearson(analytic, mesh), 0.95);
}

TEST(IrBackend, MeshCalibratedToEquation2Anchor)
{
    // At uniform full activity the mesh's mean dynamic drop is
    // anchored to Equation 2's full-activity dynamic drop.
    power::IrBackendConfig bc;
    bc.kind = power::IrBackendKind::Mesh;
    const auto cal = power::defaultCalibration();
    const power::MeshBackend bk(bc, cal);
    const double mesh_mean =
        bk.dynScale() * bk.baseline().meanDropMv(cal.vddNominal);
    const power::IrModel ir(cal);
    EXPECT_NEAR(mesh_mean,
                ir.dynamicDropMv(cal.vddNominal, cal.fNominal, 1.0),
                1e-9);
}

TEST(IrBackend, MeshConvergesUnderConstantDemand)
{
    // A constant load reads Equation 2's level: the mesh is anchored
    // to it at uniform activity, and quiet windows -- demand inside
    // rtogThreshold -- keep the exact droop of the last refresh.
    power::IrBackendConfig bc;
    bc.kind = power::IrBackendKind::Mesh;
    const auto cal = power::defaultCalibration();
    const power::MeshBackend bk(bc, cal);
    const power::IrModel ir(cal);

    auto eval = bk.newEval(fullLayout());
    auto gw = uniformWindow(0.10);
    util::Rng rng(7);
    std::vector<double> drops(16, 0.0);
    double mean = 0.0;
    long samples = 0;
    for (int w = 0; w < 300; ++w) {
        eval->window(gw, rng, drops);
        if (w >= 200)
            for (double d : drops) {
                mean += d;
                ++samples;
            }
    }
    mean /= static_cast<double>(samples);
    EXPECT_NEAR(mean, ir.dropMv(0.75, 1.0, 0.10), 1.0);
}

TEST(IrBackend, MeshFirstWindowIsExactDcDroop)
{
    // Regression: the first window of a round must already report
    // the DC droop of the currents it injects.  Per-window solves
    // capped at a few sweeps, warm-started from the full-activity
    // map, used to report tens of mV of solver lag on a partially
    // occupied chip.  Reference: the seed's SOR to 1e-12 A on the
    // same loads.
    power::IrBackendConfig bc;
    bc.kind = power::IrBackendKind::Mesh;
    power::Calibration cal = power::defaultCalibration();
    cal.dpimNoiseMv = 0.0;
    const power::MeshBackend bk(bc, cal);
    const power::IrModel ir(cal);

    // Partial occupancy: group g hosts 1 + g % 3 macros, and every
    // fourth group is idle.
    std::vector<std::vector<int>> layout(16);
    auto gw = uniformWindow(0.3);
    for (int g = 0; g < 16; ++g) {
        if (g % 4 == 3) {
            gw[static_cast<size_t>(g)].active = false;
            continue;
        }
        for (int m = 0; m <= g % 3; ++m)
            layout[static_cast<size_t>(g)].push_back(g * 4 + m);
    }

    power::PdnMesh mesh(bk.meshConfig());
    const double full_a = ir.demandCurrentA(
        ir.dynamicDropMv(0.75, 1.0, 0.3));
    for (const auto &macros : layout)
        for (int m : macros) {
            const auto r = bk.macroFootprint(m);
            mesh.addBlockLoad(r.row0, r.col0, r.rows, r.cols,
                              full_a / 64.0);
        }
    power::PdnSolution oracle;
    ASSERT_TRUE(test::lexicographicSolve(mesh, oracle, 1e-12));

    auto eval = bk.newEval(layout);
    util::Rng rng(3);
    std::vector<double> drops(16, 0.0);
    eval->window(gw, rng, drops);
    for (int g = 0; g < 16; ++g) {
        const auto &macros = layout[static_cast<size_t>(g)];
        if (macros.empty())
            continue;
        double acc = 0.0;
        long nodes = 0;
        for (int m : macros) {
            const auto r = bk.macroFootprint(m);
            for (int row = r.row0; row < r.row0 + r.rows; ++row)
                for (int col = r.col0; col < r.col0 + r.cols; ++col) {
                    acc += oracle.dropAtMv(row, col, cal.vddNominal);
                    ++nodes;
                }
        }
        const double expected = ir.staticDropMv(0.75) +
                                bk.dynScale() * acc /
                                    static_cast<double>(nodes);
        EXPECT_NEAR(drops[static_cast<size_t>(g)], expected, 1e-9)
            << "group " << g;
    }
}

TEST(IrBackend, MeshSeesNeighbourCoupling)
{
    // The same group droops more when the rest of the chip is also
    // active -- the spatial effect the analytic backend cannot see.
    power::IrBackendConfig bc;
    bc.kind = power::IrBackendKind::Mesh;
    const auto cal = power::defaultCalibration();
    const power::MeshBackend bk(bc, cal);

    util::Rng rng_a(5);
    util::Rng rng_b(5);
    std::vector<double> drops_alone(16, 0.0);
    std::vector<double> drops_crowded(16, 0.0);

    // Group 5 alone vs group 5 with every other group active.
    auto solo = uniformWindow(0.0);
    for (int g = 0; g < 16; ++g)
        solo[static_cast<size_t>(g)].active = g == 5;
    solo[5].rtog = 0.4;
    auto eval_a = bk.newEval(fullLayout());
    for (int w = 0; w < 8; ++w)
        eval_a->window(solo, rng_a, drops_alone);

    auto crowded = uniformWindow(0.4);
    auto eval_b = bk.newEval(fullLayout());
    for (int w = 0; w < 8; ++w)
        eval_b->window(crowded, rng_b, drops_crowded);

    EXPECT_GT(drops_crowded[5], drops_alone[5]);
}

TEST(IrBackend, MacroFootprintsTileTheMesh)
{
    power::IrBackendConfig bc;
    bc.kind = power::IrBackendKind::Mesh;
    const auto cal = power::defaultCalibration();
    const power::MeshBackend bk(bc, cal);
    std::vector<int> covered(
        static_cast<size_t>(bc.meshSize) * bc.meshSize, 0);
    for (int m = 0; m < bc.groups * bc.macrosPerGroup; ++m) {
        const auto r = bk.macroFootprint(m);
        ASSERT_GE(r.row0, 0);
        ASSERT_GE(r.col0, 0);
        ASSERT_LE(r.row0 + r.rows, bc.meshSize);
        ASSERT_LE(r.col0 + r.cols, bc.meshSize);
        for (int row = r.row0; row < r.row0 + r.rows; ++row)
            for (int col = r.col0; col < r.col0 + r.cols; ++col)
                ++covered[static_cast<size_t>(row) * bc.meshSize +
                          col];
    }
    // Footprints partition the die: every node covered exactly once.
    for (int v : covered)
        EXPECT_EQ(v, 1);
}

TEST(IrBackend, RuntimeExposesItsBackend)
{
    pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    RunConfig rcfg;
    EXPECT_EQ(Runtime(cfg, cal, rcfg).irBackend().kind(),
              power::IrBackendKind::Analytic);
    rcfg.irBackend = power::IrBackendKind::Mesh;
    EXPECT_EQ(Runtime(cfg, cal, rcfg).irBackend().kind(),
              power::IrBackendKind::Mesh);
}
