#include <gtest/gtest.h>

#include "power/PdnMesh.hh"

using namespace aim::power;

namespace
{

PdnMeshConfig
smallMesh()
{
    PdnMeshConfig cfg;
    cfg.size = 16;
    cfg.bumpPitch = 4;
    return cfg;
}

} // namespace

TEST(PdnMesh, NoLoadNoDrop)
{
    PdnMesh mesh(smallMesh());
    const PdnSolution sol = mesh.solve();
    EXPECT_NEAR(sol.worstDropMv(mesh.config().vdd), 0.0, 1e-6);
    EXPECT_NEAR(sol.bumpCurrentA, 0.0, 1e-6);
}

TEST(PdnMesh, LoadCreatesLocalDrop)
{
    PdnMesh mesh(smallMesh());
    mesh.addBlockLoad(6, 6, 4, 4, 2.0);
    const PdnSolution sol = mesh.solve();
    // The loaded block must droop more than a far corner.
    const double center = sol.dropAtMv(8, 8, mesh.config().vdd);
    const double corner = sol.dropAtMv(0, 15, mesh.config().vdd);
    EXPECT_GT(center, corner);
    EXPECT_GT(sol.worstDropMv(mesh.config().vdd), 0.0);
}

TEST(PdnMesh, CurrentConservation)
{
    // KCL: total bump current equals the total injected load.
    PdnMesh mesh(smallMesh());
    mesh.addBlockLoad(2, 2, 3, 3, 1.25);
    mesh.addBlockLoad(10, 10, 4, 4, 0.75);
    const PdnSolution sol = mesh.solve();
    EXPECT_NEAR(sol.bumpCurrentA, 2.0, 1e-3);
}

TEST(PdnMesh, DropScalesWithCurrent)
{
    PdnMesh mesh(smallMesh());
    mesh.addBlockLoad(6, 6, 4, 4, 1.0);
    const double d1 = mesh.solve().worstDropMv(mesh.config().vdd);
    mesh.clearLoads();
    mesh.addBlockLoad(6, 6, 4, 4, 2.0);
    const double d2 = mesh.solve().worstDropMv(mesh.config().vdd);
    EXPECT_NEAR(d2, 2.0 * d1, d1 * 0.01);
}

TEST(PdnMesh, SuperpositionHolds)
{
    // The network is linear: solving two loads together equals the
    // sum of solving them separately.
    PdnMesh mesh(smallMesh());
    mesh.addBlockLoad(2, 2, 2, 2, 1.0);
    const auto sol_a = mesh.solve();
    mesh.clearLoads();
    mesh.addBlockLoad(12, 12, 2, 2, 1.0);
    const auto sol_b = mesh.solve();
    mesh.clearLoads();
    mesh.addBlockLoad(2, 2, 2, 2, 1.0);
    mesh.addBlockLoad(12, 12, 2, 2, 1.0);
    const auto sol_ab = mesh.solve();

    const double vdd = mesh.config().vdd;
    for (int r = 0; r < 16; r += 5)
        for (int c = 0; c < 16; c += 5) {
            const double sum = sol_a.dropAtMv(r, c, vdd) +
                               sol_b.dropAtMv(r, c, vdd);
            EXPECT_NEAR(sol_ab.dropAtMv(r, c, vdd), sum, 0.05);
        }
}

TEST(PdnMesh, BumpsAreOnPitchGrid)
{
    PdnMesh mesh(smallMesh());
    EXPECT_TRUE(mesh.isBump(0, 0));
    EXPECT_TRUE(mesh.isBump(4, 8));
    EXPECT_FALSE(mesh.isBump(1, 0));
    EXPECT_FALSE(mesh.isBump(4, 5));
}

TEST(PdnMesh, SolveResidualAtRoundOff)
{
    // The solve is direct: no iteration cap to hit, and the KCL
    // residual of its answer is round-off on amp-scale loads.
    PdnMesh mesh(smallMesh());
    mesh.addBlockLoad(4, 4, 8, 8, 3.0);
    const PdnSolution sol = mesh.solve();
    EXPECT_LT(mesh.kclResidualMax(sol), 1e-10);
}

TEST(PdnMesh, HeatMapRenders)
{
    PdnMesh mesh(smallMesh());
    mesh.addBlockLoad(6, 6, 4, 4, 2.0);
    const PdnSolution sol = mesh.solve();
    const std::string map =
        sol.renderHeatMap(mesh.config().vdd, 20.0);
    // 16 rows of 16 glyphs + newlines.
    EXPECT_EQ(map.size(), 16u * 17u);
}

TEST(PdnMesh, RejectsOutOfBoundsLoad)
{
    PdnMesh mesh(smallMesh());
    EXPECT_DEATH(mesh.addBlockLoad(14, 14, 4, 4, 1.0), "outside");
}

TEST(PdnMesh, BumpVoltageBelowVddUnderLoad)
{
    PdnMesh mesh(smallMesh());
    mesh.addBlockLoad(4, 4, 8, 8, 3.0);
    const PdnSolution sol = mesh.solve();
    EXPECT_LT(sol.bumpVoltage, mesh.config().vdd);
    EXPECT_GT(sol.bumpVoltage, mesh.config().vdd - 0.2);
}
