/**
 * @file
 * Bit-identity of the decomposed window engine: with the default
 * Analytic backend, every RunReport field must equal the values the
 * pre-refactor monolithic Runtime::runRound produced.  The golden
 * numbers below were captured from the seed implementation (full
 * %.17g precision) immediately before the ChipState / WindowKernel /
 * IrBackend split; any drift here means the refactor changed
 * simulated physics, not just code shape.
 */

#include <gtest/gtest.h>

#include "TestUtil.hh"

using namespace aim;
using namespace aim::sim;
using aim::booster::BoostMode;
using aim::test::convRound;
using aim::test::execute;

namespace
{

struct Golden
{
    double wallTimeNs;
    double totalMacs;
    double tops;
    double macroPowerMw;
    double irWorstMv;
    double irMeanMv;
    long failures;
    long stallWindows;
    long usefulWindows;
    long vfSwitches;
    double meanLevel;
    double meanRtog;
};

void
expectGolden(const RunReport &rep, const Golden &g)
{
    EXPECT_DOUBLE_EQ(rep.wallTimeNs, g.wallTimeNs);
    EXPECT_DOUBLE_EQ(rep.totalMacs, g.totalMacs);
    EXPECT_DOUBLE_EQ(rep.tops, g.tops);
    EXPECT_DOUBLE_EQ(rep.macroPowerMw, g.macroPowerMw);
    EXPECT_DOUBLE_EQ(rep.irWorstMv, g.irWorstMv);
    EXPECT_DOUBLE_EQ(rep.irMeanMv, g.irMeanMv);
    EXPECT_EQ(rep.failures, g.failures);
    EXPECT_EQ(rep.stallWindows, g.stallWindows);
    EXPECT_EQ(rep.usefulWindows, g.usefulWindows);
    EXPECT_EQ(rep.vfSwitches, g.vfSwitches);
    EXPECT_DOUBLE_EQ(rep.meanLevel, g.meanLevel);
    EXPECT_DOUBLE_EQ(rep.meanRtog, g.meanRtog);
}

} // namespace

TEST(BackendGolden, SprintDefault)
{
    RunConfig rcfg; // Sprint, HrAware, seed 31 -- all defaults
    expectGolden(
        execute({convRound(0.30, 16, 30'000'000)}, rcfg),
        {12213.333333333116, 480000000, 307.19999999998214,
         3.3167842367788589, 58.396147131705078, 26.182861285538937,
         0L, 0L, 7328L, 0L, 20.272925764192141,
         0.070437018487658598});
}

TEST(BackendGolden, DvfsBaseline)
{
    RunConfig rcfg;
    rcfg.useBooster = false;
    rcfg.mapper = mapping::MapperKind::Sequential;
    expectGolden(
        execute({convRound(0.30, 16, 30'000'000)}, rcfg),
        {14656, 480000000, 256, 2.8056535306490136,
         50.642575927465444, 23.488049603442477, 0L, 0L, 7328L, 0L,
         100, 0.070437018487658598});
}

TEST(BackendGolden, LowPowerBeta20Seed77)
{
    RunConfig rcfg;
    rcfg.boost.mode = BoostMode::LowPower;
    rcfg.boost.beta = 20;
    rcfg.seed = 77;
    expectGolden(
        execute({convRound(0.45, 16, 30'000'000)}, rcfg),
        {16720, 480000000, 228.91616839536303, 3.0457887774674051,
         65.060430900384873, 26.715370406176724, 149L, 867L, 7328L,
         301L, 29.313397129186601, 0.10676443318521227});
}

TEST(BackendGolden, TwoRoundsMerged)
{
    RunConfig rcfg;
    expectGolden(
        execute({convRound(0.30, 16, 30'000'000),
                 convRound(0.50, 12, 20'000'000)},
                rcfg),
        {21156.491228069892, 720000000, 296.350665815713,
         3.9696048349728463, 88.00425447802921, 30.412764397006171,
         38L, 224L, 10991L, 77L, 27.12596199761672,
         0.090158521067979877});
}

TEST(BackendGolden, InputDeterminedTasks)
{
    RunConfig rcfg;
    expectGolden(
        execute({convRound(0.40, 16, 30'000'000, true)}, rcfg),
        {13610.097465886767, 480000000, 283.6309062002984,
         3.8924171756335761, 73.903289540184332, 30.508552985472598,
         34L, 220L, 7328L, 75L, 43.413865546218489,
         0.093945760479610924});
}

TEST(BackendGolden, SeedOverride)
{
    RunConfig rcfg;
    expectGolden(
        execute({convRound(0.35, 16, 30'000'000)}, rcfg, 1234),
        {12270.877192982252, 480000000, 306.15244214536676,
         3.7749043160593923, 67.945572539167586, 28.97457102666721,
         3L, 18L, 7328L, 6L, 20.988846572361261,
         0.082900911828252002});
}

TEST(BackendGolden, TransientResNet18HeadlineDroop)
{
    // Bit-exact regression of the transient backend's headline
    // numbers on a fixed zoo model (captured at %.17g from the exact
    // banded-Cholesky step): any refactor of the PdnMesh implicit
    // step, the TransientBackend eval or the options plumbing that
    // changes simulated physics -- rather than code shape -- trips
    // this before it drifts a paper figure.
    AimPipeline pipe(pim::PimConfig{},
                     power::defaultCalibration());
    AimOptions o = test::fastServeOptions();
    o.irBackend = power::IrBackendKind::Transient;
    const auto compiled = pipe.compile(workload::resnet18(), o);
    const auto rep = pipe.execute(compiled);
    expectGolden(rep.run,
                 {1788.0701754385955, 91202177, 249.49070605821487,
                  4.6166302149688372, 191.87156508155019,
                  35.715583963764999, 163L, 73L, 735L, 8L,
                  41.258126578390552, 0.11054607445308388});
}

TEST(BackendGolden, ExplicitAnalyticMatchesDefault)
{
    RunConfig def;
    RunConfig analytic;
    analytic.irBackend = power::IrBackendKind::Analytic;
    const auto a = execute({convRound(0.30, 16, 30'000'000)}, def);
    const auto b =
        execute({convRound(0.30, 16, 30'000'000)}, analytic);
    EXPECT_DOUBLE_EQ(a.tops, b.tops);
    EXPECT_DOUBLE_EQ(a.irMeanMv, b.irMeanMv);
    EXPECT_EQ(a.failures, b.failures);
}
