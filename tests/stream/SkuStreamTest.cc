/**
 * @file
 * Heterogeneous fleets under the streaming engine, and the
 * dispatch-layer fixes a mixed fleet forced:
 *
 *  - the acquireGang crash regression: a pool the autoscaler shrank
 *    below the gang size returns an empty acquisition (callers
 *    reactivate and retry) instead of tripping an assertion
 *  - class-aware pool primitives: slot-class gang acquisition,
 *    per-class shrink floors, targeted reactivation
 *  - end-to-end: a mixed-SKU stream matches the Fleet replay bit for
 *    bit on finite traces, is thread-count deterministic, and an
 *    autoscaled gang workload completes with zero placement
 *    violations
 */

#include <gtest/gtest.h>

#include "TestUtil.hh"
#include "serve/Dispatch.hh"
#include "stream/EventLoop.hh"

using namespace aim;
using namespace aim::serve;
using namespace aim::stream;

namespace
{

/** A part too small for GPT2 (~86 Mweight): 32 Mweight capacity. */
ChipSku
tinySku()
{
    ChipSku sku = smallSku();
    sku.name = "tiny";
    sku.weightBufMweightPerMacro = 2.0;
    return sku;
}

/** Two big + two tiny chips, optionally with a 2-chip ResNet18
 * gang (whose members must be the big parts: gangSlotClasses ranks
 * by capacity). */
FleetConfig
mixedFleet(int threads = 1, bool gang = false)
{
    FleetConfig f;
    f.chips = 4;
    f.options = test::fastServeOptions();
    f.seed = 5;
    f.threads = threads;
    f.skus = {bigSku(), tinySku()};
    f.skuOf = {0, 0, 1, 1};
    if (gang) {
        GangSpec g;
        g.model = "ResNet18";
        g.partition.chips = 2;
        g.microBatches = 2;
        f.gangs = {g};
    }
    return f;
}

TraceConfig
mixedTraceConfig(bool gang, long requests = 16)
{
    TraceConfig t;
    t.arrivals = ArrivalKind::Bursty;
    t.meanRatePerSec = 20000.0;
    t.requests = requests;
    t.seed = 7;
    // The gang variant pairs the ganged model with one every chip
    // can host; the plain variant adds a big-only model so
    // capability placement is exercised.
    t.mix = gang ? std::vector<TraceMix>{{"ResNet18", 1.0, 4000.0},
                                         {"MobileNetV2", 1.0,
                                          4000.0}}
                 : std::vector<TraceMix>{{"GPT2", 1.0, 4000.0},
                                         {"ResNet18", 1.0, 4000.0}};
    return t;
}

StreamReport
runStream(const StreamConfig &scfg)
{
    const pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    EventLoop loop(cfg, cal, scfg);
    return loop.run(test::sharedCache());
}

ServeReport
runFleet(const FleetConfig &fcfg, const TraceConfig &tcfg)
{
    const pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    Fleet fleet(cfg, cal, fcfg);
    return fleet.serve(generateTrace(tcfg), test::sharedCache());
}

/** Every field the two engines share must match bit for bit. */
void
expectMatchesFleet(const StreamReport &s, const ServeReport &f)
{
    EXPECT_EQ(s.requests, f.requests);
    EXPECT_EQ(s.makespanUs, f.makespanUs);
    EXPECT_EQ(s.sloViolations, f.sloViolations);
    EXPECT_EQ(s.totalMacs, f.totalMacs);
    EXPECT_EQ(s.irFailures, f.irFailures);
    EXPECT_EQ(s.stallWindows, f.stallWindows);
    EXPECT_EQ(s.gangDispatches, f.gangDispatches);
    EXPECT_EQ(s.placementViolations, f.placementViolations);
    EXPECT_EQ(s.p50Us, f.p50Us);
    EXPECT_EQ(s.p95Us, f.p95Us);
    EXPECT_EQ(s.p99Us, f.p99Us);
    ASSERT_EQ(s.latencyUs.size(), f.latencyUs.size());
    for (size_t i = 0; i < s.latencyUs.size(); ++i) {
        EXPECT_EQ(s.latencyUs[i], f.latencyUs[i]) << "request " << i;
        EXPECT_EQ(s.queueUs[i], f.queueUs[i]) << "request " << i;
    }
    ASSERT_EQ(s.chips.size(), f.chips.size());
    for (size_t c = 0; c < s.chips.size(); ++c) {
        EXPECT_EQ(s.chips[c].served, f.chips[c].served) << c;
        EXPECT_EQ(s.chips[c].busyUs, f.chips[c].busyUs) << c;
        EXPECT_EQ(s.chips[c].reloadUs, f.chips[c].reloadUs) << c;
        EXPECT_EQ(s.chips[c].retuneUs, f.chips[c].retuneUs) << c;
    }
}

} // namespace

// --- The acquireGang crash regression (satellite bugfix) ---------
//
// Historically ChipPool::acquireGang asserted that enough active
// chips existed, which crashed the streaming loop whenever an
// autoscaler shrink raced a gang arrival.  The contract is now an
// empty return the caller recovers from.

TEST(ChipPool, GangAcquisitionSurvivesAutoscalerShrink)
{
    ChipPool pool(4);
    EXPECT_TRUE(pool.deactivateOne(1));
    EXPECT_TRUE(pool.deactivateOne(1));
    ASSERT_EQ(pool.activeCount(), 2);
    // Under the old assert this line died; now it reports "cannot
    // fill" and leaves recovery to the caller.
    EXPECT_TRUE(pool.acquireGang(std::vector<int>(3, 0)).empty());
    // A gang that still fits acquires the earliest-free actives.
    const auto two = pool.acquireGang(std::vector<int>(2, 0));
    ASSERT_EQ(two.size(), 2u);
    EXPECT_EQ(two[0], 0);
    EXPECT_EQ(two[1], 1);
    // Reactivating restores three-gang capacity.
    EXPECT_TRUE(pool.activateOne());
    EXPECT_EQ(pool.acquireGang(std::vector<int>(3, 0)).size(), 3u);
}

TEST(ChipPool, ClassAwareGangFillsEachSlotFromItsClass)
{
    ChipPool pool(4);
    pool.setClassOf({0, 1, 0, 1});
    // Two class-0 slots: ids 0 and 2, in slot order.
    auto m = pool.acquireGang(std::vector<int>{0, 0});
    ASSERT_EQ(m.size(), 2u);
    EXPECT_EQ(m[0], 0);
    EXPECT_EQ(m[1], 2);
    // Earliest-free wins within a class.
    pool.slot(0).freeAtUs = 10.0;
    m = pool.acquireGang(std::vector<int>{0, 1});
    ASSERT_EQ(m.size(), 2u);
    EXPECT_EQ(m[0], 2);
    EXPECT_EQ(m[1], 1);
    // More slots of a class than chips of it: empty, never a
    // partial gang.
    EXPECT_TRUE(
        pool.acquireGang(std::vector<int>{0, 0, 0}).empty());
    // On a class-less pool, all-zero slots take the earliest-free
    // chips, ties toward the lowest id.
    ChipPool plain(3);
    plain.slot(0).freeAtUs = 5.0;
    EXPECT_EQ(plain.acquireGang(std::vector<int>{0, 0}),
              (std::vector<int>{1, 2}));
    EXPECT_EQ(plain.acquireGang(std::vector<int>{0, 0, 0}),
              (std::vector<int>{1, 2, 0}));
}

TEST(ChipPool, ShrinkRespectsClassFloorsAndTargetedReactivation)
{
    ChipPool pool(4);
    pool.setClassOf({0, 0, 1, 1});
    // Both class-1 chips pinned: a gang needs them.
    pool.setClassFloor({0, 2});
    EXPECT_TRUE(pool.deactivateOne(1));
    EXPECT_TRUE(pool.deactivateOne(1));
    EXPECT_FALSE(pool.deactivateOne(1))
        << "the class floor must block shrinking the gang's chips";
    EXPECT_EQ(pool.activeCount(), 2);
    EXPECT_EQ(pool.activeCountOfClass(0), 0);
    EXPECT_EQ(pool.activeCountOfClass(1), 2);
    // Targeted reactivation wakes a chip of the class a gang slot
    // needs; classes with all chips active report failure.
    EXPECT_TRUE(pool.activateOneOfClasses({0}));
    EXPECT_EQ(pool.activeCountOfClass(0), 1);
    EXPECT_FALSE(pool.activateOneOfClasses({1}));
}

// --- Mixed-SKU end-to-end ----------------------------------------

TEST(SkuStream, MixedFleetMatchesFleetReplayBitForBit)
{
    StreamConfig scfg;
    scfg.fleet = mixedFleet(1);
    scfg.trace = mixedTraceConfig(false);
    const auto stream_rep = runStream(scfg);
    const auto fleet_rep =
        runFleet(scfg.fleet, mixedTraceConfig(false));
    expectMatchesFleet(stream_rep, fleet_rep);
    EXPECT_EQ(stream_rep.placementViolations, 0);
}

TEST(SkuStream, MixedGangFleetMatchesFleetReplayBitForBit)
{
    StreamConfig scfg;
    scfg.fleet = mixedFleet(1, true);
    scfg.trace = mixedTraceConfig(true);
    const auto stream_rep = runStream(scfg);
    const auto fleet_rep =
        runFleet(scfg.fleet, mixedTraceConfig(true));
    expectMatchesFleet(stream_rep, fleet_rep);
    EXPECT_GT(stream_rep.gangDispatches, 0);
    EXPECT_EQ(stream_rep.placementViolations, 0);
}

TEST(SkuStream, ThreadCountBitIdentityOnMixedFleet)
{
    StreamConfig serial;
    serial.fleet = mixedFleet(1, true);
    serial.trace = mixedTraceConfig(true);
    auto threaded = serial;
    threaded.fleet.threads = 4;
    // Warm the shared cache so both runs see identical hit/miss
    // deltas (render() includes them) regardless of which tests ran
    // earlier in this process.
    runStream(serial);
    const auto a = runStream(serial);
    const auto b = runStream(threaded);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.makespanUs, b.makespanUs);
    EXPECT_EQ(a.totalMacs, b.totalMacs);
    EXPECT_EQ(a.gangDispatches, b.gangDispatches);
    ASSERT_EQ(a.latencyUs.size(), b.latencyUs.size());
    for (size_t i = 0; i < a.latencyUs.size(); ++i)
        EXPECT_EQ(a.latencyUs[i], b.latencyUs[i]) << "request " << i;
    EXPECT_EQ(a.render(), b.render());
}

TEST(SkuStream, AutoscaledGangStreamCompletesWithoutViolations)
{
    // The end-to-end shape of the original crash: an autoscaler
    // shrinking a mixed fleet while a gang workload streams.  The
    // per-class floors keep the gang's big chips active, recovery
    // reactivates on demand, and the run must drain fully with
    // every request on a capable chip.
    StreamConfig scfg;
    scfg.fleet = mixedFleet(1, true);
    scfg.trace = mixedTraceConfig(true, 24);
    scfg.controlTickUs = 100.0;
    scfg.autoscaler.enabled = true;
    scfg.autoscaler.targetP99Us = 2000.0;
    scfg.autoscaler.minChips = 1;
    scfg.autoscaler.cooldownUs = 100.0;
    const auto rep = runStream(scfg);
    EXPECT_EQ(rep.requests, 24);
    EXPECT_GT(rep.gangDispatches, 0);
    EXPECT_EQ(rep.placementViolations, 0);
    EXPECT_GE(rep.gangReactivations, 0);
    // The gang's members are the big chips; both must have worked.
    EXPECT_GT(rep.chips[0].served, 0);
    EXPECT_GT(rep.chips[1].served, 0);
}

TEST(SkuStream, UnservableModelIsFatalNotSilent)
{
    // Twin of SkuFleet.UnservableModelIsFatalNotSilent.  ViT fits the
    // configured big SKU, but no chip instantiates it: the stream
    // must die loudly instead of losing the requests (a mixed trace
    // used to complete only its ResNet18 half; a ViT-only trace
    // ended in an empty-percentile panic).
    StreamConfig scfg;
    scfg.fleet = mixedFleet(1);
    scfg.fleet.chips = 2;
    scfg.fleet.skuOf = {1, 1};
    scfg.trace = mixedTraceConfig(false, 8);
    scfg.trace.mix = {{"ViT", 1.0, 4000.0}, {"ResNet18", 1.0, 4000.0}};
    EXPECT_DEATH(runStream(scfg), "fits no chip of the fleet");
    scfg.trace.mix = {{"ViT", 1.0, 4000.0}};
    EXPECT_DEATH(runStream(scfg), "fits no chip of the fleet");
}
