#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "TestUtil.hh"

using namespace aim;
using namespace aim::serve;

namespace
{

/**
 * Shared slow state: compiles are cached across all Fleet tests
 * (test::sharedCache), so the suite pays the offline flow once per
 * (model, options).
 */
struct Fixture
{
    pim::PimConfig cfg;
    power::Calibration cal = power::defaultCalibration();

    static ModelCache &
    sharedCache()
    {
        return test::sharedCache();
    }

    FleetConfig fleetConfig(SchedPolicy policy) const
    {
        FleetConfig f;
        f.chips = 2;
        f.policy = policy;
        f.options = test::fastServeOptions();
        f.seed = 5;
        return f;
    }

    std::vector<Request> trace(long requests = 24) const
    {
        return test::serveTrace(requests);
    }

    ServeReport run(SchedPolicy policy, long requests = 24) const
    {
        Fleet fleet(cfg, cal, fleetConfig(policy));
        return fleet.serve(trace(requests),
                           sharedCache());
    }
};

} // namespace

TEST(Fleet, ServesEveryRequest)
{
    Fixture f;
    const auto rep = f.run(SchedPolicy::Fcfs);
    EXPECT_EQ(rep.requests, 24);
    ASSERT_EQ(rep.latencyUs.size(), 24u);
    ASSERT_EQ(rep.queueUs.size(), 24u);
    for (size_t i = 0; i < rep.latencyUs.size(); ++i) {
        EXPECT_GT(rep.latencyUs[i], 0.0) << "request " << i;
        EXPECT_GE(rep.queueUs[i], 0.0) << "request " << i;
        EXPECT_GE(rep.latencyUs[i], rep.queueUs[i]);
    }
    long served = 0;
    for (const auto &c : rep.chips)
        served += c.served;
    EXPECT_EQ(served, 24);
    EXPECT_GT(rep.makespanUs, 0.0);
    EXPECT_GT(rep.totalMacs, 0.0);
    EXPECT_GT(rep.aggregateTops(), 0.0);
    EXPECT_GT(rep.throughputRps(), 0.0);
}

TEST(Fleet, PercentilesAreOrdered)
{
    Fixture f;
    const auto rep = f.run(SchedPolicy::Fcfs);
    EXPECT_GT(rep.p50Us, 0.0);
    EXPECT_LE(rep.p50Us, rep.p95Us);
    EXPECT_LE(rep.p95Us, rep.p99Us);
    EXPECT_EQ(rep.p50Us, rep.latencyPercentile(50.0));
    EXPECT_EQ(rep.p99Us, rep.latencyPercentile(99.0));
}

TEST(Fleet, DeterministicForSeed)
{
    Fixture f;
    const auto a = f.run(SchedPolicy::IrAware);
    const auto b = f.run(SchedPolicy::IrAware);
    EXPECT_EQ(a.makespanUs, b.makespanUs);
    EXPECT_EQ(a.sloViolations, b.sloViolations);
    EXPECT_EQ(a.irFailures, b.irFailures);
    ASSERT_EQ(a.latencyUs.size(), b.latencyUs.size());
    for (size_t i = 0; i < a.latencyUs.size(); ++i)
        EXPECT_EQ(a.latencyUs[i], b.latencyUs[i]);
}

TEST(Fleet, IrAwareReducesModelSwitches)
{
    Fixture f;
    const auto fcfs = f.run(SchedPolicy::Fcfs, 40);
    const auto ir = f.run(SchedPolicy::IrAware, 40);
    EXPECT_LE(ir.totalModelSwitches(), fcfs.totalModelSwitches());
    // Both serve identical work, so the switch savings show up as
    // less reload time.
    double fcfs_reload = 0.0;
    double ir_reload = 0.0;
    for (int c = 0; c < 2; ++c) {
        fcfs_reload += fcfs.chips[c].reloadUs;
        ir_reload += ir.chips[c].reloadUs;
    }
    EXPECT_LE(ir_reload, fcfs_reload);
}

TEST(Fleet, AllPoliciesServeTheSameWork)
{
    Fixture f;
    for (const auto policy : allPolicies()) {
        const auto rep = f.run(policy);
        EXPECT_EQ(rep.policy, policy);
        EXPECT_EQ(rep.requests, 24);
        // Identical per-request seeds: chip-model noise totals match
        // across policies even though dispatch order differs.
        EXPECT_GT(rep.totalMacs, 0.0);
    }
}

TEST(Fleet, TightSloIsViolatedLooseIsNot)
{
    Fixture f;
    auto tight = f.trace();
    for (auto &r : tight)
        r.sloUs = 1e-3;
    Fleet fleet(f.cfg, f.cal, f.fleetConfig(SchedPolicy::Fcfs));
    const auto rep =
        fleet.serve(tight, Fixture::sharedCache());
    EXPECT_EQ(rep.sloViolations, rep.requests);

    auto loose = f.trace();
    for (auto &r : loose)
        r.sloUs = 1e9;
    Fleet fleet2(f.cfg, f.cal, f.fleetConfig(SchedPolicy::Fcfs));
    const auto rep2 =
        fleet2.serve(loose, Fixture::sharedCache());
    EXPECT_EQ(rep2.sloViolations, 0);
}

TEST(Fleet, EmptyTraceYieldsEmptyReport)
{
    Fixture f;
    Fleet fleet(f.cfg, f.cal, f.fleetConfig(SchedPolicy::Fcfs));
    const auto rep =
        fleet.serve({}, Fixture::sharedCache());
    EXPECT_EQ(rep.requests, 0);
    EXPECT_EQ(rep.makespanUs, 0.0);
    EXPECT_TRUE(rep.latencyUs.empty());
    ASSERT_EQ(rep.chips.size(), 2u);
    EXPECT_EQ(rep.chips[0].served, 0);
}

TEST(Fleet, SingleChipSerializesRequests)
{
    Fixture f;
    auto fcfg = f.fleetConfig(SchedPolicy::Fcfs);
    fcfg.chips = 1;
    Fleet fleet(f.cfg, f.cal, fcfg);
    const auto rep =
        fleet.serve(f.trace(8), Fixture::sharedCache());
    ASSERT_EQ(rep.chips.size(), 1u);
    EXPECT_EQ(rep.chips[0].served, 8);
    // Makespan covers at least the chip's total busy + reload time.
    EXPECT_GE(rep.makespanUs + 1e-9,
              rep.chips[0].busyUs + rep.chips[0].reloadUs);
}

TEST(Fleet, NothingStartsBeforeItArrives)
{
    // Bunched late arrivals on idle chips: a buggy dispatcher
    // serves a request before its arrival time, which shows up as
    // negative queueing delay.
    Fixture f;
    std::vector<Request> bunched;
    for (long i = 0; i < 6; ++i) {
        Request r;
        r.id = i;
        r.model = "ResNet18";
        r.arrivalUs = 1000.0 + 10.0 * (i / 3);
        r.sloUs = 1e9;
        bunched.push_back(r);
    }
    Fleet fleet(f.cfg, f.cal, f.fleetConfig(SchedPolicy::Sjf));
    const auto rep = fleet.serve(bunched, Fixture::sharedCache());
    for (long i = 0; i < 6; ++i) {
        EXPECT_GE(rep.queueUs[i], 0.0) << "request " << i;
        EXPECT_GT(rep.latencyUs[i], 0.0) << "request " << i;
    }
}

TEST(Fleet, RenderMentionsHeadlineNumbers)
{
    Fixture f;
    const auto rep = f.run(SchedPolicy::Sjf);
    const auto text = rep.render();
    EXPECT_NE(text.find("sjf"), std::string::npos);
    EXPECT_NE(text.find("p99"), std::string::npos);
    EXPECT_NE(text.find("per-chip"), std::string::npos);
}

namespace
{

/**
 * FNV-1a digest of everything a replay produces that the dispatch
 * engine decides: the latency and queue vectors, the served MACs,
 * the per-chip usage and the cache counters.
 */
uint64_t
replayDigest(const ServeReport &rep)
{
    uint64_t h = 1469598103934665603ULL;
    const auto add = [&h](const auto &value) {
        unsigned char bytes[sizeof(value)];
        std::memcpy(bytes, &value, sizeof(value));
        for (const unsigned char b : bytes)
            h = (h ^ b) * 1099511628211ULL;
    };
    add(rep.requests);
    for (const double l : rep.latencyUs)
        add(l);
    for (const double q : rep.queueUs)
        add(q);
    add(rep.totalMacs);
    for (const auto &c : rep.chips) {
        add(c.served);
        add(c.busyUs);
        add(c.reloadUs);
        add(c.retuneUs);
        add(c.modelSwitches);
    }
    add(rep.cacheHits);
    add(rep.cacheMisses);
    add(rep.cacheEvictions);
    return h;
}

/** Serve @p trace on a fresh cache, so the cache counters in the
 * digest do not depend on which tests ran before. */
uint64_t
digestOf(const FleetConfig &fcfg, const std::vector<Request> &trace)
{
    AimPipeline pipe{pim::PimConfig{}, power::defaultCalibration()};
    ModelCache cache(pipe);
    Fleet fleet(pim::PimConfig{}, power::defaultCalibration(), fcfg);
    const ServeReport rep = fleet.serve(trace, cache);
    // The trace must queue somewhere, or the digest would not cover
    // the dispatcher's choices.
    EXPECT_GT(*std::max_element(rep.queueUs.begin(), rep.queueUs.end()),
              0.0);
    return replayDigest(rep);
}

std::vector<Request>
burstyTrace(std::vector<TraceMix> mix, long requests)
{
    TraceConfig t;
    t.arrivals = ArrivalKind::Bursty;
    t.meanRatePerSec = 20000.0;
    t.requests = requests;
    t.seed = 7;
    t.mix = std::move(mix);
    return generateTrace(t);
}

} // namespace

// Replay digests captured from the dedicated Fleet dispatch loop the
// EventLoop adapter replaced: the serving engine must reproduce them
// bit for bit.  MeshIsaScheduled is captured with the exact Mesh
// droop (transfer-matrix backend).

TEST(FleetDigest, HomogeneousIrAwareAnalytic)
{
    Fixture f;
    FleetConfig fcfg = f.fleetConfig(SchedPolicy::IrAware);
    fcfg.threads = 2;
    EXPECT_EQ(digestOf(fcfg, f.trace(32)), 0xf25ec75b9d6032f3ULL);
}

TEST(FleetDigest, MeshIsaScheduled)
{
    Fixture f;
    FleetConfig fcfg = f.fleetConfig(SchedPolicy::IrAware);
    fcfg.chips = 3;
    fcfg.threads = 2;
    fcfg.options.irBackend = power::IrBackendKind::Mesh;
    fcfg.options.useIsa = true;
    fcfg.options.isaSchedule = true;
    EXPECT_EQ(digestOf(fcfg, f.trace(24)), 0x77040b323ab3bc68ULL);
}

TEST(FleetDigest, GangFleet)
{
    Fixture f;
    FleetConfig fcfg = f.fleetConfig(SchedPolicy::Sjf);
    fcfg.chips = 4;
    fcfg.threads = 2;
    GangSpec gang;
    gang.model = "ResNet18";
    gang.partition.chips = 2;
    gang.microBatches = 2;
    fcfg.gangs = {gang};
    EXPECT_EQ(digestOf(fcfg, burstyTrace({{"ResNet18", 1.0, 4000.0},
                                          {"MobileNetV2", 1.0,
                                           4000.0}},
                                         16)),
              0xb2da5d4348464470ULL);
}

TEST(FleetDigest, MixedSkuFleet)
{
    Fixture f;
    FleetConfig fcfg = f.fleetConfig(SchedPolicy::IrAware);
    fcfg.chips = 4;
    fcfg.threads = 2;
    ChipSku tiny = smallSku();
    tiny.name = "tiny";
    tiny.weightBufMweightPerMacro = 2.0;
    fcfg.skus = {bigSku(), tiny};
    fcfg.skuOf = {0, 1, 0, 1};
    EXPECT_EQ(digestOf(fcfg, burstyTrace({{"ResNet18", 1.0, 4000.0},
                                          {"ViT", 1.0, 8000.0}},
                                         16)),
              0x191c5364ca981dccULL);
}
