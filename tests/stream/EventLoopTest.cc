/**
 * @file
 * The streaming engine against its contract:
 *
 *  - equivalence: with the control policies off, a finite streamed
 *    horizon reproduces serve::Fleet's report bit for bit -- every
 *    policy, every arrival process, gangs included (Fleet::serve is
 *    an adapter over this loop, so these are regressions of the
 *    TraceSource <-> generateTrace and adapter plumbing)
 *  - determinism: the report is independent of --threads in every
 *    service mode
 *  - control: admission bounds the queue at overload, the autoscaler
 *    grows the pool on a ramp, batching coalesces same-model queue
 *    neighbours, and the histogram digest tracks the exact one
 */

#include <gtest/gtest.h>

#include "TestUtil.hh"
#include "stream/EventLoop.hh"

using namespace aim;
using namespace aim::serve;
using namespace aim::stream;

namespace
{

FleetConfig
fleetConfig(SchedPolicy policy, int threads, int chips = 3)
{
    FleetConfig f;
    f.chips = chips;
    f.policy = policy;
    f.options = test::fastServeOptions();
    f.seed = 5;
    f.threads = threads;
    return f;
}

/** Control-free stream over the fleet suites' finite trace: the
 * configuration under the Fleet-equivalence contract. */
StreamConfig
compatConfig(SchedPolicy policy, int threads,
             ArrivalKind kind = ArrivalKind::Bursty,
             long requests = 24)
{
    StreamConfig s;
    s.fleet = fleetConfig(policy, threads);
    s.trace = test::serveTraceConfig(requests, kind);
    return s;
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
runFleet(const FleetConfig &fcfg, const std::vector<Request> &trace)
{
    const pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    Fleet fleet(cfg, cal, fcfg);
    return fleet.serve(trace, test::sharedCache());
}

/** Every field the two engines share must match bit for bit. */
void
expectMatchesFleet(const StreamReport &s, const ServeReport &f)
{
    EXPECT_EQ(s.policy, f.policy);
    EXPECT_EQ(s.backend, f.backend);
    EXPECT_EQ(s.requests, f.requests);
    EXPECT_EQ(s.arrivals, f.requests);
    EXPECT_EQ(s.admitted, f.requests);
    EXPECT_EQ(s.shed, 0);
    EXPECT_EQ(s.makespanUs, f.makespanUs);
    EXPECT_EQ(s.sloViolations, f.sloViolations);
    EXPECT_EQ(s.totalMacs, f.totalMacs);
    EXPECT_EQ(s.irFailures, f.irFailures);
    EXPECT_EQ(s.stallWindows, f.stallWindows);
    EXPECT_EQ(s.gangDispatches, f.gangDispatches);
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
        EXPECT_EQ(s.chips[c].served, f.chips[c].served);
        EXPECT_EQ(s.chips[c].busyUs, f.chips[c].busyUs);
        EXPECT_EQ(s.chips[c].reloadUs, f.chips[c].reloadUs);
        EXPECT_EQ(s.chips[c].retuneUs, f.chips[c].retuneUs);
        EXPECT_EQ(s.chips[c].modelSwitches,
                  f.chips[c].modelSwitches);
    }
}

/** Bit-identity of two stream reports (determinism checks). */
void
expectIdentical(const StreamReport &a, const StreamReport &b)
{
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.makespanUs, b.makespanUs);
    EXPECT_EQ(a.sloViolations, b.sloViolations);
    EXPECT_EQ(a.totalMacs, b.totalMacs);
    EXPECT_EQ(a.irFailures, b.irFailures);
    EXPECT_EQ(a.stallWindows, b.stallWindows);
    EXPECT_EQ(a.batchedRequests, b.batchedRequests);
    EXPECT_EQ(a.p50Us, b.p50Us);
    EXPECT_EQ(a.p95Us, b.p95Us);
    EXPECT_EQ(a.p99Us, b.p99Us);
    EXPECT_EQ(a.meanUs, b.meanUs);
    ASSERT_EQ(a.latencyUs.size(), b.latencyUs.size());
    for (size_t i = 0; i < a.latencyUs.size(); ++i)
        EXPECT_EQ(a.latencyUs[i], b.latencyUs[i]) << "request " << i;
    EXPECT_EQ(a.render(), b.render());
}

} // namespace

TEST(EventLoop, StreamedReplayMatchesFleetBitForBitForEveryPolicy)
{
    for (const auto policy : allPolicies()) {
        const StreamConfig scfg = compatConfig(policy, 1);
        const auto fleet_rep =
            runFleet(scfg.fleet,
                     test::serveTrace(24, ArrivalKind::Bursty));
        expectMatchesFleet(runStream(scfg), fleet_rep);
    }
}

TEST(EventLoop, MatchesFleetOnEveryArrivalProcess)
{
    for (const auto kind :
         {ArrivalKind::Poisson, ArrivalKind::Diurnal}) {
        const StreamConfig scfg =
            compatConfig(SchedPolicy::Fcfs, 1, kind);
        const auto fleet_rep =
            runFleet(scfg.fleet, test::serveTrace(24, kind));
        expectMatchesFleet(runStream(scfg), fleet_rep);
    }
}

TEST(EventLoop, GangDispatchMatchesFleet)
{
    StreamConfig scfg = compatConfig(SchedPolicy::Fcfs, 1,
                                     ArrivalKind::Bursty, 16);
    scfg.fleet.chips = 4;
    GangSpec gang;
    gang.model = "ResNet18";
    gang.partition.chips = 2;
    gang.microBatches = 2;
    scfg.fleet.gangs = {gang};
    const auto fleet_rep =
        runFleet(scfg.fleet, test::serveTrace(16, ArrivalKind::Bursty));
    EXPECT_GT(fleet_rep.gangDispatches, 0);
    expectMatchesFleet(runStream(scfg), fleet_rep);
}

TEST(EventLoop, ReportIsIndependentOfThreads)
{
    // Warm the shared cache once: render() reports per-run cache
    // counters, which legitimately differ between a cold and a warm
    // run of the same config.
    runStream(compatConfig(SchedPolicy::Sjf, 1));
    const auto serial = runStream(compatConfig(SchedPolicy::Sjf, 1));
    for (int threads : {2, 4})
        expectIdentical(serial,
                        runStream(compatConfig(SchedPolicy::Sjf,
                                               threads)));
}

TEST(EventLoop, SampledHistogramModeIsIndependentOfThreads)
{
    // The 1M-request bench's mode: sampled service + histogram
    // latency.  Still a deterministic function of the config.
    StreamConfig scfg = compatConfig(SchedPolicy::Fcfs, 1);
    scfg.serviceSamples = 3;
    scfg.histogramLatency = true;
    runStream(scfg); // warm the shared cache (see above)
    const auto serial = runStream(scfg);
    EXPECT_EQ(serial.requests, 24);
    EXPECT_TRUE(serial.latencyUs.empty());
    scfg.fleet.threads = 4;
    expectIdentical(serial, runStream(scfg));
}

TEST(EventLoop, HistogramDigestTracksExactPercentiles)
{
    const StreamConfig exact = compatConfig(SchedPolicy::Fcfs, 1);
    StreamConfig bucketed = exact;
    bucketed.histogramLatency = true;
    const auto e = runStream(exact);
    const auto b = runStream(bucketed);
    // Identical schedule, different digest: percentiles agree within
    // the bucket resolution, the exact mean exactly.
    EXPECT_EQ(e.makespanUs, b.makespanUs);
    EXPECT_NEAR(b.p50Us, e.p50Us, e.p50Us * 0.10);
    EXPECT_NEAR(b.p99Us, e.p99Us, e.p99Us * 0.10);
    EXPECT_DOUBLE_EQ(b.meanUs, e.meanUs);
}

TEST(EventLoop, AdmissionBoundsTheQueueAtOverload)
{
    // 10x the rate the 3 chips can serve, bounded queue: the loop
    // must shed instead of queueing without bound, and every control
    // sample must respect the depth bound.
    StreamConfig scfg = compatConfig(SchedPolicy::Fcfs, 1,
                                     ArrivalKind::Poisson, 60);
    scfg.trace.meanRatePerSec = 200000.0;
    scfg.admission.maxQueueDepth = 4;
    scfg.controlTickUs = 50.0;
    const auto rep = runStream(scfg);
    EXPECT_EQ(rep.arrivals, 60);
    EXPECT_EQ(rep.admitted + rep.shed, rep.arrivals);
    EXPECT_GT(rep.shed, 0);
    EXPECT_EQ(rep.requests, rep.admitted);
    EXPECT_GT(rep.shedRate(), 0.0);
    ASSERT_FALSE(rep.trajectory.empty());
    for (const auto &sample : rep.trajectory)
        EXPECT_LE(sample.queueDepth, scfg.admission.maxQueueDepth);
    // Shed requests carry the -1 sentinel in the exact digests, and
    // the ServeReport latency helpers skip them.
    long shed_seen = 0;
    for (const double l : rep.latencyUs)
        shed_seen += l < 0.0;
    EXPECT_EQ(shed_seen, rep.shed);
    EXPECT_EQ(rep.meanLatencyUs(), rep.meanUs);
    EXPECT_EQ(rep.latencyPercentile(99.0), rep.p99Us);
}

TEST(EventLoop, LookaheadUnderSheddingIsExactAndThreadIndependent)
{
    // Exact service at overload with a bounded queue, over more
    // arrivals than the lookahead holds: requests the lookahead
    // executed before they arrived are then shed.  Their reports
    // must vanish without a trace -- the run is bit-identical at 1
    // and 4 threads, every arrival is admitted or shed once, and the
    // cache saw exactly one lookup per admitted request (the
    // lookahead never consults it).
    StreamConfig scfg = compatConfig(SchedPolicy::IrAware, 1,
                                     ArrivalKind::Poisson, 300);
    scfg.trace.meanRatePerSec = 200000.0;
    scfg.admission.maxQueueDepth = 4;
    runStream(scfg); // warm the shared cache: render() has its deltas
    const auto serial = runStream(scfg);
    scfg.fleet.threads = 4;
    const auto threaded = runStream(scfg);
    expectIdentical(serial, threaded);
    for (const StreamReport *rep : {&serial, &threaded}) {
        EXPECT_EQ(rep->arrivals, 300);
        EXPECT_EQ(rep->admitted + rep->shed, rep->arrivals);
        EXPECT_GT(rep->shed, 0);
        EXPECT_EQ(rep->requests, rep->admitted);
        EXPECT_EQ(rep->cacheHits + rep->cacheMisses, rep->admitted);
    }
}

TEST(EventLoop, AutoscalerGrowsThePoolUnderLoad)
{
    StreamConfig scfg = compatConfig(SchedPolicy::Fcfs, 1,
                                     ArrivalKind::Diurnal, 60);
    scfg.fleet.chips = 4;
    scfg.trace.meanRatePerSec = 100000.0;
    scfg.controlTickUs = 50.0;
    scfg.autoscaler.enabled = true;
    scfg.autoscaler.targetP99Us = 500.0;
    scfg.autoscaler.minChips = 1;
    scfg.autoscaler.cooldownUs = 50.0;
    scfg.autoscaler.window = 16;
    const auto rep = runStream(scfg);
    EXPECT_EQ(rep.requests, 60);
    EXPECT_GT(rep.scaleUps, 0);
    ASSERT_FALSE(rep.trajectory.empty());
    bool grew = false;
    for (const auto &sample : rep.trajectory) {
        EXPECT_GE(sample.activeChips, 1);
        EXPECT_LE(sample.activeChips, scfg.fleet.chips);
        grew |= sample.activeChips > 1;
    }
    EXPECT_TRUE(grew);
}

TEST(EventLoop, BatchingCoalescesSameModelQueueNeighbours)
{
    StreamConfig scfg = compatConfig(SchedPolicy::Fcfs, 1,
                                     ArrivalKind::Bursty, 40);
    scfg.trace.meanRatePerSec = 100000.0; // deep queues -> batches
    scfg.batching = true;
    scfg.maxBatch = 4;
    const auto rep = runStream(scfg);
    EXPECT_EQ(rep.requests, 40);
    EXPECT_GT(rep.batchedRequests, 0);
    // Followers piggyback on the leader's reload: strictly fewer
    // reload events than the unbatched replay of the same stream.
    StreamConfig unbatched = scfg;
    unbatched.batching = false;
    const auto base = runStream(unbatched);
    double batched_reload = 0.0, base_reload = 0.0;
    for (size_t c = 0; c < rep.chips.size(); ++c) {
        batched_reload += rep.chips[c].reloadUs;
        base_reload += base.chips[c].reloadUs;
    }
    EXPECT_LT(batched_reload, base_reload);
}

TEST(EventLoop, TransientCarryModeIsDeterministic)
{
    StreamConfig scfg = compatConfig(SchedPolicy::Fcfs, 1,
                                     ArrivalKind::Bursty, 12);
    scfg.fleet.options.irBackend = power::IrBackendKind::Transient;
    scfg.transientCarry = true;
    runStream(scfg); // compile the transient artifacts once
    const auto a = runStream(scfg);
    EXPECT_EQ(a.requests, 12);
    // Carry serializes execution at dispatch, so the thread knob
    // must not matter even in principle.
    scfg.fleet.threads = 4;
    expectIdentical(a, runStream(scfg));
}

TEST(EventLoop, CacheCountersReportRunDeltas)
{
    const StreamConfig scfg = compatConfig(SchedPolicy::Fcfs, 1);
    runStream(scfg); // warm the shared cache
    const auto warm = runStream(scfg);
    EXPECT_EQ(warm.cacheMisses, 0);
    EXPECT_EQ(warm.cacheHits, 24);
    EXPECT_NE(warm.render().find("model cache"), std::string::npos);
}
