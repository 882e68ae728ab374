/**
 * @file
 * Tests of the benchmark's checkers: each must pass a consistent
 * input and reject the same input with one planted error -- a
 * dropped request, a shed arrival, a task one MAC short, a flipped
 * weight bit and a mismatched cache-hit count.
 *
 * Run with `python3 perfbench/run.py --selftest`; exits non-zero on
 * the first checker that misjudges its input.
 */
#include <cstdio>

#include "Checks.hh"

using namespace aim;
using namespace aimbench;

namespace
{

int failures = 0;

void
expect(bool ok, const char *what)
{
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
    failures += !ok;
}

/** Four requests on two chips, every figure consistent. */
serve::ServeReport
goodReplay(double macsPerRequest)
{
    serve::ServeReport rep;
    rep.requests = 4;
    rep.latencyUs = {50.0, 60.0, 55.0, 70.0};
    rep.queueUs = {0.0, 10.0, 0.0, 5.0};
    rep.makespanUs = 200.0;
    rep.chips.resize(2);
    for (auto &c : rep.chips) {
        c.served = 2;
        c.busyUs = 100.0;
        c.reloadUs = 20.0;
    }
    rep.cacheHits = 4;
    rep.totalMacs = 4 * macsPerRequest;
    return rep;
}

stream::StreamReport
goodStream(double macsPerRequest)
{
    stream::StreamReport rep;
    rep.arrivals = rep.admitted = rep.requests = 10;
    rep.p50Us = 40.0;
    rep.p99Us = 90.0;
    rep.totalMacs = 10 * macsPerRequest;
    rep.scaleUps = rep.scaleDowns = 1;
    return rep;
}

void
replayCases()
{
    const double macs = 1e6;
    long failed = -1;
    Problems p = checkReplay(goodReplay(macs), 4, 4 * macs, &failed);
    expect(p.empty() && failed == 0, "replay: consistent report passes");

    serve::ServeReport dropped = goodReplay(macs);
    dropped.latencyUs[2] = 0.0;
    dropped.queueUs[2] = 0.0;
    dropped.chips[1].served = 1;
    p = checkReplay(dropped, 4, 4 * macs, &failed);
    expect(!p.empty() && failed == 1,
           "replay: a dropped request is rejected and counted");

    serve::ServeReport hits = goodReplay(macs);
    hits.cacheHits = 3;
    p = checkReplay(hits, 4, 4 * macs, &failed);
    expect(!p.empty() && failed == 0,
           "replay: a mismatched cache-hit count is rejected");

    serve::ServeReport short_macs = goodReplay(macs);
    short_macs.totalMacs -= 1.0;
    p = checkReplay(short_macs, 4, 4 * macs, &failed);
    expect(!p.empty(), "replay: a MAC total off by one is rejected");
}

void
streamCases()
{
    const double macs = 1e6;
    long failed = -1;
    Problems p =
        checkStream(goodStream(macs), 10, 10 * macs, true, &failed);
    expect(p.empty() && failed == 0, "stream: consistent report passes");

    stream::StreamReport shed = goodStream(macs);
    shed.admitted = shed.requests = 9;
    shed.shed = 1;
    shed.totalMacs = 9 * macs;
    p = checkStream(shed, 10, 9 * macs, true, &failed);
    expect(!p.empty() && failed == 1,
           "stream: a shed arrival is rejected and counted");

    stream::StreamReport flat = goodStream(macs);
    flat.scaleDowns = 0;
    p = checkStream(flat, 10, 10 * macs, true, &failed);
    expect(!p.empty(), "stream: an autoscaler that never shrank fails");

    // The digest check: an exact run that lost one completion.
    stream::StreamReport exact = goodStream(macs);
    exact.latencyUs = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
    stream::LatencyHistogram fold;
    for (const double l : exact.latencyUs)
        fold.record(l);
    stream::StreamReport digest = goodStream(macs);
    digest.p50Us = fold.percentile(50.0);
    digest.p95Us = fold.percentile(95.0);
    digest.p99Us = fold.percentile(99.0);
    expect(checkDigest(digest, exact).empty(),
           "digest: matching exact latencies pass");
    exact.latencyUs[4] = -1.0;
    expect(!checkDigest(digest, exact).empty(),
           "digest: a lost completion is rejected");
}

void
compileCases()
{
    workload::ModelSpec model;
    model.name = "toy";
    model.layers.push_back({"a", workload::OpType::Conv, 3, 5, 7});
    model.layers.push_back({"b", workload::OpType::Linear, 4, 4, 1});
    const long total = 3 * 5 * 7 + 4 * 4;
    std::vector<sim::Round> rounds(2);
    rounds[0].tasks.resize(2);
    rounds[0].tasks[0].macs = 50;
    rounds[0].tasks[1].macs = 55;
    rounds[1].tasks.resize(1);
    rounds[1].tasks[0].macs = total - 105;
    expect(checkMacConservation(model, rounds).empty(),
           "tiling: conserved MACs pass");
    rounds[0].tasks[1].macs -= 1;
    expect(!checkMacConservation(model, rounds).empty(),
           "tiling: a task one MAC short is rejected");

    quant::QuantizedLayer layer;
    layer.name = "w";
    layer.bits = 8;
    layer.values = {-1, 0, 3, 17, -128, 127, 64, -2};
    const std::vector<double> recorded = {layer.hr()};
    expect(checkPopcountHr({layer}, recorded, layer.hr()).empty(),
           "popcount: recorded HR passes");
    layer.values[3] ^= 1 << 5;
    expect(!checkPopcountHr({layer}, recorded, recorded[0]).empty(),
           "popcount: a flipped weight bit is rejected");
}

} // namespace

int
main()
{
    replayCases();
    streamCases();
    compileCases();
    std::printf("%s: %d checker test(s) failed\n",
                failures ? "FAIL" : "OK", failures);
    return failures ? 1 : 0;
}
