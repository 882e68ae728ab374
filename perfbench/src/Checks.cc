#include "Checks.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>

#include "isa/Isa.hh"
#include "isa/Schedule.hh"

namespace aimbench
{

namespace
{

/** Append a formatted problem line. */
template <typename... Parts>
void
flag(Problems &out, const Parts &...parts)
{
    std::ostringstream os;
    os.precision(17);
    (os << ... << parts);
    out.push_back(os.str());
}

bool
closeRel(double a, double b, double rel)
{
    return std::fabs(a - b) <= rel * std::max(std::fabs(a),
                                              std::fabs(b));
}

} // namespace

long
specMacs(const aim::workload::ModelSpec &model)
{
    long macs = 0;
    for (const auto &layer : model.layers)
        macs += static_cast<long>(layer.outChannels) *
                layer.reduction * layer.spatial;
    return macs;
}

Problems
checkMacConservation(const aim::workload::ModelSpec &model,
                     const std::vector<aim::sim::Round> &untruncated)
{
    Problems out;
    long tiled = 0;
    for (const auto &round : untruncated)
        for (const auto &task : round.tasks)
            tiled += task.macs;
    const long expected = specMacs(model);
    if (tiled != expected)
        flag(out, model.name, ": tiling MACs ", tiled, " != ",
             expected, " layer MACs (", expected - tiled,
             " dropped)");
    return out;
}

Problems
checkScaledTiling(const std::vector<aim::sim::Round> &untruncated,
                  const aim::CompiledModel &artifact, long floorMacs)
{
    Problems out;
    const double scale = artifact.options.workScale;
    if (untruncated.size() != artifact.rounds.size()) {
        flag(out, artifact.modelName, ": ", artifact.rounds.size(),
             " rounds, tiling has ", untruncated.size());
        return out;
    }
    for (size_t r = 0; r < untruncated.size(); ++r) {
        const auto &full = untruncated[r].tasks;
        const auto &scaled = artifact.rounds[r].tasks;
        if (full.size() != scaled.size()) {
            flag(out, artifact.modelName, ": round ", r, " has ",
                 scaled.size(), " tasks, tiling has ", full.size());
            continue;
        }
        for (size_t t = 0; t < full.size(); ++t) {
            const long want =
                scale < 1.0
                    ? std::max(static_cast<long>(full[t].macs * scale),
                               floorMacs)
                    : full[t].macs;
            if (scaled[t].macs != want)
                flag(out, artifact.modelName, ": round ", r,
                     " task ", t, " has ", scaled[t].macs,
                     " MACs, expected ", want);
        }
    }
    return out;
}

Problems
checkHr(const aim::CompiledModel &artifact)
{
    Problems out;
    if (!(artifact.hrAverage < artifact.baselineHrAverage))
        flag(out, artifact.modelName, ": hrAverage ",
             artifact.hrAverage, " not below baseline ",
             artifact.baselineHrAverage);
    if (std::fabs(artifact.baselineHrAverage - 0.5) > 0.05)
        flag(out, artifact.modelName, ": baseline hrAverage ",
             artifact.baselineHrAverage, " outside 0.5 +- 0.05");
    return out;
}

Problems
checkPopcountHr(const std::vector<aim::quant::QuantizedLayer> &layers,
                const std::vector<double> &recordedLayerHr,
                double recordedHrAverage)
{
    Problems out;
    if (layers.size() != recordedLayerHr.size() || layers.empty()) {
        flag(out, layers.size(), " layers but ",
             recordedLayerHr.size(), " recorded HR values");
        return out;
    }
    double sum = 0.0;
    for (size_t i = 0; i < layers.size(); ++i) {
        const auto &layer = layers[i];
        const uint32_t mask =
            layer.bits >= 32 ? ~0u : (1u << layer.bits) - 1u;
        uint64_t ones = 0;
        for (const int32_t v : layer.values)
            ones += static_cast<uint64_t>(
                std::popcount(static_cast<uint32_t>(v) & mask));
        const double hr =
            layer.values.empty()
                ? 0.0
                : static_cast<double>(ones) /
                      (static_cast<double>(layer.values.size()) *
                       static_cast<double>(layer.bits));
        if (hr != recordedLayerHr[i])
            flag(out, layer.name, ": popcount HR ", hr,
                 " != recorded ", recordedLayerHr[i]);
        sum += hr;
    }
    const double mean = sum / static_cast<double>(layers.size());
    if (mean != recordedHrAverage)
        flag(out, "popcount hrAverage ", mean, " != artifact ",
             recordedHrAverage);
    return out;
}

Problems
checkExecution(const aim::CompiledModel &artifact,
               const aim::AimReport &rep, double signoffWorstMv)
{
    Problems out;
    const double macs = artifact.scaledMacs();
    if (rep.run.totalMacs != macs)
        flag(out, artifact.modelName, ": executed ",
             rep.run.totalMacs, " MACs, artifact holds ", macs);
    if (!(rep.run.irWorstMv > 0.0 &&
          rep.run.irWorstMv < signoffWorstMv))
        flag(out, artifact.modelName, ": worst IR-drop ",
             rep.run.irWorstMv, " mV outside (0, ", signoffWorstMv,
             ")");
    if (artifact.options.useIsa &&
        rep.isaScheduledMakespanNs > rep.isaInOrderMakespanNs)
        flag(out, artifact.modelName, ": scheduled makespan ",
             rep.isaScheduledMakespanNs, " ns > in-order ",
             rep.isaInOrderMakespanNs);
    return out;
}

Problems
checkReplay(const aim::serve::ServeReport &rep, long requests,
            double expectedMacs, long *failedRequests)
{
    Problems out;
    const auto n = static_cast<size_t>(requests);
    long failed = 0;
    for (size_t i = 0; i < n; ++i) {
        const bool present =
            i < rep.latencyUs.size() && i < rep.queueUs.size();
        if (!present || !(rep.latencyUs[i] > 0.0) ||
            !(rep.queueUs[i] >= 0.0) ||
            !(rep.latencyUs[i] >= rep.queueUs[i]))
            ++failed;
    }
    *failedRequests = failed;
    if (rep.requests != requests || rep.latencyUs.size() != n ||
        rep.queueUs.size() != n)
        flag(out, "report holds ", rep.requests, " requests / ",
             rep.latencyUs.size(), " latencies for a trace of ",
             requests);
    long served = 0;
    for (size_t c = 0; c < rep.chips.size(); ++c) {
        const auto &chip = rep.chips[c];
        served += chip.served;
        const double used = chip.busyUs + chip.reloadUs + chip.retuneUs;
        if (used > rep.makespanUs * (1.0 + 1e-12))
            flag(out, "chip ", c, " busy+reload+retune ", used,
                 " us exceeds the makespan ", rep.makespanUs);
    }
    if (served != requests)
        flag(out, "chips served ", served, " requests of ", requests);
    if (rep.placementViolations != 0)
        flag(out, rep.placementViolations, " placement violations");
    if (rep.cacheMisses != 0 || rep.cacheHits != requests)
        flag(out, "cache: ", rep.cacheHits, " hits / ",
             rep.cacheMisses, " misses for ", requests,
             " requests (want one hit each)");
    if (!closeRel(rep.totalMacs, expectedMacs, 1e-9))
        flag(out, "served MACs ", rep.totalMacs, " != expected ",
             expectedMacs);
    return out;
}

Problems
checkStream(const aim::stream::StreamReport &rep, long horizon,
            double expectedMacs, bool autoscaled,
            long *failedArrivals)
{
    Problems out;
    *failedArrivals = std::max(horizon - rep.requests, 0L);
    if (rep.arrivals != horizon)
        flag(out, rep.arrivals, " arrivals for a horizon of ",
             horizon);
    if (rep.admitted + rep.shed != rep.arrivals)
        flag(out, "admitted ", rep.admitted, " + shed ", rep.shed,
             " != arrivals ", rep.arrivals);
    if (rep.requests != rep.admitted)
        flag(out, "completed ", rep.requests, " != admitted ",
             rep.admitted);
    if (rep.shed != 0)
        flag(out, rep.shed, " arrivals shed");
    if (!(rep.p50Us <= rep.p99Us))
        flag(out, "p50 ", rep.p50Us, " > p99 ", rep.p99Us);
    if (!closeRel(rep.totalMacs, expectedMacs, 1e-9))
        flag(out, "served MACs ", rep.totalMacs, " != expected ",
             expectedMacs);
    if (rep.cacheMisses != 0)
        flag(out, rep.cacheMisses, " cache misses");
    if (rep.placementViolations != 0)
        flag(out, rep.placementViolations, " placement violations");
    if (autoscaled && (rep.scaleUps < 1 || rep.scaleDowns < 1))
        flag(out, "autoscaler scaled up ", rep.scaleUps,
             " and down ", rep.scaleDowns,
             " times (want both >= 1)");
    return out;
}

Problems
checkDigest(const aim::stream::StreamReport &digest,
            const aim::stream::StreamReport &exact)
{
    Problems out;
    aim::stream::LatencyHistogram fold;
    for (const double l : exact.latencyUs)
        if (l >= 0.0)
            fold.record(l);
    if (fold.count() != digest.requests)
        flag(out, "exact run holds ", fold.count(),
             " latencies, digest counted ", digest.requests,
             " completions");
    const double ps[] = {50.0, 95.0, 99.0};
    const double got[] = {digest.p50Us, digest.p95Us, digest.p99Us};
    for (int i = 0; i < 3; ++i)
        if (fold.percentile(ps[i]) != got[i])
            flag(out, "digest p", ps[i], " ", got[i],
                 " != folded exact latencies ",
                 fold.percentile(ps[i]));
    return out;
}

} // namespace aimbench

namespace aimbench
{

namespace
{

/** Folds values into a 64-bit FNV-1a digest. */
class Fnv
{
  public:
    template <typename T>
    void
    add(const T &value)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &value, sizeof(T));
        for (const unsigned char b : bytes)
            h = (h ^ b) * 0x100000001b3ULL;
    }
    template <typename T>
    void
    addAll(const std::vector<T> &values)
    {
        add(values.size());
        for (const auto &v : values)
            add(v);
    }
    void
    addChips(const std::vector<aim::serve::ChipUsage> &chips)
    {
        add(chips.size());
        for (const auto &c : chips) {
            add(c.served);
            add(c.busyUs);
            add(c.reloadUs);
            add(c.retuneUs);
            add(c.modelSwitches);
        }
    }
    uint64_t value() const { return h; }

  private:
    uint64_t h = 0xcbf29ce484222325ULL;
};

} // namespace

Problems
checkSameArtifact(const aim::CompiledModel &a,
                  const aim::CompiledModel &b)
{
    Problems out;
    const std::string &m = b.modelName;
    const auto same = [&](const char *what, double x, double y) {
        if (x != y)
            flag(out, m, ": ", what, " ", x, " != ", y);
    };
    same("hrAverage", a.hrAverage, b.hrAverage);
    same("hrMax", a.hrMax, b.hrMax);
    same("baselineHrAverage", a.baselineHrAverage,
         b.baselineHrAverage);
    same("baselineHrMax", a.baselineHrMax, b.baselineHrMax);
    same("wdsClampedFraction", a.wdsClampedFraction,
         b.wdsClampedFraction);
    same("accuracy", a.accuracy.metric, b.accuracy.metric);
    same("accuracy delta", a.accuracy.delta, b.accuracy.delta);
    if (a.rounds.size() != b.rounds.size()) {
        flag(out, m, ": ", a.rounds.size(), " rounds != ",
             b.rounds.size());
        return out;
    }
    for (size_t r = 0; r < a.rounds.size(); ++r) {
        const auto &x = a.rounds[r].tasks;
        const auto &y = b.rounds[r].tasks;
        bool equal = x.size() == y.size();
        for (size_t t = 0; equal && t < x.size(); ++t)
            equal = x[t].macs == y[t].macs && x[t].hr == y[t].hr &&
                    x[t].setId == y[t].setId &&
                    x[t].type == y[t].type &&
                    x[t].inputDetermined == y[t].inputDetermined &&
                    x[t].layerName == y[t].layerName;
        if (!equal)
            flag(out, m, ": round ", r, " tasks differ");
    }
    if (!a.program != !b.program) {
        flag(out, m, ": only one side carries a program");
    } else if (a.program) {
        const auto &x = *a.program;
        const auto &y = *b.program;
        bool equal = x.code.size() == y.code.size() &&
                     x.fusedMacs == y.fusedMacs &&
                     x.roundSpan.size() == y.roundSpan.size();
        for (size_t i = 0; equal && i < x.code.size(); ++i) {
            const auto &p = x.code[i];
            const auto &q = y.code[i];
            equal = p.op == q.op && p.set == q.set &&
                    p.round == q.round && p.windows == q.windows &&
                    p.weightWords == q.weightWords &&
                    p.macros == q.macros && p.fused == q.fused &&
                    p.costNs == q.costNs && p.dep0 == q.dep0 &&
                    p.dep1 == q.dep1;
        }
        for (size_t i = 0; equal && i < x.roundSpan.size(); ++i)
            equal = x.roundSpan[i].begin == y.roundSpan[i].begin &&
                    x.roundSpan[i].end == y.roundSpan[i].end;
        if (!equal)
            flag(out, m, ": lowered programs differ");
    }
    if (!a.schedule != !b.schedule)
        flag(out, m, ": only one side carries a schedule");
    else if (a.schedule && a.schedule->order != b.schedule->order)
        flag(out, m, ": schedules differ");
    return out;
}

Problems
checkSameRun(const aim::sim::RunReport &a, const aim::sim::RunReport &b,
             const std::string &what)
{
    const bool equal =
        a.wallTimeNs == b.wallTimeNs && a.totalMacs == b.totalMacs &&
        a.tops == b.tops && a.macroPowerMw == b.macroPowerMw &&
        a.irWorstMv == b.irWorstMv && a.irMeanMv == b.irMeanMv &&
        a.failures == b.failures && a.stallWindows == b.stallWindows &&
        a.usefulWindows == b.usefulWindows &&
        a.vfSwitches == b.vfSwitches && a.meanLevel == b.meanLevel &&
        a.meanRtog == b.meanRtog &&
        a.roundLatencyNs == b.roundLatencyNs;
    Problems out;
    if (!equal)
        flag(out, what, ": reports differ");
    return out;
}

uint64_t
digest(const aim::serve::ServeReport &rep)
{
    Fnv f;
    f.add(rep.requests);
    f.add(rep.makespanUs);
    f.addAll(rep.latencyUs);
    f.addAll(rep.queueUs);
    f.add(rep.sloViolations);
    f.add(rep.totalMacs);
    f.add(rep.irFailures);
    f.add(rep.stallWindows);
    f.add(rep.placementViolations);
    f.add(rep.reloadOverlapSavedUs);
    f.add(rep.scheduleSavedUs);
    f.addChips(rep.chips);
    return f.value();
}

uint64_t
digest(const std::vector<std::shared_ptr<const aim::CompiledModel>> &artifacts,
       const std::vector<aim::AimReport> &executions)
{
    Fnv f;
    for (const auto &a : artifacts) {
        f.add(a->hrAverage);
        f.add(a->baselineHrAverage);
        f.add(a->accuracy.metric);
        for (const auto &r : a->rounds)
            for (const auto &t : r.tasks) {
                f.add(t.macs);
                f.add(t.hr);
            }
        f.add(a->program ? a->program->code.size() : size_t{0});
    }
    for (const auto &r : executions) {
        f.add(r.run.wallTimeNs);
        f.add(r.run.irWorstMv);
        f.add(r.run.macroPowerMw);
        f.add(r.run.totalMacs);
        f.add(r.isaScheduledMakespanNs);
    }
    return f.value();
}

uint64_t
digest(const aim::stream::StreamReport &rep)
{
    Fnv f;
    f.add(rep.arrivals);
    f.add(rep.admitted);
    f.add(rep.shed);
    f.add(rep.requests);
    f.add(rep.makespanUs);
    f.add(rep.sloViolations);
    f.add(rep.totalMacs);
    f.add(rep.irFailures);
    f.add(rep.stallWindows);
    f.add(rep.batchedRequests);
    f.add(rep.scaleUps);
    f.add(rep.scaleDowns);
    f.add(rep.placementViolations);
    f.add(rep.reloadOverlapSavedUs);
    f.add(rep.scheduleSavedUs);
    f.add(rep.p50Us);
    f.add(rep.p95Us);
    f.add(rep.p99Us);
    f.add(rep.meanUs);
    f.addAll(rep.latencyUs);
    f.addAll(rep.queueUs);
    f.addChips(rep.chips);
    f.add(rep.trajectory.size());
    for (const auto &s : rep.trajectory) {
        f.add(s.tUs);
        f.add(s.activeChips);
        f.add(s.windowP99Us);
        f.add(s.queueDepth);
    }
    return f.value();
}

} // namespace aimbench
