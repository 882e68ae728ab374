#include "stream/EventLoop.hh"

#include <algorithm>
#include <deque>
#include <map>
#include <queue>
#include <vector>

#include "exec/ExecPool.hh"
#include "serve/Dispatch.hh"
#include "shard/ShardedRuntime.hh"
#include "sim/Runtime.hh"
#include "stream/TraceSource.hh"
#include "util/Logging.hh"
#include "util/Rng.hh"
#include "util/Stats.hh"
#include "workload/ModelZoo.hh"

namespace aim::stream
{

namespace
{

/** Not-yet-arrived requests the exact-service lookahead draws from
 * the source (see EventLoop.hh). */
constexpr size_t kLookahead = 256;

/** FNV-1a of a model name: the per-model tag of the sampled-service
 * seed stream. */
uint64_t
modelTag(const std::string &name)
{
    uint64_t h = 1469598103934665603ULL;
    for (const char ch : name) {
        h ^= static_cast<unsigned char>(ch);
        h *= 1099511628211ULL;
    }
    return h;
}

/** Heap event.  At equal times completions land before arrivals
 * (freed chips are dispatchable to requests arriving that instant)
 * and control ticks run last. */
struct Event
{
    enum Kind
    {
        Completion = 0,
        Arrival = 1,
        ControlTick = 2,
    };

    double tUs = 0.0;
    int kind = Arrival;
    long seq = 0;
    /** Completion payload. */
    double latencyUs = 0.0;
};

struct EventAfter
{
    bool
    operator()(const Event &a, const Event &b) const
    {
        if (a.tUs != b.tUs)
            return a.tUs > b.tUs;
        if (a.kind != b.kind)
            return a.kind > b.kind;
        return a.seq > b.seq;
    }
};

/** Fixed-size ring of the most recent completion latencies; the
 * autoscaler's windowed-p99 source. */
class LatencyWindow
{
  public:
    explicit LatencyWindow(int size)
        : ring(static_cast<size_t>(std::max(size, 1)))
    {
    }

    void
    push(double latency_us)
    {
        ring[pos] = latency_us;
        pos = (pos + 1) % ring.size();
        filled = std::min(filled + 1, ring.size());
    }

    /** p99 over the window [us]; negative when empty. */
    double
    p99() const
    {
        if (filled == 0)
            return -1.0;
        std::vector<double> sorted(ring.begin(),
                                   ring.begin() +
                                       static_cast<std::ptrdiff_t>(
                                           filled));
        std::sort(sorted.begin(), sorted.end());
        return util::percentileSorted(sorted, 99.0);
    }

  private:
    std::vector<double> ring;
    size_t pos = 0;
    size_t filled = 0;
};

/** validateStreamConfig without the lazy source's trace. */
std::string
validateEngineConfig(const StreamConfig &scfg)
{
    const std::string fleet = serve::validateFleetConfig(scfg.fleet);
    if (!fleet.empty())
        return util::detail::concat("fleet: ", fleet);
    const std::string scaler =
        validateAutoscalerConfig(scfg.autoscaler);
    if (!scaler.empty())
        return scaler;
    const std::string admission =
        validateAdmissionConfig(scfg.admission);
    if (!admission.empty())
        return admission;
    if (scfg.maxRequests < 0)
        return util::detail::concat(
            "maxRequests must be non-negative (0 = trace.requests), "
            "got ",
            scfg.maxRequests);
    if (scfg.controlTickUs < 0.0)
        return util::detail::concat(
            "controlTickUs must be non-negative (0 = no control "
            "ticks), got ",
            scfg.controlTickUs);
    if (scfg.autoscaler.enabled && !(scfg.controlTickUs > 0.0))
        return "autoscaler requires a positive controlTickUs (it "
               "only acts at control ticks)";
    if (scfg.autoscaler.enabled &&
        scfg.autoscaler.minChips > scfg.fleet.chips)
        return util::detail::concat(
            "autoscaler minChips ", scfg.autoscaler.minChips,
            " exceeds the fleet's ", scfg.fleet.chips, " chips");
    if (scfg.maxBatch < 1)
        return util::detail::concat(
            "maxBatch must be at least 1, got ", scfg.maxBatch);
    if (scfg.serviceSamples < 0)
        return util::detail::concat(
            "serviceSamples must be non-negative (0 = exact), got ",
            scfg.serviceSamples);
    if (scfg.transientCarry && scfg.serviceSamples > 0)
        return "transientCarry executes requests at dispatch and "
               "excludes sampled service (serviceSamples must be 0)";
    return {};
}

} // namespace

std::string
validateStreamConfig(const StreamConfig &scfg)
{
    const std::string engine = validateEngineConfig(scfg);
    if (!engine.empty())
        return engine;
    const std::string trace = serve::validateTraceConfig(scfg.trace);
    if (!trace.empty())
        return util::detail::concat("trace: ", trace);
    return {};
}

EventLoop::EventLoop(const pim::PimConfig &cfg,
                     const power::Calibration &cal,
                     const StreamConfig &scfg)
    : cfg(cfg), cal(cal), scfg(scfg)
{
    const std::string problem = validateEngineConfig(scfg);
    if (!problem.empty())
        aim_fatal("invalid StreamConfig: ", problem);
    this->scfg.fleet = serve::resolveDerivedCosts(scfg.fleet);
}

StreamReport
EventLoop::run(serve::ModelCache &cache)
{
    TraceSource source(scfg.trace);
    return serveStream(scfg.maxRequests > 0 ? scfg.maxRequests
                                            : scfg.trace.requests,
                       [&source] { return source.next(); }, cache);
}

StreamReport
EventLoop::run(const std::vector<serve::Request> &trace,
               serve::ModelCache &cache)
{
    const long n = static_cast<long>(trace.size());
    size_t i = 0;
    return serveStream(
        n,
        [&] {
            const serve::Request &request = trace[i];
            aim_assert(request.id >= 0 && request.id < n,
                       "request ids must be dense in [0, N), got ",
                       request.id);
            aim_assert(i == 0 ||
                           request.arrivalUs >= trace[i - 1].arrivalUs,
                       "trace must be sorted by arrival time");
            ++i;
            return request;
        },
        cache);
}

StreamReport
EventLoop::serveStream(long horizon,
                       const std::function<serve::Request()> &next,
                       serve::ModelCache &cache)
{
    const serve::FleetConfig &fcfg = scfg.fleet;
    const double work_scale = fcfg.options.workScale;
    const bool exact_service =
        scfg.serviceSamples == 0 && !scfg.transientCarry;

    StreamReport rep;
    rep.policy = fcfg.policy;
    rep.backend = fcfg.options.irBackend;
    rep.isa = fcfg.options.useIsa;
    rep.chips.resize(fcfg.chips);
    const long cache_hits = cache.hits();
    const long cache_misses = cache.misses();
    const long cache_evictions = cache.evictions();

    serve::ArtifactMeta meta(fcfg, cal);
    const serve::FleetSkus &skus = meta.fleetSkus();
    const bool hetero = skus.heterogeneous();
    const int nclasses = skus.classes();
    serve::ChipPool pool(fcfg.chips);
    const serve::Scheduler sched(fcfg.policy);
    // One executor per SKU class; a homogeneous fleet has exactly
    // one -- the constructor (cfg, cal) pair, the legacy path.
    std::vector<std::unique_ptr<const serve::RequestExecutor>>
        executors;
    if (hetero)
        for (int cls = 0; cls < nclasses; ++cls)
            executors.push_back(
                std::make_unique<const serve::RequestExecutor>(
                    *skus.sku(cls), fcfg.options));
    else
        executors.push_back(
            std::make_unique<const serve::RequestExecutor>(
                cfg, cal, fcfg.options));
    exec::ExecPool exec(fcfg.threads == 0 ? -1 : fcfg.threads);
    Autoscaler scaler(scfg.autoscaler);
    AdmissionController admission(scfg.admission);
    LatencyWindow window(scfg.autoscaler.window);
    LatencyHistogram hist;

    // Gangs need their member count active no matter what the
    // autoscaler wants; the shrink floor honours the largest gang.
    int min_active = scfg.autoscaler.enabled
                         ? std::max(scfg.autoscaler.minChips, 1)
                         : fcfg.chips;
    for (const auto &gang : fcfg.gangs)
        min_active = std::max(min_active, gang.partition.chips);
    min_active = std::min(min_active, fcfg.chips);
    if (hetero) {
        std::vector<int> chip_class(
            static_cast<size_t>(fcfg.chips));
        for (int c = 0; c < fcfg.chips; ++c)
            chip_class[static_cast<size_t>(c)] = skus.classOf(c);
        pool.setClassOf(std::move(chip_class));
        // The count floor above is capability-blind: on a mixed
        // fleet it can be satisfied entirely by chips too small to
        // host a gang member, leaving acquireGang nothing to take.
        // Per-class floors keep each gang's slot classes active.
        std::vector<int> class_floor(static_cast<size_t>(nclasses),
                                     0);
        for (const auto &gang : fcfg.gangs) {
            workload::ModelSpec spec;
            if (!workload::findModelByName(gang.model, spec))
                continue;
            const double share = spec.totalWeights() / 1e6 /
                                 gang.partition.chips;
            std::vector<int> need(static_cast<size_t>(nclasses),
                                  0);
            for (const int cls : skus.gangSlotClasses(
                     gang.partition.chips, share))
                ++need[static_cast<size_t>(cls)];
            for (int cls = 0; cls < nclasses; ++cls)
                class_floor[static_cast<size_t>(cls)] = std::max(
                    class_floor[static_cast<size_t>(cls)],
                    need[static_cast<size_t>(cls)]);
        }
        pool.setClassFloor(std::move(class_floor));
    }
    // An autoscaled run starts at the floor and earns its chips
    // (deactivateOne respects the per-class floors, so a mixed
    // fleet keeps its gang-capable chips up).
    if (scfg.autoscaler.enabled)
        while (pool.activeCount() > min_active &&
               pool.deactivateOne(min_active))
            ;

    // Id-keyed request seeds: every policy sees the same chip noise
    // per request.
    const util::Rng seeder(fcfg.seed);
    const auto request_seed = [&seeder](long id) {
        const uint64_t s =
            seeder.fork(static_cast<uint64_t>(id) + 1).next();
        return s != 0 ? s : 1;
    };

    // Exact-service memoization: reports land keyed by (id, SKU
    // class) when prefetch executes them and are erased at dispatch
    // or shedding, so the map never outgrows the pending queue plus
    // the lookahead, times the class count.  Homogeneous fleets
    // always key class 0.
    std::map<std::pair<long, int>, serve::ExecResult> ready;
    std::map<long, shard::ShardReport> shard_ready;
    // Sampled-service pools, keyed by (model, SKU class).
    std::map<std::pair<std::string, int>,
             std::vector<serve::ExecResult>>
        samples;
    // Per-chip electrical state (transientCarry).
    std::vector<std::unique_ptr<power::IrState>> carry(
        static_cast<size_t>(fcfg.chips));

    std::vector<double> exact_lat, exact_queue;
    if (!scfg.histogramLatency) {
        exact_lat.assign(static_cast<size_t>(horizon), -1.0);
        exact_queue.assign(static_cast<size_t>(horizon), -1.0);
    }

    std::priority_queue<Event, std::vector<Event>, EventAfter> heap;
    long seq = 0;
    std::vector<serve::QueuedRequest> pending;
    // Requests drawn from the source that have not arrived yet; the
    // front is the next arrival.  Only the exact-service lookahead
    // holds more than one.
    std::deque<serve::Request> ahead;
    // The last admitted request of each model: the artifacts the
    // lookahead executes not-yet-arrived requests against.
    std::map<std::string, serve::QueuedRequest> last_admitted;
    long generated = 0;
    long completed = 0;
    double first_arrival = 0.0;
    double last_completion = 0.0;

    const auto shard_config = [&](const std::string &model) {
        shard::ShardRuntimeConfig sc;
        sc.microBatches = meta.gangSpec(model)->microBatches;
        sc.threads = 1;
        sc.interconnect = fcfg.interconnect;
        return sc;
    };

    // Per-stage chip environments of a heterogeneous gang artifact
    // (each stage simulates on its member slot's SKU).
    const auto gang_envs = [&](const serve::QueuedRequest &q) {
        std::vector<shard::StageEnv> envs;
        const auto &slot_classes =
            meta.gangClasses(q.sharded.get());
        size_t slot = 0;
        for (const auto &stage : q.sharded->plan.stages) {
            const serve::ChipSku &sku = *skus.sku(
                slot_classes[slot]);
            envs.push_back({sku.pim, sku.cal,
                            serve::runConfigForSku(fcfg.options,
                                                   sku)});
            slot += static_cast<size_t>(stage.ways);
        }
        return envs;
    };

    // Execute every pending request that lacks a memoized report,
    // and with it the lookahead (EventLoop.hh), concurrently on the
    // pool.  Reports are pure functions of (artifact, id-keyed seed),
    // so neither the thread count nor the batching changes a single
    // bit of them.  Heterogeneous single-chip requests prefetch one
    // report per SKU class that can host them (the dispatcher
    // consumes the landing chip's).
    const auto prefetch = [&]() {
        struct Job
        {
            const serve::QueuedRequest *q;
            int cls;
        };
        std::vector<Job> todo;
        const auto add_jobs = [&](const serve::QueuedRequest &q) {
            const long id = q.request.id;
            if (q.sharded) {
                if (!shard_ready.count(id))
                    todo.push_back({&q, 0});
            } else if (hetero) {
                for (int cls = 0; cls < nclasses; ++cls)
                    if (q.compiledByClass[static_cast<size_t>(
                            cls)] &&
                        !ready.count({id, cls}))
                        todo.push_back({&q, cls});
            } else if (!ready.count({id, 0})) {
                todo.push_back({&q, 0});
            }
        };
        for (const auto &q : pending)
            add_jobs(q);
        if (todo.empty())
            return;
        while (ahead.size() < kLookahead &&
               generated + static_cast<long>(ahead.size()) < horizon)
            ahead.push_back(next());
        std::vector<serve::QueuedRequest> early;
        early.reserve(ahead.size());
        for (const auto &r : ahead) {
            const auto it = last_admitted.find(r.model);
            if (it == last_admitted.end())
                continue;
            early.push_back(it->second);
            early.back().request = r;
        }
        for (const auto &q : early)
            add_jobs(q);
        std::vector<serve::ExecResult> runs(todo.size());
        std::vector<shard::ShardReport> shard_runs(todo.size());
        exec.parallelFor(
            static_cast<long>(todo.size()), [&](long i) {
                const auto &job = todo[static_cast<size_t>(i)];
                const auto &q = *job.q;
                const long id = q.request.id;
                if (q.sharded) {
                    const shard::ShardedRuntime rt(
                        cfg, cal, shard_config(q.request.model));
                    if (hetero) {
                        const auto envs = gang_envs(q);
                        shard_runs[static_cast<size_t>(i)] =
                            rt.execute(*q.sharded,
                                       request_seed(id), &envs);
                    } else {
                        shard_runs[static_cast<size_t>(i)] =
                            rt.execute(*q.sharded,
                                       request_seed(id));
                    }
                } else {
                    const CompiledModel &compiled =
                        hetero ? *q.compiledByClass
                                      [static_cast<size_t>(
                                          job.cls)]
                               : *q.compiled;
                    runs[static_cast<size_t>(i)] =
                        executors[static_cast<size_t>(job.cls)]
                            ->run(compiled, request_seed(id));
                }
            });
        for (size_t i = 0; i < todo.size(); ++i) {
            const long id = todo[i].q->request.id;
            if (todo[i].q->sharded)
                shard_ready[id] = std::move(shard_runs[i]);
            else
                ready[{id, todo[i].cls}] = std::move(runs[i]);
        }
    };

    // K id-seeded reports per (model, SKU class), built once on
    // first need.  The homogeneous tag and seed stream are exactly
    // the legacy per-model ones.
    const auto model_samples =
        [&](const std::string &model,
            const CompiledModel &compiled, int cls)
        -> const std::vector<serve::ExecResult> & {
        const auto key = std::make_pair(model, cls);
        const auto it = samples.find(key);
        if (it != samples.end())
            return it->second;
        std::vector<serve::ExecResult> v(
            static_cast<size_t>(scfg.serviceSamples));
        const uint64_t tag =
            hetero ? modelTag(model + "|" + skus.sku(cls)->name)
                   : modelTag(model);
        exec.parallelFor(scfg.serviceSamples, [&](long k) {
            uint64_t s = seeder.fork(0x5a3d17)
                             .fork(tag)
                             .fork(static_cast<uint64_t>(k) + 1)
                             .next();
            if (s == 0)
                s = 1;
            v[static_cast<size_t>(k)] =
                executors[static_cast<size_t>(cls)]->run(compiled,
                                                         s);
        });
        return samples.emplace(key, std::move(v)).first->second;
    };

    // Record one finished request at dispatch time (the values are
    // final then; the digests fold at the completion event so the
    // autoscaler's window sees completions in time order).
    const auto account = [&](const serve::Request &request,
                             double queue_us, double latency_us,
                             double finish) {
        if (request.sloUs > 0.0 && latency_us > request.sloUs)
            ++rep.sloViolations;
        if (!scfg.histogramLatency) {
            exact_lat[static_cast<size_t>(request.id)] = latency_us;
            exact_queue[static_cast<size_t>(request.id)] = queue_us;
        }
        last_completion = std::max(last_completion, finish);
        heap.push(Event{finish, Event::Completion, ++seq,
                        latency_us});
    };

    // Can chip c's SKU hold request q?  Gangs stay visible on every
    // chip: gang acquisition routes the members itself.
    const auto eligible = [&](const serve::QueuedRequest &q,
                              int c) {
        if (!hetero || q.sharded)
            return true;
        return skus.fits(pool.classOf(c), q.requiredMweight);
    };

    // Dispatch one request (and, with batching, its same-model
    // followers) on chip c at time now, with the serve/Dispatch cost
    // arithmetic.  Returns false when nothing in the queue is
    // eligible for this chip.
    const auto dispatch_one = [&](int c, double now) -> bool {
        serve::ChipContext ctx;
        ctx.chip = c;
        ctx.residentModel = pool.slot(c).resident;
        ctx.safeLevel = pool.slot(c).safeLevel;
        ctx.skuClass = pool.classOf(c);
        size_t idx = 0;
        if (hetero) {
            std::vector<serve::QueuedRequest> view;
            std::vector<size_t> view_idx;
            for (size_t i = 0; i < pending.size(); ++i)
                if (eligible(pending[i], c)) {
                    view.push_back(pending[i]);
                    view_idx.push_back(i);
                }
            if (view.empty())
                return false;
            idx = view_idx[sched.pick(view, ctx)];
        } else {
            idx = sched.pick(pending, ctx);
        }
        if (exact_service)
            prefetch();
        const serve::QueuedRequest q = pending[idx];
        pending.erase(pending.begin() +
                      static_cast<std::ptrdiff_t>(idx));

        if (q.sharded) {
            const auto &slots = meta.gangSlots(q.sharded.get());
            const std::vector<int> slot_classes =
                hetero ? meta.gangClasses(q.sharded.get())
                       : std::vector<int>(
                             static_cast<size_t>(q.gangChips), 0);
            auto member = pool.acquireGang(slot_classes);
            // The autoscaler may have shrunk the pool below the
            // gang's needs between arrivals (on a mixed fleet the
            // capability-blind count floor can be satisfied by
            // chips too small to host a member).  Reactivate
            // capable chips on demand instead of crashing the loop.
            while (member.empty() &&
                   pool.activateOneOfClasses(slot_classes)) {
                ++rep.gangReactivations;
                member = pool.acquireGang(slot_classes);
            }
            aim_assert(!member.empty(),
                       "gang for '", q.request.model,
                       "' cannot acquire ", q.gangChips,
                       " capable chips even with every chip active "
                       "(validateFleetConfig should have rejected "
                       "this fleet)");
            double start = now;
            for (int m : member)
                start = std::max(start, pool.slot(m).freeAtUs);

            shard::ShardReport srep;
            const auto it = shard_ready.find(q.request.id);
            if (it != shard_ready.end()) {
                srep = std::move(it->second);
                shard_ready.erase(it);
            } else {
                const shard::ShardedRuntime rt(
                    cfg, cal, shard_config(q.request.model));
                if (hetero) {
                    const auto envs = gang_envs(q);
                    srep = rt.execute(*q.sharded,
                                      request_seed(q.request.id),
                                      &envs);
                } else {
                    srep = rt.execute(*q.sharded,
                                      request_seed(q.request.id));
                }
            }
            const double service = srep.makespanUs / work_scale;
            const double prep = serve::prepareGangMembers(
                pool, member, slots, service,
                fcfg.options.useBooster, cal.levelStepPct,
                fcfg.retuneUsPerStep, rep.chips);
            const double finish = start + prep + service;
            for (int m : member)
                pool.slot(m).freeAtUs = finish;
            rep.totalMacs += srep.totalMacs / work_scale;
            rep.irFailures += srep.merged.failures;
            rep.stallWindows += srep.merged.stallWindows;
            ++rep.gangDispatches;
            account(q.request, start - q.request.arrivalUs,
                    finish - q.request.arrivalUs, finish);
            return true;
        }

        auto &chip = pool.slot(c);
        auto &usage = rep.chips[static_cast<size_t>(c)];
        const int cls = pool.classOf(c);
        const int safe_level =
            hetero ? q.safeLevelByClass[static_cast<size_t>(cls)]
                   : q.safeLevel;
        if (hetero && !skus.fits(cls, q.requiredMweight))
            ++rep.placementViolations;
        const serve::DispatchCost cost = serve::dispatchCost(
            chip, q.request.model, safe_level,
            meta.reloadUs(q.request.model), fcfg.options.useBooster,
            cal.levelStepPct, fcfg.retuneUsPerStep, chip.overlapUs);
        if (cost.modelSwitch)
            ++usage.modelSwitches;
        rep.reloadOverlapSavedUs += cost.overlapSavedUs;

        // The batch: the picked leader plus (with batching on) up
        // to maxBatch-1 queued same-model requests, co-dispatched
        // behind one reload/retune.
        std::vector<serve::QueuedRequest> batch;
        batch.push_back(q);
        if (scfg.batching) {
            for (size_t i = 0;
                 i < pending.size() &&
                 batch.size() < static_cast<size_t>(scfg.maxBatch);) {
                if (!pending[i].sharded &&
                    pending[i].request.model == q.request.model) {
                    batch.push_back(pending[i]);
                    pending.erase(
                        pending.begin() +
                        static_cast<std::ptrdiff_t>(i));
                } else {
                    ++i;
                }
            }
            rep.batchedRequests +=
                static_cast<long>(batch.size()) - 1;
        }

        double cursor = now + cost.reloadUs + cost.retuneUs;
        usage.reloadUs += cost.reloadUs;
        usage.retuneUs += cost.retuneUs;
        // Tail window the chip keeps after this dispatch: the last
        // executed batch member's (sampled service carries none --
        // the pool reports are shared across requests).
        double tail_overlap = 0.0;
        for (const auto &b : batch) {
            const long id = b.request.id;
            // The artifact the chip actually executes: its own SKU
            // class's on a heterogeneous fleet (batch followers
            // share the leader's model, hence its eligibility).
            const CompiledModel &compiled =
                hetero
                    ? *b.compiledByClass[static_cast<size_t>(cls)]
                    : *b.compiled;
            double service_us = 0.0;
            if (scfg.transientCarry) {
                const auto res =
                    executors[static_cast<size_t>(cls)]->run(
                        compiled, request_seed(id),
                        &carry[static_cast<size_t>(c)]);
                service_us =
                    res.serviceNs / 1000.0 / work_scale;
                rep.totalMacs += res.run.totalMacs / work_scale;
                rep.irFailures += res.run.failures;
                rep.stallWindows += res.run.stallWindows;
                rep.scheduleSavedUs += res.scheduleSavedUs;
                tail_overlap = res.overlapUs;
            } else if (scfg.serviceSamples > 0) {
                const auto &pool_reports = model_samples(
                    b.request.model, compiled, cls);
                const auto &res = pool_reports[static_cast<size_t>(
                    request_seed(id) %
                    static_cast<uint64_t>(scfg.serviceSamples))];
                service_us = res.serviceNs / 1000.0 / work_scale;
                rep.totalMacs += res.run.totalMacs / work_scale;
                rep.irFailures += res.run.failures;
                rep.stallWindows += res.run.stallWindows;
                rep.scheduleSavedUs += res.scheduleSavedUs;
                tail_overlap = 0.0;
            } else {
                const auto it = ready.find({id, cls});
                aim_assert(it != ready.end(),
                           "request ", id,
                           " dispatched without a prefetched "
                           "report");
                const auto res = std::move(it->second);
                // The landing class's report is consumed; the other
                // classes' ones are dropped with it.
                for (int k = 0; k < nclasses; ++k)
                    ready.erase({id, k});
                service_us =
                    res.serviceNs / 1000.0 / work_scale;
                rep.totalMacs += res.run.totalMacs / work_scale;
                rep.irFailures += res.run.failures;
                rep.stallWindows += res.run.stallWindows;
                rep.scheduleSavedUs += res.scheduleSavedUs;
                tail_overlap = res.overlapUs;
            }
            cursor += service_us;
            usage.busyUs += service_us;
            ++usage.served;
            account(b.request, now - b.request.arrivalUs,
                    cursor - b.request.arrivalUs, cursor);
        }
        chip.freeAtUs = cursor;
        chip.resident = q.request.model;
        chip.safeLevel = safe_level;
        chip.overlapUs = tail_overlap;
        return true;
    };

    const auto dispatch_all = [&](double now) {
        while (!pending.empty()) {
            if (!hetero) {
                const int c = pool.freeChipAt(now);
                if (c < 0 || !dispatch_one(c, now))
                    break;
                continue;
            }
            // A free chip may have no eligible work while another
            // does: try free chips in (freeAtUs, id) order until one
            // dispatches, and stop when none can.
            std::vector<int> free_chips;
            for (int i = 0; i < pool.size(); ++i)
                if (pool.slot(i).active &&
                    pool.slot(i).freeAtUs <= now)
                    free_chips.push_back(i);
            std::sort(free_chips.begin(), free_chips.end(),
                      [&](int a, int b) {
                          const double fa = pool.slot(a).freeAtUs;
                          const double fb = pool.slot(b).freeAtUs;
                          if (fa != fb)
                              return fa < fb;
                          return a < b;
                      });
            bool dispatched = false;
            for (const int c : free_chips)
                if (dispatch_one(c, now)) {
                    dispatched = true;
                    break;
                }
            if (!dispatched)
                break;
        }
    };

    if (horizon > 0) {
        ahead.push_back(next());
        first_arrival = ahead.front().arrivalUs;
        heap.push(Event{first_arrival, Event::Arrival, ++seq, 0.0});
    }
    if (scfg.controlTickUs > 0.0)
        heap.push(Event{scfg.controlTickUs, Event::ControlTick,
                        ++seq, 0.0});

    while (!heap.empty()) {
        const double now = heap.top().tUs;
        // Drain every event of this instant (completions, then
        // arrivals, then ticks) before dispatching, so the
        // dispatcher sees exactly the requests that have arrived by
        // now.
        while (!heap.empty() && heap.top().tUs == now) {
            const Event ev = heap.top();
            heap.pop();
            switch (ev.kind) {
              case Event::Completion:
                ++completed;
                window.push(ev.latencyUs);
                if (scfg.histogramLatency)
                    hist.record(ev.latencyUs);
                break;

              case Event::Arrival: {
                const serve::Request request = ahead.front();
                ahead.pop_front();
                if (admission.admit(
                        static_cast<long>(pending.size()))) {
                    pending.push_back(meta.annotate(request, cache));
                    if (exact_service)
                        last_admitted[request.model] = pending.back();
                } else {
                    // A shed request never dispatches: drop what the
                    // lookahead executed for it.
                    for (int cls = 0; cls < nclasses; ++cls)
                        ready.erase({request.id, cls});
                    shard_ready.erase(request.id);
                }
                ++generated;
                if (generated < horizon) {
                    if (ahead.empty())
                        ahead.push_back(next());
                    heap.push(Event{ahead.front().arrivalUs,
                                    Event::Arrival, ++seq, 0.0});
                }
                break;
              }

              case Event::ControlTick: {
                const double p99 = window.p99();
                const ScaleAction action = scaler.tick(
                    now, p99, static_cast<long>(pending.size()),
                    pool.activeCount());
                if (action == ScaleAction::Up &&
                    pool.activateOne())
                    ++rep.scaleUps;
                else if (action == ScaleAction::Down &&
                         pool.deactivateOne(min_active))
                    ++rep.scaleDowns;
                rep.trajectory.push_back(
                    {now, pool.activeCount(), p99,
                     static_cast<long>(pending.size()),
                     admission.shedRate()});
                // Keep ticking while the run is live; an empty heap
                // here means all arrivals are served and drained.
                if (!heap.empty())
                    heap.push(Event{now + scfg.controlTickUs,
                                    Event::ControlTick, ++seq,
                                    0.0});
                break;
              }
            }
        }
        dispatch_all(now);
    }

    aim_assert(ready.empty() && shard_ready.empty(),
               ready.size() + shard_ready.size(),
               " memoized reports outlived the run");
    rep.arrivals = generated;
    rep.admitted = admission.admitted();
    rep.shed = admission.shed();
    rep.requests = completed;
    rep.makespanUs =
        completed > 0 ? last_completion - first_arrival : 0.0;
    if (scfg.histogramLatency) {
        rep.p50Us = hist.percentile(50.0);
        rep.p95Us = hist.percentile(95.0);
        rep.p99Us = hist.percentile(99.0);
        rep.meanUs = hist.mean();
    } else {
        std::vector<double> sorted;
        sorted.reserve(exact_lat.size());
        double sum = 0.0;
        for (const double l : exact_lat)
            if (l >= 0.0) {
                sorted.push_back(l);
                sum += l;
            }
        if (!sorted.empty()) {
            std::sort(sorted.begin(), sorted.end());
            rep.p50Us = util::percentileSorted(sorted, 50.0);
            rep.p95Us = util::percentileSorted(sorted, 95.0);
            rep.p99Us = util::percentileSorted(sorted, 99.0);
            rep.meanUs = sum / static_cast<double>(sorted.size());
        }
        rep.latencyUs = std::move(exact_lat);
        rep.queueUs = std::move(exact_queue);
    }
    rep.cacheHits = cache.hits() - cache_hits;
    rep.cacheMisses = cache.misses() - cache_misses;
    rep.cacheEvictions = cache.evictions() - cache_evictions;
    return rep;
}

} // namespace aim::stream
