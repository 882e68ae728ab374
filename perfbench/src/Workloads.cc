/**
 * @file
 * The three benchmark workloads.
 *
 *   compile_lhr      compile ResNet18 + GPT2 from an empty cache (LHR
 *                    QAT, WDS, tiling, ISA lowering and scheduling),
 *                    execute each artifact once, then stream a short
 *                    sampled-service trace over the fresh artifacts
 *   replay_mesh_isa  replay a Poisson trace on 4 chips through
 *                    serve::Fleet: exact service, IR-aware scheduler,
 *                    Mesh droop, ISA engine with scheduling
 *   stream_day       stream a diurnal day through stream::EventLoop on
 *                    8 autoscaled chips with sampled service, the
 *                    histogram digest, bounded admission and batching
 *
 * Every workload is an open loop in simulated time: arrivals follow
 * the generated schedule whatever the fleet does.  A timed phase is
 * made of whole passes over the same work, at least two and then
 * until --seconds of host time have elapsed; every pass must
 * reproduce the first bit for bit.
 */
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>

#include "Bench.hh"
#include "Checks.hh"
#include "Spans.hh"
#include "exec/ExecPool.hh"
#include "isa/Engine.hh"
#include "isa/Lower.hh"
#include "isa/Schedule.hh"
#include "mapping/Mappers.hh"
#include "mapping/MappingScore.hh"
#include "pim/ToggleModel.hh"
#include "power/IrModel.hh"
#include "power/PowerModel.hh"
#include "power/VfTable.hh"
#include "quant/Wds.hh"
#include "serve/Dispatch.hh"
#include "serve/Fleet.hh"
#include "serve/ModelCache.hh"
#include "sim/Compiler.hh"
#include "stream/EventLoop.hh"
#include "stream/TraceSource.hh"
#include "util/Rng.hh"
#include "util/Stats.hh"
#include "workload/WeightSynth.hh"

namespace aimbench
{

using namespace aim;

namespace
{

using Artifact = std::shared_ptr<const CompiledModel>;

/** Set-ups of the serving workloads: all but one before the timed
 * phase and one after it, so they sample the host at both ends of
 * the run.  setup_s is their median, compile_s each model's fastest
 * compile across them. */
constexpr int kSetupReps = 3;
/** Request seeds per model in the traced chip-executor probe. */
constexpr int kChipProbeSeeds = 4;
/** Trace prefix the traced run replays at 1 and N threads. */
constexpr long kServeProbeRequests = 32;
/** Warm-cache lookups timed for serve.cache_hit_us. */
constexpr long kCacheHitProbes = 20000;
/** Latencies folded for stream.histogram_ns_per_record. */
constexpr long kHistogramProbeRecords = 2'000'000;

/** The objects every run shares.  Not movable: the cache points at
 * the pipeline. */
struct Env
{
    pim::PimConfig cfg;
    power::Calibration cal = power::defaultCalibration();
    AimPipeline pipeline{cfg, cal};
    serve::ModelCache cache{pipeline};
    double signoffMv = power::IrModel(cal).signoffWorstMv();
};

/**
 * A workload's inputs, all derived from --seed: the models and the
 * options they compile under, the fleet that serves them and the
 * arrival process.  The replay uses stream.fleet and stream.trace
 * through serve::Fleet; the streaming workloads run the whole
 * StreamConfig.
 */
struct Spec
{
    std::vector<std::string> models;
    AimOptions options;
    stream::StreamConfig stream;
    /** Horizon of one pass (trace requests or stream arrivals). */
    long horizon() const { return stream.trace.requests; }
};

Spec
compileLhrSpec(uint64_t seed)
{
    Spec s;
    s.models = {"ResNet18", "GPT2"};
    s.options.useIsa = true;
    s.options.isaSchedule = true;
    s.options.seed = 7 + seed;
    auto &st = s.stream;
    st.fleet.chips = 4;
    st.fleet.policy = serve::SchedPolicy::IrAware;
    st.fleet.threads = benchThreads();
    st.fleet.options = s.options;
    st.fleet.seed = 99 + seed;
    // The request figures' stream (see the README for the sweep these
    // numbers come from): the other workloads' 70/30 shares, SLOs
    // and service samples as in stream_day, and the rate at which the
    // 4 chips are 40% busy, below the knee where queueing sets in.
    // 250,000 arrivals give the event loop itself over a host second.
    st.trace.arrivals = serve::ArrivalKind::Poisson;
    st.trace.meanRatePerSec = 4000.0;
    st.trace.requests = 250'000;
    st.trace.seed = 2027 + seed;
    st.trace.mix = {{"ResNet18", 0.7, 1000.0}, {"GPT2", 0.3, 1000.0}};
    st.serviceSamples = 16;
    return s;
}

Spec
replaySpec(uint64_t seed)
{
    Spec s;
    s.models = {"ResNet18", "MobileNetV2"};
    s.options.irBackend = power::IrBackendKind::Mesh;
    s.options.useIsa = true;
    s.options.isaSchedule = true;
    s.options.seed = 7 + seed;
    auto &st = s.stream;
    st.fleet.chips = 4;
    st.fleet.policy = serve::SchedPolicy::IrAware;
    st.fleet.threads = benchThreads();
    st.fleet.options = s.options;
    st.fleet.seed = 99 + seed;
    st.trace.arrivals = serve::ArrivalKind::Poisson;
    st.trace.meanRatePerSec = 20'000.0;
    // The fewest requests that leave at least 10 latencies beyond
    // p99 on every seed, tied latencies at the tail included.
    st.trace.requests = 1500;
    st.trace.seed = 2027 + seed;
    st.trace.mix = {{"ResNet18", 0.7, 400.0},
                    {"MobileNetV2", 0.3, 400.0}};
    return s;
}

Spec
streamDaySpec(uint64_t seed)
{
    Spec s;
    s.models = {"ResNet18", "MobileNetV2"};
    s.options.seed = 7 + seed;
    auto &st = s.stream;
    st.fleet.chips = 8;
    st.fleet.policy = serve::SchedPolicy::IrAware;
    st.fleet.threads = benchThreads();
    st.fleet.options = s.options;
    st.fleet.seed = 99 + seed;
    st.trace.arrivals = serve::ArrivalKind::Diurnal;
    st.trace.meanRatePerSec = 20'000.0;
    st.trace.requests = 1'000'000;
    // One diurnal period spans the whole stream: the scaled "day".
    st.trace.diurnalPeriodUs =
        st.trace.requests / st.trace.meanRatePerSec * 1e6;
    st.trace.seed = 2027 + seed;
    st.trace.mix = {{"ResNet18", 0.7, 1000.0},
                    {"MobileNetV2", 0.3, 1000.0}};
    st.serviceSamples = 16;
    st.histogramLatency = true;
    st.batching = true;
    st.maxBatch = 4;
    st.admission.maxQueueDepth = 4096;
    st.controlTickUs = 1000.0;
    st.autoscaler.enabled = true;
    st.autoscaler.targetP99Us = 400.0;
    st.autoscaler.minChips = 1;
    return s;
}

double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    return util::percentileSorted(xs, 50.0);
}

/** The options the serving engines key and execute artifacts under
 * (the reload/retune sentinels resolved from the fleet). */
AimOptions
servedOptions(const Env &env, const Spec &spec)
{
    return serve::Fleet(env.cfg, env.cal, spec.stream.fleet)
        .config()
        .options;
}

/**
 * Compile every model of @p spec into the cache.  Returns the host
 * seconds of the whole set; @p best, when given, keeps each model's
 * fastest compile so far (contention on a shared host only ever
 * adds time, so the minimum is the steadiest summary).
 */
double
compileAll(Env &env, const Spec &spec, std::vector<Artifact> &out,
           std::vector<double> *best = nullptr)
{
    const AimOptions opts = servedOptions(env, spec);
    out.clear();
    if (best)
        best->resize(spec.models.size(), 1e300);
    const double t0 = hostNow();
    for (size_t i = 0; i < spec.models.size(); ++i) {
        const double t = hostNow();
        out.push_back(env.cache.get(spec.models[i], opts));
        if (best)
            (*best)[i] = std::min((*best)[i], hostNow() - t);
    }
    return hostNow() - t0;
}

double
sum(const std::vector<double> &xs)
{
    double s = 0.0;
    for (const double x : xs)
        s += x;
    return s;
}

/** Latency percentiles over the non-negative entries of a vector. */
struct Tail
{
    double p50 = 0.0, p99 = 0.0, p999 = 0.0;
    long samples = 0;
    long beyondP99 = 0;
};

Tail
tailOf(const std::vector<double> &latencies)
{
    std::vector<double> v;
    v.reserve(latencies.size());
    for (const double l : latencies)
        if (l >= 0.0)
            v.push_back(l);
    std::sort(v.begin(), v.end());
    Tail t;
    t.samples = static_cast<long>(v.size());
    if (v.empty())
        return t;
    t.p50 = util::percentileSorted(v, 50.0);
    t.p99 = util::percentileSorted(v, 99.0);
    t.p999 = util::percentileSorted(v, 99.9);
    t.beyondP99 = static_cast<long>(
        v.end() - std::upper_bound(v.begin(), v.end(), t.p99));
    return t;
}

/** Chip-level figures of one execution of each artifact. */
struct ArtifactFigures
{
    double execUs = 0.0;
    double hrAvg = 0.0;
    double irWorstMv = 0.0;
    double macroMw = 0.0;
    std::vector<AimReport> reports;
};

/** Execute each artifact once (its default runtime seed) and check
 * the execution; problems are appended per artifact. */
ArtifactFigures
executeOnce(const Env &env, const std::vector<Artifact> &artifacts,
            std::vector<Problems> &problems)
{
    ArtifactFigures f;
    problems.assign(artifacts.size(), {});
    for (size_t i = 0; i < artifacts.size(); ++i) {
        const auto &a = *artifacts[i];
        const AimReport rep = env.pipeline.execute(a);
        problems[i] = checkExecution(a, rep, env.signoffMv);
        const Problems hr = checkHr(a);
        problems[i].insert(problems[i].end(), hr.begin(), hr.end());
        f.execUs += rep.run.wallTimeNs / 1000.0;
        f.hrAvg += a.hrAverage / static_cast<double>(artifacts.size());
        f.irWorstMv = std::max(f.irWorstMv, rep.run.irWorstMv);
        f.macroMw +=
            rep.run.macroPowerMw / static_cast<double>(artifacts.size());
        f.reports.push_back(rep);
    }
    return f;
}

/** Untruncated tiling of a model: the compiler on baseline-quantized
 * synthesized weights (task MACs depend on the layer shapes only). */
std::vector<sim::Round>
untruncatedTiling(const Env &env, const workload::ModelSpec &model,
                  const AimOptions &opts)
{
    workload::SynthConfig synth;
    synth.seed = opts.seed;
    auto layers = workload::synthesizeWeights(model, synth);
    const auto q = quant::quantizeBaseline(layers, opts.bits);
    sim::CompilerConfig ccfg;
    ccfg.seed = opts.seed ^ 0xc2b2ae35ULL;
    return sim::compileModel(model, q.layers, env.cfg, ccfg);
}

/** Full-inference MACs the served requests carry, from per-model
 * request counts. */
double
expectedMacs(const std::map<std::string, long> &picks,
             const std::map<std::string, Artifact> &byModel,
             double workScale)
{
    double macs = 0.0;
    for (const auto &[model, n] : picks)
        macs += static_cast<double>(n) *
                (byModel.at(model)->scaledMacs() / workScale);
    return macs;
}

/** Per-model arrivals of a stream horizon, counted from a fresh
 * TraceSource of the same config; also the arrival instants. */
std::map<std::string, long>
countPicks(const serve::TraceConfig &cfg, long horizon,
           std::vector<double> *arrivals = nullptr)
{
    stream::TraceSource source(cfg);
    std::map<std::string, long> picks;
    if (arrivals)
        arrivals->reserve(static_cast<size_t>(horizon));
    for (long i = 0; i < horizon; ++i) {
        const auto r = source.next();
        ++picks[r.model];
        if (arrivals)
            arrivals->push_back(r.arrivalUs);
    }
    return picks;
}

std::map<std::string, Artifact>
byModel(const std::vector<Artifact> &artifacts)
{
    std::map<std::string, Artifact> m;
    for (const auto &a : artifacts)
        m[a->modelName] = a;
    return m;
}

/** Most requests waiting (arrived, not yet started) at any instant. */
long
maxQueueDepth(const std::vector<double> &arrivals,
              const std::vector<double> &queueUs)
{
    std::vector<std::pair<double, int>> events;
    events.reserve(2 * arrivals.size());
    for (size_t i = 0; i < arrivals.size() && i < queueUs.size(); ++i) {
        if (queueUs[i] < 0.0)
            continue;
        // A start at the arrival instant never waits: order the
        // start (-1) before the arrival (+1) at equal times.
        events.push_back({arrivals[i], +1});
        events.push_back({arrivals[i] + queueUs[i], -1});
    }
    std::sort(events.begin(), events.end());
    long depth = 0, most = 0;
    for (const auto &e : events) {
        depth += e.second;
        most = std::max(most, depth);
    }
    return most;
}

void
addProblems(RunResult &res, const Problems &problems)
{
    for (const auto &p : problems)
        res.require(false, p);
}

/** Print the end-to-end metric set shared by all workloads. */
void
addEndToEnd(RunResult &res, double compileS, double setupS,
            double hostReqPerS, double rssMib, const Tail &tail,
            long sloMisses, const ArtifactFigures &fig)
{
    std::printf("sim_p99_us %.3f over %ld samples, %ld beyond it; "
                "%ld SLO misses\n",
                tail.p99, tail.samples, tail.beyondP99, sloMisses);
    res.require(tail.beyondP99 >= 10,
                "fewer than 10 latency samples beyond p99");
    res.require(tail.p50 <= tail.p99 && tail.p99 <= tail.p999,
                "latency percentiles out of order");
    res.add("compile_s", compileS, "s");
    res.add("setup_s", setupS, "s");
    res.add("host_req_per_s", hostReqPerS, "1/s");
    res.add("peak_rss_mib", rssMib, "MiB");
    res.add("sim_p50_us", tail.p50, "us");
    res.add("sim_p99_us", tail.p99, "us");
    res.add("sim_p999_us", tail.p999, "us");
    res.add("sim_exec_us", fig.execUs, "us");
    res.add("hr_avg", fig.hrAvg, "1");
    res.add("ir_worst_mv", fig.irWorstMv, "mV");
    res.add("macro_mw", fig.macroMw, "mW");
}

// ------------------------------------------------------------ traced

/** What the traced decomposition of one compile produces. */
struct Decomposed
{
    CompiledModel artifact;
    /** Deployed (LHR + WDS) layers and the HR recorded for each. */
    std::vector<quant::QuantizedLayer> layers;
    std::vector<double> layerHr;
    /** Tiling before workScale. */
    std::vector<sim::Round> untruncated;
    /** Weight elements QAT trained. */
    long qatWeights = 0;
    /** The artifact with an ISA program attached (lowered and
     * scheduled here when the options do not ask for one). */
    CompiledModel isaArtifact;
};

/**
 * AimPipeline::compile decomposed into its layer entry points, in
 * the pipeline's order and with its seeds, each call under a span.
 */
Decomposed
tracedCompile(Tracer &tr, const Env &env,
              const workload::ModelSpec &model, const AimOptions &opts,
              long id)
{
    Decomposed d;
    Tracer::Scope compile(tr, "aim.compile", id);
    CompiledModel &out = d.artifact;
    out.modelName = model.name;
    out.options = opts;
    out.stream = model.stream;

    workload::SynthConfig synth;
    synth.seed = opts.seed;
    std::vector<quant::FloatLayer> floats;
    {
        Tracer::Scope s(tr, "workload.synth", id);
        floats = workload::synthesizeWeights(model, synth);
    }
    quant::QatResult q;
    if (opts.useLhr) {
        for (const auto &l : floats)
            d.qatWeights += static_cast<long>(l.weights.size());
        quant::QatConfig qcfg;
        qcfg.bits = opts.bits;
        qcfg.lambda = opts.lambda;
        qcfg.seed = opts.seed ^ 0x5bd1e995ULL;
        Tracer::Scope s(tr, "quant.qat", id);
        q = quant::QatTrainer(qcfg).run(floats);
    } else {
        Tracer::Scope s(tr, "quant.baseline", id);
        q = quant::quantizeBaseline(floats, opts.bits);
    }
    double clamped_fraction = 0.0;
    if (opts.useWds) {
        Tracer::Scope s(tr, "quant.wds", id);
        size_t clamped = 0, total = 0;
        for (auto &layer : q.layers) {
            const auto stats = quant::applyWds(layer, opts.wdsDelta);
            clamped += stats.clamped;
            total += stats.total;
        }
        for (size_t i = 0; i < q.layers.size(); ++i)
            q.layerHr[i] = q.layers[i].hr();
        clamped_fraction =
            total > 0 ? static_cast<double>(clamped) / total : 0.0;
    }
    out.hrAverage = q.hrAverage();
    out.hrMax = q.hrMax();
    out.wdsClampedFraction = clamped_fraction;
    {
        std::vector<quant::FloatLayer> base_layers;
        {
            Tracer::Scope s(tr, "workload.synth", id);
            base_layers = workload::synthesizeWeights(model, synth);
        }
        Tracer::Scope s(tr, "quant.baseline", id);
        const auto base = quant::quantizeBaseline(base_layers, opts.bits);
        out.baselineHrAverage = base.hrAverage();
        out.baselineHrMax = base.hrMax();
    }
    {
        Tracer::Scope s(tr, "workload.accuracy", id);
        workload::AccuracyExtras extras;
        extras.wdsClampedFraction = clamped_fraction;
        out.accuracy =
            workload::evaluateAccuracy(model, q, floats, extras);
    }
    {
        Tracer::Scope s(tr, "sim.tile", id);
        sim::CompilerConfig ccfg;
        ccfg.seed = opts.seed ^ 0xc2b2ae35ULL;
        d.untruncated =
            sim::compileModel(model, q.layers, env.cfg, ccfg);
    }
    out.rounds = d.untruncated;
    if (opts.workScale < 1.0)
        for (auto &round : out.rounds)
            for (auto &task : round.tasks)
                task.macs = std::max<long>(
                    static_cast<long>(task.macs * opts.workScale),
                    static_cast<long>(env.cfg.macsPerMacroPerPass()));

    // The ISA stages (with scheduling costs, as every workload that
    // lowers compiles them): for the artifact itself when its options
    // ask for them, else for a twin the chip probe executes.
    AimOptions isa_opts = opts;
    isa_opts.useIsa = true;
    isa_opts.isaSchedule = true;
    isa::LowerOptions lopts;
    lopts.emitRetune = opts.useBooster;
    lopts.loadNsPerWord =
        resolvedIsaLoadUsPerMword(isa_opts) * 1000.0 / 1e6;
    lopts.retuneNs = resolvedIsaRetuneUs(isa_opts) * 1000.0;
    std::shared_ptr<isa::Program> program;
    {
        Tracer::Scope s(tr, "isa.lower", id);
        program = std::make_shared<isa::Program>(
            isa::lower(out.rounds, env.cfg, lopts));
        isa::fuseMacShift(*program);
    }
    std::shared_ptr<const isa::Schedule> schedule;
    {
        Tracer::Scope s(tr, "isa.schedule", id);
        schedule = std::make_shared<isa::Schedule>(
            isa::scheduleProgram(*program));
    }
    compile.close();

    d.isaArtifact = out;
    d.isaArtifact.options = isa_opts;
    d.isaArtifact.program = program;
    d.isaArtifact.schedule = schedule;
    if (opts.useIsa) {
        out.program = program;
        out.schedule = schedule;
    }
    d.layers = std::move(q.layers);
    d.layerHr = std::move(q.layerHr);
    return d;
}

/** Request seed @p id of a fleet, as both serving engines derive it. */
uint64_t
requestSeed(uint64_t fleetSeed, long id)
{
    const uint64_t s =
        util::Rng(fleetSeed).fork(static_cast<uint64_t>(id) + 1).next();
    return s != 0 ? s : 1;
}

sim::RunConfig
runConfigWith(const AimOptions &opts, power::IrBackendKind backend)
{
    AimOptions o = opts;
    o.irBackend = backend;
    return runConfigFor(o);
}

/**
 * Chip-executor probe: the first kChipProbeSeeds requests' seeds on
 * every artifact, timed on the round-level Runtime (Analytic) and on
 * the ISA engine (Analytic and Mesh), with the per-round mapper and
 * the per-request toggle estimate they both run timed separately.
 * Also checks that the serving executor's report is the
 * decomposition's bit for bit, and that both engines agree.
 */
void
chipProbe(Tracer &tr, RunResult &res, const Env &env, const Spec &spec,
          const std::vector<Decomposed> &decomposed)
{
    const AimOptions served = servedOptions(env, spec);
    const serve::RequestExecutor executor(env.cfg, env.cal, served);
    const power::VfTable table(env.cal);
    const power::PowerModel pm(env.cal);
    double t_rt = 0, t_ia = 0, t_im = 0, t_map = 0, t_toggle = 0;
    long w_rt = 0, w_ia = 0, w_im = 0, w_served = 0, rounds = 0;
    long executions = 0;
    for (const auto &d : decomposed) {
        const CompiledModel &a = d.isaArtifact;
        const sim::Runtime rt(
            env.cfg, env.cal,
            runConfigWith(a.options, power::IrBackendKind::Analytic));
        const isa::Engine analytic(
            env.cfg, env.cal,
            runConfigWith(a.options, power::IrBackendKind::Analytic));
        const isa::Engine mesh(
            env.cfg, env.cal,
            runConfigWith(a.options, power::IrBackendKind::Mesh));
        const auto objective =
            a.options.mode == booster::BoostMode::Sprint
                ? mapping::Objective::Sprint
                : mapping::Objective::LowPower;
        for (long k = 0; k < kChipProbeSeeds; ++k) {
            const uint64_t seed = requestSeed(spec.stream.fleet.seed, k);
            const auto timed = [&](const char *name, auto &&fn) {
                Tracer::Scope s(tr, name, k);
                const double t0 = hostNow();
                auto r = fn();
                return std::make_pair(std::move(r), hostNow() - t0);
            };
            const auto [r_rt, dt_rt] = timed("sim.runtime_analytic", [&] {
                return rt.run(a.rounds, a.stream, seed);
            });
            const auto [r_ia, dt_ia] = timed("isa.engine_analytic", [&] {
                return analytic.run(*a.program, a.stream, seed, nullptr,
                                    nullptr, a.schedule.get());
            });
            const auto [r_im, dt_im] = timed("isa.engine_mesh", [&] {
                return mesh.run(*a.program, a.stream, seed, nullptr,
                                nullptr, a.schedule.get());
            });
            addProblems(res, checkSameRun(r_rt, r_ia.run,
                                          a.modelName +
                                              " runtime vs ISA engine"));
            t_rt += dt_rt;
            t_ia += dt_ia;
            t_im += dt_im;
            w_rt += r_rt.usefulWindows + r_rt.stallWindows;
            w_ia += r_ia.run.usefulWindows + r_ia.run.stallWindows;
            w_im += r_im.run.usefulWindows + r_im.run.stallWindows;

            // The serving executor on the served artifact, against the
            // decomposition on the same engine and backend.
            const CompiledModel &own = d.artifact;
            const auto er = executor.run(own, seed);
            w_served += er.run.usefulWindows + er.run.stallWindows;
            const sim::RunConfig own_cfg = runConfigFor(served);
            sim::RunReport mine;
            if (served.useIsa)
                mine = isa::Engine(env.cfg, env.cal, own_cfg)
                           .run(*own.program, own.stream, seed, nullptr,
                                nullptr, own.schedule.get())
                           .run;
            else
                mine = sim::Runtime(env.cfg, env.cal, own_cfg)
                           .run(own.rounds, own.stream, seed);
            addProblems(res, checkSameRun(er.run, mine,
                                          a.modelName +
                                              " executor decomposition"));

            // The two per-execution stages the engines share.
            {
                Tracer::Scope s(tr, "pim.toggle", k);
                const double t0 = hostNow();
                pim::estimateToggleStats(a.stream, env.cfg.rows, 200,
                                         seed);
                t_toggle += hostNow() - t0;
            }
            uint64_t round_seed = seed;
            for (const auto &round : a.rounds) {
                ++round_seed;
                if (round.tasks.empty())
                    continue;
                Tracer::Scope s(tr, "mapping.map", k);
                const double t0 = hostNow();
                const mapping::MappingEvaluator eval(
                    env.cfg, table, pm, objective, round_seed);
                mapping::mapWith(a.options.mapper, round.tasks,
                                 env.cfg, eval, round_seed);
                t_map += hostNow() - t0;
                ++rounds;
            }
            ++executions;
        }
    }
    const double shared = t_map + t_toggle;
    res.add("sim.windows_per_req",
            static_cast<double>(w_served) / executions, "count");
    res.add("mapping.map_us_per_round", t_map / rounds * 1e6, "us");
    res.add("pim.toggle_us_per_req", t_toggle / executions * 1e6, "us");
    res.add("power.analytic_us_per_window",
            (t_rt - shared) / w_rt * 1e6, "us");
    res.add("isa.engine_us_per_window", (t_ia - shared) / w_ia * 1e6,
            "us");
    res.add("power.mesh_extra_us_per_window",
            (t_im - shared) / w_im * 1e6 - (t_ia - shared) / w_ia * 1e6,
            "us");
}

/**
 * Serving probe: a kServeProbeRequests prefix of the workload's
 * trace through serve::Fleet at one thread and at the fixed count,
 * and the same requests executed one by one.  At one thread the
 * fleet runs inline, so the thread's CPU time of the serve minus that
 * of the executions is the dispatch work; each side is the minimum of
 * two interleaved measurements.
 */
void
serveProbe(Tracer &tr, RunResult &res, Env &env, const Spec &spec)
{
    serve::TraceConfig tcfg = spec.stream.trace;
    tcfg.requests = kServeProbeRequests;
    const auto trace = serve::generateTrace(tcfg);
    serve::FleetConfig one = spec.stream.fleet;
    one.threads = 1;
    serve::Fleet fleet_one(env.cfg, env.cal, one);
    serve::Fleet fleet_many(env.cfg, env.cal, spec.stream.fleet);
    const AimOptions opts = fleet_one.config().options;
    const serve::RequestExecutor executor(env.cfg, env.cal, opts);

    double cpu_one = 1e300, cpu_exec = 1e300, wall_one = 1e300;
    serve::ServeReport rep_one;
    for (int pass = 0; pass < 2; ++pass) {
        {
            Tracer::Scope s(tr, "serve.fleet_1thread");
            const double w0 = hostNow();
            const double c0 = threadCpuNow();
            rep_one = fleet_one.serve(trace, env.cache);
            cpu_one = std::min(cpu_one, threadCpuNow() - c0);
            wall_one = std::min(wall_one, hostNow() - w0);
        }
        double sum = 0.0;
        for (const auto &r : trace) {
            const auto artifact = env.cache.get(r.model, opts);
            Tracer::Scope s(tr, "serve.execute", r.id);
            const double c0 = threadCpuNow();
            executor.run(*artifact,
                         requestSeed(spec.stream.fleet.seed, r.id));
            sum += threadCpuNow() - c0;
        }
        cpu_exec = std::min(cpu_exec, sum);
    }
    double wall_many = 0.0;
    serve::ServeReport rep_many;
    {
        Tracer::Scope s(tr, "serve.fleet_nthreads");
        const double t0 = hostNow();
        rep_many = fleet_many.serve(trace, env.cache);
        wall_many = hostNow() - t0;
    }
    res.require(digest(rep_one) == digest(rep_many),
                "Fleet report differs between 1 and N threads");

    const long hits_before = env.cache.hits();
    double t_hits = 0.0;
    {
        Tracer::Scope s(tr, "serve.cache_get");
        const double t0 = hostNow();
        for (long i = 0; i < kCacheHitProbes; ++i)
            env.cache.get(spec.models[static_cast<size_t>(i) %
                                      spec.models.size()],
                          opts);
        t_hits = hostNow() - t0;
    }
    res.require(env.cache.hits() - hits_before == kCacheHitProbes,
                "warm-cache probe missed the cache");

    res.add("serve.dispatch_us_per_req",
            (cpu_one - cpu_exec) / static_cast<double>(trace.size()) *
                1e6,
            "us");
    res.add("exec.speedup", wall_one / wall_many, "x");
    res.add("serve.cache_hit_us", t_hits / kCacheHitProbes * 1e6, "us");
}

/** Seed of sampled-service execution @p k of @p model, as
 * stream::EventLoop derives it on a homogeneous fleet: the fleet
 * seed forked by 0x5a3d17, the FNV-1a tag of the model name, k + 1. */
uint64_t
sampleSeed(uint64_t fleetSeed, const std::string &model, long k)
{
    uint64_t tag = 1469598103934665603ULL;
    for (const char ch : model) {
        tag ^= static_cast<unsigned char>(ch);
        tag *= 1099511628211ULL;
    }
    const uint64_t s = util::Rng(fleetSeed)
                           .fork(0x5a3d17)
                           .fork(tag)
                           .fork(static_cast<uint64_t>(k) + 1)
                           .next();
    return s != 0 ? s : 1;
}

/** Host time of the sampled-service executions an EventLoop run
 * makes before it streams: the same K seeded executions per model,
 * on the fixed thread count. */
double
sampleTime(const Env &env, const Spec &spec, const AimOptions &opts,
           const std::vector<Artifact> &artifacts)
{
    const serve::RequestExecutor executor(env.cfg, env.cal, opts);
    exec::ExecPool pool(spec.stream.fleet.threads);
    const long k = spec.stream.serviceSamples;
    const double t0 = hostNow();
    for (const auto &a : artifacts)
        pool.parallelFor(k, [&](long i) {
            executor.run(*a, sampleSeed(spec.stream.fleet.seed,
                                        a->modelName, i));
        });
    return hostNow() - t0;
}

/** The stream-layer probe over one EventLoop run of @p spec. */
void
streamProbe(Tracer &tr, RunResult &res, const Env &env, const Spec &spec,
            const std::vector<Artifact> &artifacts, double loopS,
            const std::vector<double> &latencies)
{
    const long n = spec.horizon();
    double t_source = 0.0;
    {
        Tracer::Scope s(tr, "stream.source");
        stream::TraceSource source(spec.stream.trace);
        const double t0 = hostNow();
        for (long i = 0; i < n; ++i)
            source.next();
        t_source = hostNow() - t0;
    }
    double t_sample = 0.0;
    {
        Tracer::Scope s(tr, "stream.sample");
        t_sample = sampleTime(env, spec, servedOptions(env, spec),
                              artifacts);
    }
    double t_hist = 0.0;
    long records = 0;
    {
        Tracer::Scope s(tr, "stream.histogram");
        stream::LatencyHistogram hist;
        const double t0 = hostNow();
        while (records < kHistogramProbeRecords && !latencies.empty())
            for (const double l : latencies) {
                hist.record(l);
                ++records;
            }
        t_hist = hostNow() - t0;
        res.require(hist.count() == records,
                    "histogram probe lost records");
    }
    res.add("stream.loop_ns_per_req",
            (loopS - t_sample - t_source) / static_cast<double>(n) * 1e9,
            "ns");
    res.add("stream.source_ns_per_req",
            t_source / static_cast<double>(n) * 1e9, "ns");
    res.add("stream.histogram_ns_per_record",
            records > 0 ? t_hist / static_cast<double>(records) * 1e9
                        : 0.0,
            "ns");
    res.add("stream.sample_s", t_sample, "s");
}

/** Compile-layer metrics from the decomposition's spans. */
void
compileMetrics(const Tracer &tr, RunResult &res,
               const std::vector<Decomposed> &decomposed)
{
    long weights = 0, tasks = 0, instructions = 0;
    for (const auto &d : decomposed) {
        weights += d.qatWeights;
        for (const auto &r : d.artifact.rounds)
            tasks += static_cast<long>(r.tasks.size());
        instructions +=
            static_cast<long>(d.isaArtifact.program->code.size());
    }
    const double qat = tr.total("quant.qat");
    res.add("quant.qat_s", qat, "s");
    res.add("quant.qat_mweights_per_s",
            qat > 0.0 ? weights / qat / 1e6 : 0.0, "Mweight/s");
    res.add("quant.baseline_s", tr.total("quant.baseline"), "s");
    res.add("quant.wds_s", tr.total("quant.wds"), "s");
    res.add("workload.synth_s", tr.total("workload.synth"), "s");
    res.add("workload.synth_calls",
            static_cast<double>(tr.count("workload.synth")), "count");
    res.add("workload.accuracy_s", tr.total("workload.accuracy"), "s");
    res.add("sim.tile_s", tr.total("sim.tile"), "s");
    res.add("sim.tasks", static_cast<double>(tasks), "count");
    res.add("isa.lower_s", tr.total("isa.lower"), "s");
    res.add("isa.schedule_s", tr.total("isa.schedule"), "s");
    res.add("isa.instructions", static_cast<double>(instructions),
            "count");
    res.add("aim.compile_self_s", tr.self("aim.compile"), "s");
}

/** Simulated serving counters shared by both engines' reports. */
template <typename Report>
void
servingCounters(RunResult &res, const Report &rep)
{
    double switches = 0, reload = 0, retune = 0;
    for (const auto &c : rep.chips) {
        switches += static_cast<double>(c.modelSwitches);
        reload += c.reloadUs;
        retune += c.retuneUs;
    }
    res.add("serve.model_switches", switches, "count");
    res.add("serve.reload_us", reload, "us");
    res.add("serve.retune_us", retune, "us");
    res.add("serve.overlap_saved_us", rep.reloadOverlapSavedUs, "us");
    res.add("isa.schedule_saved_us", rep.scheduleSavedUs, "us");
    res.add("serve.cache_misses", static_cast<double>(rep.cacheMisses),
            "count");
}

void
controlCounters(RunResult &res, long ups, long downs, long batched,
                long queueMax, double rssGrowth)
{
    res.add("stream.scale_ups", static_cast<double>(ups), "count");
    res.add("stream.scale_downs", static_cast<double>(downs), "count");
    res.add("stream.batched", static_cast<double>(batched), "count");
    res.add("stream.queue_depth_max", static_cast<double>(queueMax),
            "count");
    res.add("stream.rss_growth_mib", rssGrowth, "MiB");
}

/**
 * The traced set-up shared by the three workloads: decompose the
 * compile of every model under spans, compile the same models
 * through the pipeline (ModelCache), and check the decomposition
 * reproduces the pipeline's artifacts.  Returns the decompositions
 * and fills @p artifacts with the cached ones.
 */
std::vector<Decomposed>
tracedSetup(Tracer &tr, RunResult &res, Env &env, const Spec &spec,
            std::vector<Artifact> &artifacts)
{
    const AimOptions opts = servedOptions(env, spec);
    std::vector<Decomposed> out;
    for (size_t i = 0; i < spec.models.size(); ++i)
        out.push_back(tracedCompile(tr, env,
                                    workload::modelByName(spec.models[i]),
                                    opts, static_cast<long>(i)));
    compileAll(env, spec, artifacts);
    for (size_t i = 0; i < out.size(); ++i) {
        addProblems(res, checkSameArtifact(out[i].artifact,
                                           *artifacts[i]));
        addProblems(res, checkPopcountHr(out[i].layers,
                                         out[i].layerHr,
                                         artifacts[i]->hrAverage));
    }
    return out;
}

void
writeSpans(const Tracer &tr, const RunArgs &args)
{
    const std::string path = args.outDir + "/spans_" + args.workload +
                             "_" + std::to_string(args.seed) + ".csv";
    if (tr.write(path))
        std::printf("spans written to %s\n", path.c_str());
    else
        std::fprintf(stderr, "could not write %s\n", path.c_str());
}

// ------------------------------------------------------- compile_lhr

/** One compile_lhr round: compile from an empty cache, check and
 * execute every artifact, stream the short trace over them. */
struct CompileRound
{
    double compileS = 0.0;
    double serveS = 0.0;
    long attempted = 0;
    long failed = 0;
    uint64_t digest = 0;
    ArtifactFigures figures;
    stream::StreamReport serve;
};

} // namespace

RunResult
runCompileLhr(const RunArgs &args)
{
    RunResult res;
    Env env;
    const Spec spec = compileLhrSpec(args.seed);
    const long floor_macs =
        static_cast<long>(env.cfg.macsPerMacroPerPass());

    // Shape-only references, computed once: the untruncated tiling
    // of every model and whether it conserves the layer MACs.
    std::vector<std::vector<sim::Round>> tilings;
    std::vector<Problems> conservation;
    for (const auto &m : spec.models) {
        const auto model = workload::modelByName(m);
        tilings.push_back(untruncatedTiling(env, model, spec.options));
        conservation.push_back(
            checkMacConservation(model, tilings.back()));
    }
    std::map<std::string, long> picks =
        countPicks(spec.stream.trace, spec.horizon());
    bool reported_failures = false;

    // compile = false reuses the artifacts already in the cache (the
    // traced run compiled them through its decomposition's twin).
    std::vector<double> best_compile;
    const auto round = [&](std::vector<Artifact> &artifacts,
                           bool compile) {
        CompileRound r;
        if (compile) {
            env.cache.clear();
            r.compileS =
                compileAll(env, spec, artifacts, &best_compile);
        }
        std::vector<Problems> per_artifact;
        r.figures = executeOnce(env, artifacts, per_artifact);
        for (size_t i = 0; i < artifacts.size(); ++i) {
            Problems p = conservation[i];
            const Problems scaled =
                checkScaledTiling(tilings[i], *artifacts[i], floor_macs);
            p.insert(p.end(), scaled.begin(), scaled.end());
            p.insert(p.end(), per_artifact[i].begin(),
                     per_artifact[i].end());
            ++r.attempted;
            if (!p.empty()) {
                ++r.failed;
                if (!reported_failures)
                    for (const auto &line : p)
                        std::printf("compile failed: %s\n", line.c_str());
            }
        }
        reported_failures = true;
        stream::EventLoop loop(env.cfg, env.cal, spec.stream);
        const double t0 = hostNow();
        r.serve = loop.run(env.cache);
        r.serveS = hostNow() - t0;
        long failed_arrivals = 0;
        addProblems(res, checkStream(r.serve, spec.horizon(),
                                     expectedMacs(picks, byModel(artifacts),
                                                  spec.options.workScale),
                                     false, &failed_arrivals));
        r.attempted += spec.horizon();
        r.failed += failed_arrivals;
        r.digest = digest(artifacts, r.figures.reports) ^ digest(r.serve);
        return r;
    };

    std::vector<Artifact> artifacts;
    if (args.trace) {
        Tracer tr;
        const double rss0 = peakRssMib();
        const auto decomposed =
            tracedSetup(tr, res, env, spec, artifacts);
        const CompileRound r = round(artifacts, false);
        res.attempted += r.attempted;
        res.failed += r.failed;
        compileMetrics(tr, res, decomposed);
        chipProbe(tr, res, env, spec, decomposed);
        serveProbe(tr, res, env, spec);
        servingCounters(res, r.serve);
        streamProbe(tr, res, env, spec, artifacts, r.serveS,
                    r.serve.latencyUs);
        std::vector<double> arrivals;
        countPicks(spec.stream.trace, spec.horizon(), &arrivals);
        controlCounters(res, r.serve.scaleUps, r.serve.scaleDowns,
                        r.serve.batchedRequests,
                        maxQueueDepth(arrivals, r.serve.queueUs),
                        peakRssMib() - rss0);
        std::printf("report digest %016llx\n",
                    static_cast<unsigned long long>(r.digest));
        writeSpans(tr, args);
        return res;
    }

    // Set-up: the first round, from process start to a warm cache.
    const double t_first = hostNow();
    const CompileRound first = round(artifacts, true);
    const double setup_s = t_first - args.startS + first.compileS;
    res.attempted += first.attempted;
    res.failed += first.failed;

    // Every round streams the same trace over bit-identical artifacts,
    // so the set-up round's stream counts towards the throughput too.
    int rounds = 1;
    double serve_s = first.serveS;
    long served = first.serve.requests;
    const double t_begin = hostNow();
    do {
        const CompileRound r = round(artifacts, true);
        ++rounds;
        res.attempted += r.attempted;
        res.failed += r.failed;
        serve_s += r.serveS;
        served += r.serve.requests;
        res.require(r.digest == first.digest,
                    "a recompile or re-serve differs from the first");
    } while (hostNow() - t_begin < args.seconds);
    const double rss = peakRssMib();
    std::printf("compile rounds %d, report digest %016llx\n", rounds,
                static_cast<unsigned long long>(first.digest));
    addEndToEnd(res, sum(best_compile), setup_s, served / serve_s,
                rss, tailOf(first.serve.latencyUs),
                first.serve.sloViolations, first.figures);
    return res;
}

// --------------------------------------------------- replay_mesh_isa

RunResult
runReplayMeshIsa(const RunArgs &args)
{
    RunResult res;
    Env env;
    const Spec spec = replaySpec(args.seed);
    std::vector<Artifact> artifacts;

    if (args.trace) {
        Tracer tr;
        const auto decomposed =
            tracedSetup(tr, res, env, spec, artifacts);
        std::vector<Problems> per_artifact;
        executeOnce(env, artifacts, per_artifact);
        for (const auto &p : per_artifact)
            addProblems(res, p);
        const auto trace = serve::generateTrace(spec.stream.trace);
        serve::Fleet fleet(env.cfg, env.cal, spec.stream.fleet);
        const double rss0 = peakRssMib();
        serve::ServeReport rep;
        {
            Tracer::Scope s(tr, "serve.replay");
            rep = fleet.serve(trace, env.cache);
        }
        const double rss_growth = peakRssMib() - rss0;
        std::map<std::string, long> picks;
        std::vector<double> arrivals;
        for (const auto &r : trace) {
            ++picks[r.model];
            arrivals.push_back(r.arrivalUs);
        }
        long failed = 0;
        addProblems(res, checkReplay(rep, spec.horizon(),
                                     expectedMacs(picks, byModel(artifacts),
                                                  spec.options.workScale),
                                     &failed));
        res.attempted += spec.horizon();
        res.failed += failed;

        compileMetrics(tr, res, decomposed);
        chipProbe(tr, res, env, spec, decomposed);
        serveProbe(tr, res, env, spec);
        servingCounters(res, rep);
        // The event loop over the replay's fleet and arrival process,
        // with sampled service so the loop, not the chip, is timed.
        Spec probe = spec;
        probe.stream.trace.requests = 100'000;
        probe.stream.serviceSamples = 4;
        stream::StreamReport srep;
        double loop_s = 0.0;
        {
            Tracer::Scope s(tr, "stream.loop");
            stream::EventLoop loop(env.cfg, env.cal, probe.stream);
            const double t0 = hostNow();
            srep = loop.run(env.cache);
            loop_s = hostNow() - t0;
        }
        streamProbe(tr, res, env, probe, artifacts, loop_s,
                    srep.latencyUs);
        controlCounters(res, 0, 0, 0, maxQueueDepth(arrivals, rep.queueUs),
                        rss_growth);
        std::printf("report digest %016llx\n",
                    static_cast<unsigned long long>(digest(rep)));
        writeSpans(tr, args);
        return res;
    }

    // A set-up: from an empty cache to the compiled models and the
    // trace (the first one from process start).
    std::vector<double> setup_times, best_compile;
    std::vector<serve::Request> trace;
    const auto set_up = [&] {
        const double t0 = setup_times.empty() ? args.startS : hostNow();
        env.cache.clear();
        compileAll(env, spec, artifacts, &best_compile);
        trace = serve::generateTrace(spec.stream.trace);
        setup_times.push_back(hostNow() - t0);
    };
    for (int rep = 0; rep + 1 < kSetupReps; ++rep)
        set_up();
    serve::Fleet fleet(env.cfg, env.cal, spec.stream.fleet);
    std::vector<Problems> per_artifact;
    const ArtifactFigures fig = executeOnce(env, artifacts, per_artifact);
    for (const auto &p : per_artifact)
        addProblems(res, p);
    std::map<std::string, long> picks;
    for (const auto &r : trace)
        ++picks[r.model];
    const double want_macs = expectedMacs(picks, byModel(artifacts),
                                          spec.options.workScale);

    serve::ServeReport first;
    uint64_t first_digest = 0;
    double serve_s = 0.0;
    long served = 0;
    int passes = 0;
    do {
        const double t0 = hostNow();
        serve::ServeReport rep = fleet.serve(trace, env.cache);
        serve_s += hostNow() - t0;
        served += rep.requests;
        long failed = 0;
        addProblems(res, checkReplay(rep, spec.horizon(), want_macs,
                                     &failed));
        res.attempted += spec.horizon();
        res.failed += failed;
        if (passes++ == 0) {
            first_digest = digest(rep);
            first = std::move(rep);
        } else {
            res.require(digest(rep) == first_digest,
                        "a re-served trace differs from the first");
        }
    } while (passes < 2 || serve_s < args.seconds);
    const double rss = peakRssMib();
    const uint64_t compiled = digest(artifacts, {});
    set_up();
    res.require(digest(artifacts, {}) == compiled,
                "a recompile differs from the set-up's artifacts");
    std::printf("replay passes %d, report digest %016llx\n", passes,
                static_cast<unsigned long long>(first_digest));
    addEndToEnd(res, sum(best_compile), median(setup_times),
                served / serve_s, rss, tailOf(first.latencyUs),
                first.sloViolations, fig);
    return res;
}

// -------------------------------------------------------- stream_day

RunResult
runStreamDay(const RunArgs &args)
{
    RunResult res;
    Env env;
    const Spec spec = streamDaySpec(args.seed);
    std::vector<Artifact> artifacts;
    stream::StreamConfig exact_cfg = spec.stream;
    exact_cfg.histogramLatency = false;

    // Checks shared by the traced and untraced runs: the digest run
    // against an exact-latency run of the same stream.
    std::vector<double> arrivals;
    const auto check = [&](const stream::StreamReport &rep,
                           const stream::StreamReport &exact) {
        const auto picks =
            countPicks(spec.stream.trace, spec.horizon(), &arrivals);
        const double want = expectedMacs(picks, byModel(artifacts),
                                         spec.options.workScale);
        long failed = 0;
        addProblems(res, checkStream(rep, spec.horizon(), want, true,
                                     &failed));
        res.attempted += spec.horizon();
        res.failed += failed;
        long ignored = 0;
        addProblems(res, checkStream(exact, spec.horizon(), want, true,
                                     &ignored));
        addProblems(res, checkDigest(rep, exact));
    };

    if (args.trace) {
        Tracer tr;
        const auto decomposed =
            tracedSetup(tr, res, env, spec, artifacts);
        std::vector<Problems> per_artifact;
        executeOnce(env, artifacts, per_artifact);
        for (const auto &p : per_artifact)
            addProblems(res, p);
        const double rss0 = peakRssMib();
        stream::StreamReport rep;
        double loop_s = 0.0;
        {
            Tracer::Scope s(tr, "stream.loop");
            stream::EventLoop loop(env.cfg, env.cal, spec.stream);
            const double t0 = hostNow();
            rep = loop.run(env.cache);
            loop_s = hostNow() - t0;
        }
        const double rss_growth = peakRssMib() - rss0;
        const auto exact =
            stream::EventLoop(env.cfg, env.cal, exact_cfg).run(env.cache);
        check(rep, exact);

        compileMetrics(tr, res, decomposed);
        chipProbe(tr, res, env, spec, decomposed);
        serveProbe(tr, res, env, spec);
        servingCounters(res, rep);
        streamProbe(tr, res, env, spec, artifacts, loop_s,
                    exact.latencyUs);
        controlCounters(res, rep.scaleUps, rep.scaleDowns,
                        rep.batchedRequests,
                        maxQueueDepth(arrivals, exact.queueUs),
                        rss_growth);
        std::printf("report digest %016llx\n",
                    static_cast<unsigned long long>(digest(rep)));
        writeSpans(tr, args);
        return res;
    }

    // A set-up: from an empty cache to the compiled models (the
    // first one from process start).
    std::vector<double> setup_times, best_compile;
    const auto set_up = [&] {
        const double t0 = setup_times.empty() ? args.startS : hostNow();
        env.cache.clear();
        compileAll(env, spec, artifacts, &best_compile);
        setup_times.push_back(hostNow() - t0);
    };
    for (int rep = 0; rep + 1 < kSetupReps; ++rep)
        set_up();
    std::vector<Problems> per_artifact;
    const ArtifactFigures fig = executeOnce(env, artifacts, per_artifact);
    for (const auto &p : per_artifact)
        addProblems(res, p);

    stream::StreamReport first;
    uint64_t first_digest = 0;
    double loop_s = 0.0;
    long served = 0;
    int passes = 0;
    do {
        stream::EventLoop loop(env.cfg, env.cal, spec.stream);
        const double t0 = hostNow();
        stream::StreamReport rep = loop.run(env.cache);
        loop_s += hostNow() - t0;
        served += rep.requests;
        if (passes++ == 0) {
            first_digest = digest(rep);
            first = std::move(rep);
        } else {
            res.require(digest(rep) == first_digest,
                        "a re-streamed day differs from the first");
            res.attempted += spec.horizon();
            res.failed += std::max(spec.horizon() - rep.requests, 0L);
        }
    } while (passes < 2 || loop_s < args.seconds);
    const double rss = peakRssMib();
    const uint64_t compiled = digest(artifacts, {});
    set_up();
    res.require(digest(artifacts, {}) == compiled,
                "a recompile differs from the set-up's artifacts");

    const auto exact =
        stream::EventLoop(env.cfg, env.cal, exact_cfg).run(env.cache);
    check(first, exact);
    std::printf("stream passes %d, report digest %016llx\n", passes,
                static_cast<unsigned long long>(first_digest));
    addEndToEnd(res, sum(best_compile), median(setup_times),
                served / loop_s, rss, tailOf(exact.latencyUs),
                first.sloViolations, fig);
    return res;
}

// --------------------------------------------------------- reference

void
printReference()
{
    // Every figure is the minimum over kReps interleaved repetitions:
    // the host's slow phases only ever add time.
    constexpr int kReps = 3;
    Env env;
    std::printf("LHR compile, default AimOptions (host s, best of %d)\n",
                kReps);
    for (const char *m : {"ResNet18", "MobileNetV2", "GPT2"}) {
        const auto model = workload::modelByName(m);
        double best = 1e300;
        for (int rep = 0; rep < kReps; ++rep) {
            const double t0 = hostNow();
            env.pipeline.compile(model, AimOptions{});
            best = std::min(best, hostNow() - t0);
        }
        std::printf("  %-12s %8.2f\n", m, best);
    }

    // Host cost per window of one ResNet18 artifact on every engine and
    // droop backend, with the per-round mapper and the per-request
    // toggle estimate (which all of them run) timed apart.
    AimOptions opts;
    opts.useIsa = true;
    const CompiledModel a =
        env.pipeline.compile(workload::modelByName("ResNet18"), opts);
    const power::VfTable table(env.cal);
    const power::PowerModel pm(env.cal);
    const auto shared = [&] {
        for (long k = 0; k < kChipProbeSeeds; ++k) {
            const uint64_t seed = requestSeed(99, k);
            pim::estimateToggleStats(a.stream, env.cfg.rows, 200, seed);
            uint64_t round_seed = seed;
            for (const auto &round : a.rounds) {
                ++round_seed;
                const mapping::MappingEvaluator eval(
                    env.cfg, table, pm, mapping::Objective::Sprint,
                    round_seed);
                mapping::mapWith(opts.mapper, round.tasks, env.cfg, eval,
                                 round_seed);
            }
        }
        return sim::RunReport{};
    };
    const sim::Runtime runtime(
        env.cfg, env.cal,
        runConfigWith(opts, power::IrBackendKind::Analytic));
    std::vector<std::unique_ptr<const isa::Engine>> engines;
    struct Row
    {
        std::string name;
        std::function<sim::RunReport(uint64_t)> run;
        double best = 1e300;
        long windows = 0;
    };
    std::vector<Row> rows;
    rows.push_back({"sim::Runtime / analytic", [&](uint64_t s) {
                        return runtime.run(a.rounds, a.stream, s);
                    }});
    for (const auto kind :
         {power::IrBackendKind::Analytic, power::IrBackendKind::Mesh,
          power::IrBackendKind::Transient}) {
        engines.push_back(std::make_unique<const isa::Engine>(
            env.cfg, env.cal, runConfigWith(opts, kind)));
        const isa::Engine &engine = *engines.back();
        rows.push_back(
            {std::string("isa::Engine / ") + power::irBackendName(kind),
             [&a, &engine](uint64_t s) {
                 return engine.run(*a.program, a.stream, s).run;
             }});
    }
    double best_shared = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
        double t0 = hostNow();
        shared();
        best_shared = std::min(best_shared, hostNow() - t0);
        for (auto &row : rows) {
            row.windows = 0;
            t0 = hostNow();
            for (long k = 0; k < kChipProbeSeeds; ++k) {
                const sim::RunReport r = row.run(requestSeed(99, k));
                row.windows += r.usefulWindows + r.stallWindows;
            }
            row.best = std::min(row.best, hostNow() - t0);
        }
    }
    std::printf("\nResNet18, %d request seeds, best of %d: mapper + "
                "toggle estimate %.3f s\n  %-26s %10s %12s %14s\n",
                kChipProbeSeeds, kReps, best_shared, "engine / backend",
                "windows", "us/window", "w/o map+toggle");
    for (const auto &row : rows)
        std::printf("  %-26s %10ld %12.3f %14.3f\n", row.name.c_str(),
                    row.windows, row.best / row.windows * 1e6,
                    (row.best - best_shared) / row.windows * 1e6);
    std::printf("\nISA engine / round-level Runtime host time on the same "
                "artifact (Analytic): %.3f\n",
                rows[1].best / rows[0].best);
}

} // namespace aimbench
