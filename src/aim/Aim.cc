#include "aim/Aim.hh"

#include <algorithm>
#include <cmath>

#include "isa/Engine.hh"
#include "isa/Lower.hh"
#include "isa/Schedule.hh"
#include "quant/Wds.hh"
#include "sim/Compiler.hh"
#include "util/Logging.hh"
#include "workload/WeightSynth.hh"

namespace aim
{

AimOptions
AimOptions::dvfsBaseline()
{
    AimOptions o;
    o.useLhr = false;
    o.useWds = false;
    o.useBooster = false;
    o.mapper = mapping::MapperKind::Sequential;
    return o;
}

std::string
validateOptions(const AimOptions &opts)
{
    if (opts.bits < 2 || opts.bits > 16)
        return util::detail::concat(
            "bits must be in [2, 16], got ", opts.bits);
    if (opts.useWds) {
        if (opts.wdsDelta <= 0 ||
            (opts.wdsDelta & (opts.wdsDelta - 1)) != 0)
            return util::detail::concat(
                "wdsDelta must be a positive power of two (the shift "
                "compensator multiplies by bit-shifting), got ",
                opts.wdsDelta);
        if (opts.wdsDelta >= (1 << (opts.bits - 1)))
            return util::detail::concat(
                "wdsDelta ", opts.wdsDelta,
                " overflows the signed INT", opts.bits,
                " range; maximum is ", (1 << (opts.bits - 1)) / 2);
    }
    if (!(opts.workScale > 0.0) || opts.workScale > 1.0)
        return util::detail::concat(
            "workScale must be in (0, 1], got ", opts.workScale);
    if (opts.useLhr && opts.lambda < 0.0)
        return util::detail::concat(
            "lambda must be non-negative, got ", opts.lambda);
    if (opts.useBooster && opts.beta < 1)
        return util::detail::concat(
            "beta must be at least 1 (Algorithm-2 window), got ",
            opts.beta);
    if (opts.irBackend != power::IrBackendKind::Analytic &&
        opts.irBackend != power::IrBackendKind::Mesh &&
        opts.irBackend != power::IrBackendKind::Transient)
        return util::detail::concat(
            "irBackend must be Analytic, Mesh or Transient, got ",
            static_cast<int>(opts.irBackend));
    if (opts.irBackend == power::IrBackendKind::Transient) {
        if (!(opts.transientDecapNf > 0.0))
            return util::detail::concat(
                "transientDecapNf must be positive (the transient "
                "backend integrates an RC mesh), got ",
                opts.transientDecapNf);
        if (opts.transientDtNs < 0.0)
            return util::detail::concat(
                "transientDtNs must be non-negative (the "
                "implicit-Euler window step; 0 derives the step from "
                "the group frequency), got ",
                opts.transientDtNs);
    }
    if (opts.isaSchedule && !opts.useIsa)
        return "isaSchedule requires useIsa (the scheduler "
               "reorders the lowered instruction program)";
    // Negative isaLoadUsPerMword / isaRetuneUs are the "derive from
    // the serving layer" sentinel, not an error: compiles resolve
    // them through resolvedIsa*() and the serving engines overwrite
    // them with their FleetConfig reload/retune calibration.
    return {};
}

double
resolvedIsaLoadUsPerMword(const AimOptions &opts)
{
    return opts.isaLoadUsPerMword >= 0.0 ? opts.isaLoadUsPerMword
                                         : kDefaultIsaLoadUsPerMword;
}

double
resolvedIsaRetuneUs(const AimOptions &opts)
{
    return opts.isaRetuneUs >= 0.0 ? opts.isaRetuneUs
                                   : kDefaultIsaRetuneUs;
}

sim::RunConfig
runConfigFor(const AimOptions &opts)
{
    sim::RunConfig rcfg;
    rcfg.useBooster = opts.useBooster;
    rcfg.boost.beta = opts.beta;
    rcfg.boost.mode = opts.mode;
    rcfg.boost.aggressiveAdjustment = opts.aggressiveAdjustment;
    rcfg.mapper = opts.mapper;
    rcfg.irBackend = opts.irBackend;
    rcfg.transientDecapNf = opts.transientDecapNf;
    rcfg.transientDtNs = opts.transientDtNs;
    rcfg.seed = opts.seed ^ 0x9e3779b9ULL;
    return rcfg;
}

namespace
{

/** aim_fatal on invalid options, quoting the offending value. */
void
checkOptions(const AimOptions &opts)
{
    const std::string problem = validateOptions(opts);
    if (!problem.empty())
        aim_fatal("invalid AimOptions: ", problem);
}

/** The model's pretrained weights, synthesized under opts.seed. */
std::vector<quant::FloatLayer>
synthesize(const workload::ModelSpec &model, const AimOptions &opts)
{
    workload::SynthConfig synth;
    synth.seed = opts.seed;
    return workload::synthesizeWeights(model, synth);
}

/** The offline passes over synthesized weights: QAT (or baseline
 * quantization), then WDS. */
AimPipeline::OfflineResult
offlinePasses(std::vector<quant::FloatLayer> layers,
              const AimOptions &opts)
{
    AimPipeline::OfflineResult out;
    out.floatLayers = std::move(layers);

    if (opts.useLhr) {
        quant::QatConfig qcfg;
        qcfg.bits = opts.bits;
        qcfg.lambda = opts.lambda;
        qcfg.seed = opts.seed ^ 0x5bd1e995ULL;
        out.quantized = quant::QatTrainer(qcfg).run(out.floatLayers);
    } else {
        out.quantized =
            quant::quantizeBaseline(out.floatLayers, opts.bits);
    }

    if (opts.useWds) {
        size_t clamped = 0;
        size_t total = 0;
        for (auto &layer : out.quantized.layers) {
            const auto stats =
                quant::applyWds(layer, opts.wdsDelta);
            clamped += stats.clamped;
            total += stats.total;
        }
        // Refresh per-layer HR after the shift.
        for (size_t i = 0; i < out.quantized.layers.size(); ++i)
            out.quantized.layerHr[i] = out.quantized.layers[i].hr();
        out.wdsClampedFraction =
            total > 0 ? static_cast<double>(clamped) / total : 0.0;
    }
    return out;
}

} // namespace

double
CompiledModel::scaledMacs() const
{
    double macs = 0.0;
    for (const auto &round : rounds)
        for (const auto &task : round.tasks)
            macs += static_cast<double>(task.macs);
    return macs;
}

AimPipeline::AimPipeline(const pim::PimConfig &cfg,
                         const power::Calibration &cal)
    : cfg(cfg), cal(cal)
{
}

AimPipeline::OfflineResult
AimPipeline::runOffline(const workload::ModelSpec &model,
                        const AimOptions &opts) const
{
    checkOptions(opts);
    return offlinePasses(synthesize(model, opts), opts);
}

CompiledModel
AimPipeline::compile(const workload::ModelSpec &model,
                     const AimOptions &opts) const
{
    checkOptions(opts);
    CompiledModel out;
    out.modelName = model.name;
    out.options = opts;
    out.stream = model.stream;

    // One synthesis of the pretrained weights feeds both the
    // reference baseline HR and the offline software passes; the
    // baseline quantizes a copy taken before QAT adjusts them.
    std::vector<quant::FloatLayer> layers = synthesize(model, opts);
    {
        auto base_layers = layers;
        const auto base =
            quant::quantizeBaseline(base_layers, opts.bits);
        out.baselineHrAverage = base.hrAverage();
        out.baselineHrMax = base.hrMax();
    }
    OfflineResult offline = offlinePasses(std::move(layers), opts);
    out.hrAverage = offline.quantized.hrAverage();
    out.hrMax = offline.quantized.hrMax();
    out.wdsClampedFraction = offline.wdsClampedFraction;

    // Accuracy proxy (runtime-independent, so owned by the artifact).
    workload::AccuracyExtras extras;
    extras.wdsClampedFraction = offline.wdsClampedFraction;
    out.accuracy = workload::evaluateAccuracy(
        model, offline.quantized, offline.floatLayers, extras);

    // Tile into rounds and scale to the simulated work fraction.
    sim::CompilerConfig ccfg;
    ccfg.seed = opts.seed ^ 0xc2b2ae35ULL;
    out.rounds =
        sim::compileModel(model, offline.quantized.layers, cfg, ccfg);
    if (opts.workScale < 1.0) {
        for (auto &round : out.rounds)
            for (auto &task : round.tasks)
                task.macs = std::max<long>(
                    static_cast<long>(task.macs * opts.workScale),
                    static_cast<long>(cfg.macsPerMacroPerPass()));
    }

    // ISA path: lower the (already scaled) rounds to the instruction
    // Program the engine executes, with the fusion peephole applied.
    // RETUNE only exists where a booster would actually retune.
    if (opts.useIsa) {
        isa::LowerOptions lopts;
        lopts.emitRetune = opts.useBooster;
        if (opts.isaSchedule) {
            // us per Mword -> ns per word: the per-Set share of the
            // serving layer's reload/retune charges at instruction
            // grain.
            lopts.loadNsPerWord =
                resolvedIsaLoadUsPerMword(opts) * 1000.0 / 1e6;
            lopts.retuneNs = resolvedIsaRetuneUs(opts) * 1000.0;
        }
        auto program = std::make_shared<isa::Program>(
            isa::lower(out.rounds, cfg, lopts));
        isa::fuseMacShift(*program);
        if (opts.isaSchedule)
            out.schedule = std::make_shared<isa::Schedule>(
                isa::scheduleProgram(*program));
        out.program = std::move(program);
    }
    return out;
}

AimReport
AimPipeline::execute(const CompiledModel &compiled,
                     uint64_t runtime_seed,
                     isa::TraceSink *trace) const
{
    const AimOptions &opts = compiled.options;
    AimReport rep;
    rep.hrAverage = compiled.hrAverage;
    rep.hrMax = compiled.hrMax;
    rep.baselineHrAverage = compiled.baselineHrAverage;
    rep.baselineHrMax = compiled.baselineHrMax;
    rep.wdsClampedFraction = compiled.wdsClampedFraction;
    rep.accuracy = compiled.accuracy;

    sim::RunConfig rcfg = runConfigFor(opts);
    if (runtime_seed != 0)
        rcfg.seed = runtime_seed;
    if (opts.useIsa) {
        aim_assert(compiled.program,
                   "useIsa artifact of ", compiled.modelName,
                   " carries no lowered program");
        isa::Engine engine(cfg, cal, rcfg);
        const isa::EngineReport er = engine.run(
            *compiled.program, compiled.stream, rcfg.seed, nullptr,
            trace, compiled.schedule.get());
        rep.run = er.run;
        rep.isaInstructions = er.decoded;
        rep.isaFusedMacs = er.fusedMacs;
        rep.isaTailIdleNs = er.tailIdleNs;
        rep.isaInOrderMakespanNs = er.inOrderMakespanNs;
        rep.isaScheduledMakespanNs = er.scheduledMakespanNs;
        rep.isaScheduleSavedNs = er.scheduleSavedNs;
    } else {
        sim::Runtime runtime(cfg, cal, rcfg);
        rep.run = runtime.run(compiled.rounds, compiled.stream);
    }

    const power::IrModel ir(cal);
    rep.irMitigationVsSignoff =
        1.0 - rep.run.irWorstMv / ir.signoffWorstMv();
    rep.efficiencyGain =
        rep.run.macroPowerMw > 0.0
            ? cal.macroPowerBaselineMw / rep.run.macroPowerMw
            : 0.0;
    return rep;
}

AimReport
AimPipeline::run(const workload::ModelSpec &model,
                 const AimOptions &opts) const
{
    return execute(compile(model, opts));
}

} // namespace aim
