/**
 * @file
 * Shared helpers for the per-figure/table benchmark binaries.  Each
 * binary regenerates one table or figure of the paper's evaluation
 * and prints the corresponding rows; docs/REPRODUCE.md indexes the
 * binaries by figure/table, with the command and expected headline
 * of each.
 */

#ifndef AIM_BENCH_BENCHCOMMON_HH
#define AIM_BENCH_BENCHCOMMON_HH

#include <cstdio>
#include <string>
#include <vector>

#include "aim/Aim.hh"
#include "quant/QatTrainer.hh"
#include "util/Table.hh"
#include "workload/WeightSynth.hh"

namespace aim::bench
{

/** Default synthesis config for bench runs (smaller layer samples). */
inline workload::SynthConfig
benchSynth()
{
    workload::SynthConfig cfg;
    cfg.maxElementsPerLayer = 8192;
    return cfg;
}

/** Synthesize + baseline-quantize a model. */
inline quant::QatResult
baselineQuant(const workload::ModelSpec &model,
              std::vector<quant::FloatLayer> *layers_out = nullptr)
{
    auto layers = workload::synthesizeWeights(model, benchSynth());
    auto res = quant::quantizeBaseline(layers, 8);
    if (layers_out)
        *layers_out = std::move(layers);
    return res;
}

/** Synthesize + LHR-quantize a model. */
inline quant::QatResult
lhrQuant(const workload::ModelSpec &model,
         std::vector<quant::FloatLayer> *layers_out = nullptr,
         double lambda = 2.0)
{
    auto layers = workload::synthesizeWeights(model, benchSynth());
    quant::QatConfig cfg;
    cfg.lambda = lambda;
    auto res = quant::QatTrainer(cfg).run(layers);
    if (layers_out)
        *layers_out = std::move(layers);
    return res;
}

/** Print a one-line banner for the experiment. */
inline void
banner(const char *id, const char *what)
{
    std::printf("=== %s: %s ===\n", id, what);
}

/**
 * Uniform synthetic round: @p tasks conv tiles of @p macs MACs at a
 * fixed HR, four tiles per Set.  16 tasks occupy a quarter of the
 * default 64-macro chip, 64 fill it -- the two occupancy points the
 * droop-backend benches sweep.
 */
inline sim::Round
syntheticRound(double hr, int tasks, long macs)
{
    sim::Round r;
    for (int i = 0; i < tasks; ++i) {
        mapping::Task t;
        t.layerName = "sweep";
        t.setId = i / 4;
        t.hr = hr;
        t.macs = macs;
        r.tasks.push_back(t);
    }
    return r;
}

} // namespace aim::bench

#endif // AIM_BENCH_BENCHCOMMON_HH
