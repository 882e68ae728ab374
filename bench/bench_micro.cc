/**
 * @file
 * Google-benchmark microbenchmarks of the hot simulator kernels:
 * the bit-serial MAC + Rtog engine, the HR kernel, the LHR gradient,
 * the PDN mesh solve, the annealing mapper, and the ISA front end
 * (lowering, scoreboard issue walk, list scheduling).
 */

#include <benchmark/benchmark.h>

#include "BenchCommon.hh"
#include "isa/Lower.hh"
#include "isa/Schedule.hh"
#include "isa/Scoreboard.hh"
#include "mapping/Mappers.hh"
#include "pim/Macro.hh"
#include "power/PdnMesh.hh"
#include "quant/Hamming.hh"
#include "quant/Lhr.hh"
#include "sim/Runtime.hh"
#include "util/Rng.hh"

using namespace aim;

namespace
{

void
BM_BitSerialMacroPass(benchmark::State &state)
{
    pim::PimConfig cfg;
    cfg.rows = static_cast<int>(state.range(0));
    cfg.banks = 32;
    pim::Macro macro(cfg);
    util::Rng rng(1);
    std::vector<int32_t> w(
        static_cast<size_t>(cfg.rows) * cfg.banks);
    for (auto &v : w)
        v = static_cast<int32_t>(rng.uniformInt(-128, 127));
    macro.loadWeights(w, cfg.rows, cfg.banks);
    std::vector<int32_t> x(cfg.rows);
    for (auto &v : x)
        v = static_cast<int32_t>(rng.uniformInt(-128, 127));
    for (auto _ : state) {
        auto out = macro.run(x, cfg.rows);
        benchmark::DoNotOptimize(out.outputs.data());
    }
    state.SetItemsProcessed(state.iterations() * cfg.rows *
                            cfg.banks);
}
BENCHMARK(BM_BitSerialMacroPass)->Arg(64)->Arg(128);

void
BM_HammingRate(benchmark::State &state)
{
    util::Rng rng(2);
    std::vector<int32_t> v(state.range(0));
    for (auto &x : v)
        x = static_cast<int32_t>(rng.uniformInt(-128, 127));
    for (auto _ : state) {
        benchmark::DoNotOptimize(quant::hammingRate(v, 8));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HammingRate)->Arg(1 << 12)->Arg(1 << 16);

void
BM_LhrGradient(benchmark::State &state)
{
    util::Rng rng(3);
    std::vector<double> u(4096);
    for (auto &x : u)
        x = rng.normal(0.0, 40.0);
    for (auto _ : state) {
        double acc = 0.0;
        for (double x : u)
            acc += quant::interpolatedHr(x, 8).slope;
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * u.size());
}
BENCHMARK(BM_LhrGradient);

void
BM_PdnMeshSolve(benchmark::State &state)
{
    power::PdnMeshConfig cfg;
    cfg.size = static_cast<int>(state.range(0));
    power::PdnMesh mesh(cfg);
    mesh.addBlockLoad(cfg.size / 4, cfg.size / 4, cfg.size / 2,
                      cfg.size / 2, 3.0);
    for (auto _ : state) {
        auto sol = mesh.solve();
        benchmark::DoNotOptimize(sol.voltage.data());
    }
}
BENCHMARK(BM_PdnMeshSolve)->Arg(24)->Arg(48);

void
BM_PdnMeshResolve(benchmark::State &state)
{
    // Perturbed in-place re-solve: a load change plus the two
    // triangular sweeps against the construction-time factor.
    // Compare against BM_PdnMeshSolve (which also allocates).
    power::PdnMeshConfig cfg;
    cfg.size = static_cast<int>(state.range(0));
    power::PdnMesh mesh(cfg);
    mesh.addBlockLoad(cfg.size / 4, cfg.size / 4, cfg.size / 2,
                      cfg.size / 2, 3.0);
    power::PdnSolution sol = mesh.solve();
    double delta = 0.05;
    for (auto _ : state) {
        mesh.addBlockLoad(cfg.size / 4, cfg.size / 4, cfg.size / 2,
                          cfg.size / 2, delta);
        delta = -delta;
        mesh.resolve(sol);
        benchmark::DoNotOptimize(sol.voltage.data());
    }
}
BENCHMARK(BM_PdnMeshResolve)->Arg(24)->Arg(48);

void
BM_PdnMeshFactor(benchmark::State &state)
{
    // Construction: the banded Cholesky factorization of the DC
    // matrix, paid once per mesh (and once per dt for transients).
    power::PdnMeshConfig cfg;
    cfg.size = static_cast<int>(state.range(0));
    for (auto _ : state) {
        power::PdnMesh mesh(cfg);
        benchmark::DoNotOptimize(&mesh);
    }
}
BENCHMARK(BM_PdnMeshFactor)->Arg(16)->Arg(24)->Arg(48);

void
BM_RuntimeWindowLoop(benchmark::State &state)
{
    // The chip runtime's window engine (sim/WindowKernel) over many
    // small rounds: covers the per-Runtime vmin hoist and the reused
    // per-window buffers.  Arg selects the droop backend.
    pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    sim::RunConfig rcfg;
    rcfg.mapper = mapping::MapperKind::Sequential;
    rcfg.irBackend = state.range(0) == 0
                         ? power::IrBackendKind::Analytic
                     : state.range(0) == 1
                         ? power::IrBackendKind::Mesh
                         : power::IrBackendKind::Transient;
    const sim::Runtime rt(cfg, cal, rcfg);
    const std::vector<sim::Round> rounds(
        16, aim::bench::syntheticRound(0.30, 16, 2'000'000));
    pim::StreamSpec stream;
    stream.density = 0.55;
    stream.nonNegative = true;
    long windows = 0;
    for (auto _ : state) {
        const auto rep = rt.run(rounds, stream);
        windows = rep.usefulWindows + rep.stallWindows;
        benchmark::DoNotOptimize(windows);
    }
    state.SetItemsProcessed(state.iterations() * windows);
    state.SetLabel(state.range(0) == 0   ? "analytic"
                   : state.range(0) == 1 ? "mesh"
                                         : "transient");
}
BENCHMARK(BM_RuntimeWindowLoop)->Arg(0)->Arg(1)->Arg(2);

void
BM_PdnMeshTransientStep(benchmark::State &state)
{
    // One implicit-Euler RC step per window is the transient droop
    // backend's hot loop (power/TransientBackend): a source build and
    // two triangular sweeps against the cached per-dt factor.
    power::PdnMeshConfig cfg;
    cfg.size = static_cast<int>(state.range(0));
    cfg.bumpPitch = 4;
    cfg.decapFarad = 20e-9;
    cfg.bumpInductanceH = 200e-12;
    power::PdnMesh mesh(cfg);
    mesh.addBlockLoad(cfg.size / 4, cfg.size / 4, cfg.size / 2,
                      cfg.size / 2, 2.0);
    power::PdnTransientState st = mesh.transientInit(mesh.solve());
    double delta = 0.4;
    for (auto _ : state) {
        mesh.addBlockLoad(cfg.size / 4, cfg.size / 4, cfg.size / 2,
                          cfg.size / 2, delta);
        delta = -delta;
        mesh.stepTransient(2e-9, st);
        benchmark::DoNotOptimize(st.sol.voltage.data());
    }
}
BENCHMARK(BM_PdnMeshTransientStep)->Arg(16)->Arg(24);

void
BM_HrAwareAnnealing(benchmark::State &state)
{
    pim::PimConfig cfg;
    power::VfTable table(power::defaultCalibration());
    power::PowerModel pm(power::defaultCalibration());
    mapping::MappingEvaluator eval(cfg, table, pm,
                                   mapping::Objective::Sprint, 5);
    std::vector<mapping::Task> tasks;
    util::Rng rng(7);
    for (int i = 0; i < 48; ++i) {
        mapping::Task t;
        t.layerName = "t";
        t.setId = i / 8;
        t.hr = rng.uniform(0.2, 0.6);
        t.macs = 1'000'000;
        tasks.push_back(t);
    }
    for (auto _ : state) {
        auto m = mapping::mapHrAware(tasks, cfg, eval);
        benchmark::DoNotOptimize(m.taskOfMacro.data());
    }
}
BENCHMARK(BM_HrAwareAnnealing);

/** Many-round synthetic program for the ISA front-end benches. */
isa::Program
benchProgram(int rounds, bool costed)
{
    std::vector<sim::Round> rs;
    for (int r = 0; r < rounds; ++r)
        rs.push_back(
            aim::bench::syntheticRound(0.30, 16, 2'000'000));
    pim::PimConfig cfg;
    isa::LowerOptions lopts;
    if (costed) {
        lopts.loadNsPerWord = 0.008;
        lopts.retuneNs = 500.0;
    }
    isa::Program p = isa::lower(rs, cfg, lopts);
    isa::fuseMacShift(p);
    return p;
}

void
BM_IsaLower(benchmark::State &state)
{
    // Lowering + fusion over a many-round workload: the compile-side
    // cost the serving layer pays once per cached model.
    std::vector<sim::Round> rs;
    for (long r = 0; r < state.range(0); ++r)
        rs.push_back(
            aim::bench::syntheticRound(0.30, 16, 2'000'000));
    pim::PimConfig cfg;
    isa::LowerOptions lopts;
    lopts.loadNsPerWord = 0.008;
    lopts.retuneNs = 500.0;
    long instrs = 0;
    for (auto _ : state) {
        isa::Program p = isa::lower(rs, cfg, lopts);
        isa::fuseMacShift(p);
        instrs = static_cast<long>(p.code.size());
        benchmark::DoNotOptimize(p.code.data());
    }
    state.SetItemsProcessed(state.iterations() * instrs);
}
BENCHMARK(BM_IsaLower)->Arg(16)->Arg(64);

void
BM_ScoreboardIssue(benchmark::State &state)
{
    // Full pending -> issued -> completed walk of a lowered program:
    // scan for an issuable instruction, issue, complete, repeat.
    // With the O(1) hazard checks (per-Set lanes + round counters)
    // the walk is linear in program size; Arg selects the policy
    // (0 = per-round RoundOrder blocks, the engine's machine;
    // 1 = whole-program Pipelined, the scheduler's legality oracle).
    const isa::Program p = benchProgram(16, false);
    const bool pipelined = state.range(0) == 1;
    for (auto _ : state) {
        long issued = 0;
        auto walk = [&](isa::Scoreboard &sb, size_t begin,
                        size_t end) {
            while (!sb.allCompleted()) {
                for (size_t i = begin; i < end; ++i) {
                    if (!sb.issuable(i))
                        continue;
                    sb.issue(i);
                    sb.complete(i);
                    ++issued;
                }
            }
        };
        if (pipelined) {
            isa::Scoreboard sb(p,
                               isa::Scoreboard::Policy::Pipelined);
            walk(sb, 0, p.code.size());
        } else {
            for (const auto &span : p.roundSpan) {
                isa::Scoreboard sb(p.code, span.begin, span.end);
                walk(sb, span.begin, span.end);
            }
        }
        benchmark::DoNotOptimize(issued);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(p.code.size()));
    state.SetLabel(pipelined ? "pipelined" : "round-order");
}
BENCHMARK(BM_ScoreboardIssue)->Arg(0)->Arg(1);

void
BM_IsaSchedule(benchmark::State &state)
{
    // List scheduling (strict + relaxed timing replays and the
    // slot sort) of a costed pre-lowered program.
    const isa::Program p = benchProgram(static_cast<int>(
                                            state.range(0)),
                                        true);
    for (auto _ : state) {
        isa::Schedule s = isa::scheduleProgram(p);
        benchmark::DoNotOptimize(s.order.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(p.code.size()));
}
BENCHMARK(BM_IsaSchedule)->Arg(16)->Arg(64);

} // namespace

BENCHMARK_MAIN();
