/**
 * @file
 * The ISA engine's bit-identity gate: executing the lowered program
 * must reproduce Runtime::run's RunReport bit-for-bit -- same
 * numbers, same per-round latency vector -- on every droop backend,
 * with and without booster/carry, and through the full pipeline on
 * zoo models.  Also pins the synthetic sprint golden (the
 * BackendGoldenTest constants) against the engine directly, and
 * sanity-checks the instruction accounting and CSV trace.
 */

#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "TestUtil.hh"
#include "aim/Aim.hh"
#include "isa/Engine.hh"
#include "isa/Lower.hh"
#include "isa/Schedule.hh"
#include "workload/ModelZoo.hh"

namespace aim::isa
{
namespace
{

using test::convRound;

/** Bit-for-bit RunReport comparison (exact ==, not near). */
void
expectSameReport(const sim::RunReport &a, const sim::RunReport &b)
{
    EXPECT_EQ(a.wallTimeNs, b.wallTimeNs);
    EXPECT_EQ(a.totalMacs, b.totalMacs);
    EXPECT_EQ(a.tops, b.tops);
    EXPECT_EQ(a.macroPowerMw, b.macroPowerMw);
    EXPECT_EQ(a.irWorstMv, b.irWorstMv);
    EXPECT_EQ(a.irMeanMv, b.irMeanMv);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.stallWindows, b.stallWindows);
    EXPECT_EQ(a.usefulWindows, b.usefulWindows);
    EXPECT_EQ(a.vfSwitches, b.vfSwitches);
    EXPECT_EQ(a.meanLevel, b.meanLevel);
    EXPECT_EQ(a.meanRtog, b.meanRtog);
    ASSERT_EQ(a.roundLatencyNs.size(), b.roundLatencyNs.size());
    for (size_t i = 0; i < a.roundLatencyNs.size(); ++i)
        EXPECT_EQ(a.roundLatencyNs[i], b.roundLatencyNs[i]) << i;
}

EngineReport
runEngine(const std::vector<sim::Round> &rounds,
          const sim::RunConfig &rcfg, uint64_t seed,
          bool fuse = true, TraceSink *trace = nullptr)
{
    const pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    LowerOptions lopts;
    lopts.emitRetune = rcfg.useBooster;
    Program program = lower(rounds, cfg, lopts);
    if (fuse)
        fuseMacShift(program);
    const Engine engine(cfg, cal, rcfg);
    return engine.run(program, test::stream(), seed, nullptr, trace);
}

TEST(IsaEngineGolden, SprintDefaultMatchesRuntimeBitForBit)
{
    const std::vector<sim::Round> rounds = {
        convRound(0.30, 16, 30'000'000)};
    const sim::RunConfig rcfg;
    const sim::RunReport want = test::execute(rounds, rcfg);
    const EngineReport er = runEngine(rounds, rcfg, rcfg.seed);
    expectSameReport(er.run, want);

    // And against the pinned sprint constants of the golden surface
    // (tests/sim/BackendGoldenTest SprintDefault), so a joint drift
    // of both paths cannot hide.
    EXPECT_DOUBLE_EQ(er.run.wallTimeNs, 12213.333333333116);
    EXPECT_DOUBLE_EQ(er.run.totalMacs, 480000000.0);
    EXPECT_EQ(er.run.usefulWindows, 7328L);
    EXPECT_DOUBLE_EQ(er.run.meanRtog, 0.070437018487658598);
}

TEST(IsaEngineGolden, EveryBackendMatchesRuntimeBitForBit)
{
    const std::vector<sim::Round> rounds = {
        convRound(0.30, 16, 20'000'000), sim::Round{},
        convRound(0.45, 8, 12'000'000, true)};
    for (const auto kind : {power::IrBackendKind::Analytic,
                            power::IrBackendKind::Mesh,
                            power::IrBackendKind::Transient}) {
        sim::RunConfig rcfg;
        rcfg.mapper = mapping::MapperKind::Sequential;
        rcfg.irBackend = kind;
        rcfg.seed = 77;
        const sim::RunReport want =
            test::execute(rounds, rcfg, rcfg.seed);
        const EngineReport er = runEngine(rounds, rcfg, rcfg.seed);
        expectSameReport(er.run, want);
    }
}

TEST(IsaEngineGolden, BoosterOffAndFusionOffStayBitIdentical)
{
    const std::vector<sim::Round> rounds = {
        convRound(0.55, 16, 15'000'000)};
    sim::RunConfig rcfg;
    rcfg.useBooster = false;
    const sim::RunReport want =
        test::execute(rounds, rcfg, rcfg.seed);
    // Fusion is semantics-preserving: fused and unfused programs
    // both reproduce the runtime bit-for-bit.
    expectSameReport(
        runEngine(rounds, rcfg, rcfg.seed, true).run, want);
    expectSameReport(
        runEngine(rounds, rcfg, rcfg.seed, false).run, want);
}

TEST(IsaEngineGolden, TransientCarryMatchesRuntimeCarry)
{
    const pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    sim::RunConfig rcfg;
    rcfg.mapper = mapping::MapperKind::Sequential;
    rcfg.irBackend = power::IrBackendKind::Transient;
    const std::vector<sim::Round> first = {convRound(0.60, 16)};
    const std::vector<sim::Round> second = {convRound(0.30, 16)};

    const sim::Runtime rt(cfg, cal, rcfg);
    std::unique_ptr<power::IrState> rt_carry;
    const auto rt_a = rt.run(first, test::stream(), 5, &rt_carry);
    const auto rt_b = rt.run(second, test::stream(), 6, &rt_carry);

    LowerOptions lopts;
    lopts.emitRetune = rcfg.useBooster;
    Program pa = lower(first, cfg, lopts);
    Program pb = lower(second, cfg, lopts);
    fuseMacShift(pa);
    fuseMacShift(pb);
    const Engine engine(cfg, cal, rcfg);
    std::unique_ptr<power::IrState> en_carry;
    const auto en_a =
        engine.run(pa, test::stream(), 5, &en_carry);
    const auto en_b =
        engine.run(pb, test::stream(), 6, &en_carry);

    expectSameReport(en_a.run, rt_a);
    expectSameReport(en_b.run, rt_b);
}

TEST(IsaEngineGolden, ZooModelsMatchThroughThePipeline)
{
    const AimPipeline pipe(pim::PimConfig{},
                           power::defaultCalibration());
    for (const char *model : {"ResNet18", "MobileNetV2"}) {
        AimOptions opts = test::fastServeOptions();
        const auto flat =
            pipe.compile(workload::modelByName(model), opts);
        opts.useIsa = true;
        const auto isa =
            pipe.compile(workload::modelByName(model), opts);
        ASSERT_NE(isa.program, nullptr);
        const auto rep_flat = pipe.execute(flat, 12345);
        const auto rep_isa = pipe.execute(isa, 12345);
        expectSameReport(rep_isa.run, rep_flat.run);
        EXPECT_EQ(rep_isa.isaInstructions,
                  static_cast<long>(isa.program->code.size()));
        EXPECT_GT(rep_isa.isaFusedMacs, 0);
        EXPECT_GE(rep_isa.isaTailIdleNs, 0.0);
        EXPECT_EQ(rep_flat.isaInstructions, 0);
    }
}

TEST(IsaEngineGolden, AccountingAndTraceAreConsistent)
{
    const std::vector<sim::Round> rounds = {
        convRound(0.30, 16, 10'000'000), sim::Round{}};
    const sim::RunConfig rcfg;
    std::ostringstream csv;
    CsvTrace trace(csv);
    const EngineReport er =
        runEngine(rounds, rcfg, rcfg.seed, true, &trace);

    // Fused program: 4x (LOAD + SYNC + fused MAC) + RETUNE + BARRIER
    // for the conv round, one NOP for the empty round.
    EXPECT_EQ(er.decoded, 15);
    EXPECT_EQ(er.issued, er.decoded);
    EXPECT_EQ(er.completed, er.decoded);
    EXPECT_EQ(er.fusedMacs, 4);
    const auto &by_op = er.issuedByOp;
    EXPECT_EQ(by_op[static_cast<int>(Opcode::MacWindow)], 4);
    EXPECT_EQ(by_op[static_cast<int>(Opcode::ShiftAcc)], 0);
    EXPECT_EQ(by_op[static_cast<int>(Opcode::Nop)], 1);
    EXPECT_GE(er.tailIdleNs, 0.0);

    // CSV: one header plus one issue + one complete per instruction.
    const std::string text = csv.str();
    const long lines =
        static_cast<long>(std::count(text.begin(), text.end(), '\n'));
    EXPECT_EQ(lines, 1 + 2 * er.decoded);
    EXPECT_EQ(
        text.rfind("instr,op,set,round,window,t_ns,slot,clk_ns,event",
                   0),
        0u);
}

/** FNV-1a digest of a text. */
uint64_t
fnv1a(const std::string &text)
{
    uint64_t h = 1469598103934665603ULL;
    for (const unsigned char c : text)
        h = (h ^ c) * 1099511628211ULL;
    return h;
}

TEST(IsaEngineGolden, ScheduledTraceAndTailArePinned)
{
    // The instruction view over the physics walk: every trace column
    // (window, t_ns, slot, clk_ns), the tail-idle walk across an
    // empty round, and both cost-modelled makespans, on a costed and
    // scheduled multi-round program.
    const std::vector<sim::Round> rounds = {
        convRound(0.30, 16, 12'000'000), sim::Round{},
        convRound(0.45, 8, 9'000'000, true),
        convRound(0.20, 4, 6'000'000)};
    struct Pin
    {
        power::IrBackendKind kind;
        uint64_t digest;
        double tailIdleNs;
        double inOrderNs;
        double scheduledNs;
    };
    const Pin pins[] = {
        {power::IrBackendKind::Analytic, 0xc997f5811e2b840cULL,
         9585.4186159843994, 11928.097465886935,
         11890.241465886935},
        {power::IrBackendKind::Mesh, 0xf7644e3d9642385bULL,
         9362.5852826510527, 11673.430799220252,
         11635.574799220252},
    };
    const pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    for (const Pin &pin : pins) {
        sim::RunConfig rcfg;
        rcfg.mapper = mapping::MapperKind::Sequential;
        rcfg.irBackend = pin.kind;
        LowerOptions lopts;
        lopts.emitRetune = true;
        lopts.loadNsPerWord = 0.002;
        lopts.retuneNs = 150.0;
        Program program = lower(rounds, cfg, lopts);
        fuseMacShift(program);
        const Schedule schedule = scheduleProgram(program);
        std::ostringstream csv;
        CsvTrace trace(csv);
        const EngineReport er =
            Engine(cfg, cal, rcfg)
                .run(program, test::stream(), 41, nullptr, &trace,
                     &schedule);
        EXPECT_EQ(fnv1a(csv.str()), pin.digest);
        EXPECT_EQ(er.tailIdleNs, pin.tailIdleNs);
        EXPECT_EQ(er.inOrderMakespanNs, pin.inOrderNs);
        EXPECT_EQ(er.scheduledMakespanNs, pin.scheduledNs);
    }
}

TEST(IsaEngineGolden, EngineIsDeterministicAcrossRuns)
{
    const std::vector<sim::Round> rounds = {
        convRound(0.40, 16, 18'000'000)};
    const sim::RunConfig rcfg;
    const EngineReport a = runEngine(rounds, rcfg, 99);
    const EngineReport b = runEngine(rounds, rcfg, 99);
    expectSameReport(a.run, b.run);
    EXPECT_EQ(a.issued, b.issued);
    EXPECT_EQ(a.tailIdleNs, b.tailIdleNs);
}

} // namespace
} // namespace aim::isa
