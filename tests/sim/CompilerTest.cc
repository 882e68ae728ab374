#include <gtest/gtest.h>

#include "quant/QatTrainer.hh"
#include "sim/Compiler.hh"
#include "workload/WeightSynth.hh"

using namespace aim::sim;
using namespace aim::workload;

namespace
{

aim::pim::PimConfig
chip()
{
    return aim::pim::PimConfig{};
}

std::vector<aim::quant::QuantizedLayer>
quantizedFor(const ModelSpec &model)
{
    SynthConfig cfg;
    cfg.maxElementsPerLayer = 4096;
    auto layers = synthesizeWeights(model, cfg);
    return aim::quant::quantizeBaseline(layers, 8).layers;
}

} // namespace

TEST(Compiler, TileCountFollowsDimensions)
{
    LayerSpec spec;
    spec.name = "l";
    spec.type = OpType::Conv;
    spec.outChannels = 256; // 2 bank tiles of 128
    spec.reduction = 300;   // 3 row tiles of 128
    spec.spatial = 10;
    aim::quant::QuantizedLayer q;
    q.values.assign(1024, 5);
    q.bits = 8;
    q.rows = 32;
    q.cols = 32;
    const auto tasks =
        tileOperator(spec, &q, chip(), 7, 64, 1);
    EXPECT_EQ(tasks.size(), 6u);
    for (const auto &t : tasks) {
        EXPECT_EQ(t.setId, 7);
        EXPECT_EQ(t.macs, spec.macs() / 6);
        EXPECT_FALSE(t.inputDetermined);
    }
}

TEST(Compiler, TileMacsSumToOperatorMacs)
{
    // 250 x 301 does not divide by its 2 x 3 tiles: the remainder
    // goes one MAC each to the first tiles instead of being dropped.
    LayerSpec spec;
    spec.name = "odd";
    spec.type = OpType::Linear;
    spec.outChannels = 250; // 2 bank tiles of 128
    spec.reduction = 301;   // 3 row tiles of 128
    spec.spatial = 1;
    aim::quant::QuantizedLayer q;
    q.values.assign(1024, 5);
    q.bits = 8;
    q.rows = 32;
    q.cols = 32;
    const auto tasks = tileOperator(spec, &q, chip(), 0, 64, 1);
    ASSERT_EQ(tasks.size(), 6u);
    ASSERT_NE(spec.macs() % 6, 0);
    long total = 0;
    for (size_t i = 0; i < tasks.size(); ++i) {
        total += tasks[i].macs;
        const long extra =
            static_cast<long>(i) < spec.macs() % 6 ? 1 : 0;
        EXPECT_EQ(tasks[i].macs, spec.macs() / 6 + extra)
            << "tile " << i;
    }
    EXPECT_EQ(total, spec.macs());
}

TEST(Compiler, TilesCappedByAvailableMacros)
{
    LayerSpec spec;
    spec.name = "big";
    spec.type = OpType::Linear;
    spec.outChannels = 4096;
    spec.reduction = 4096;
    spec.spatial = 1;
    aim::quant::QuantizedLayer q;
    q.values.assign(4096, 3);
    q.bits = 8;
    q.rows = 64;
    q.cols = 64;
    const auto tasks = tileOperator(spec, &q, chip(), 0, 10, 1);
    EXPECT_EQ(tasks.size(), 10u);
}

TEST(Compiler, TaskHrFromWeightChunks)
{
    LayerSpec spec;
    spec.name = "l";
    spec.type = OpType::Conv;
    spec.outChannels = 256;
    spec.reduction = 128;
    spec.spatial = 1;
    // First half zeros (HR 0), second half -1 (HR 1).
    aim::quant::QuantizedLayer q;
    q.values.assign(512, 0);
    for (size_t i = 256; i < 512; ++i)
        q.values[i] = -1;
    q.bits = 8;
    q.rows = 16;
    q.cols = 32;
    const auto tasks = tileOperator(spec, &q, chip(), 0, 2, 1);
    ASSERT_EQ(tasks.size(), 2u);
    EXPECT_DOUBLE_EQ(tasks[0].hr, 0.0);
    EXPECT_DOUBLE_EQ(tasks[1].hr, 1.0);
}

TEST(Compiler, InputDeterminedTilesFlagged)
{
    LayerSpec spec;
    spec.name = "qkt";
    spec.type = OpType::QkT;
    spec.outChannels = 197;
    spec.reduction = 768;
    spec.spatial = 197;
    const auto tasks =
        tileOperator(spec, nullptr, chip(), 3, 16, 5);
    EXPECT_FALSE(tasks.empty());
    for (const auto &t : tasks) {
        EXPECT_TRUE(t.inputDetermined);
        EXPECT_GT(t.hr, 0.2);
        EXPECT_LT(t.hr, 0.8);
    }
}

TEST(Compiler, CompileCoversAllOperators)
{
    const auto model = resnet18();
    const auto weights = quantizedFor(model);
    const auto rounds = compileModel(model, weights, chip());
    size_t sets = 0;
    for (const auto &r : rounds) {
        std::set<int> ids;
        for (const auto &t : r.tasks)
            ids.insert(t.setId);
        sets += ids.size();
    }
    EXPECT_EQ(sets, model.layers.size());
}

TEST(Compiler, RoundsFitChip)
{
    const auto model = vitB16();
    const auto weights = quantizedFor(model);
    const auto rounds = compileModel(model, weights, chip());
    for (const auto &r : rounds)
        EXPECT_LE(r.tasks.size(),
                  static_cast<size_t>(chip().macros()));
}

TEST(Compiler, MacsConserved)
{
    const auto model = resnet18();
    const auto weights = quantizedFor(model);
    const auto rounds = compileModel(model, weights, chip());
    long total = 0;
    for (const auto &r : rounds)
        for (const auto &t : r.tasks)
            total += t.macs;
    EXPECT_EQ(total, model.totalMacs());
}

TEST(Compiler, MismatchedWeightListDies)
{
    const auto model = resnet18();
    auto weights = quantizedFor(model);
    weights.pop_back();
    EXPECT_DEATH(compileModel(model, weights, chip()), "weight layer");
}
