#include <gtest/gtest.h>

#include <vector>

#include "quant/Ptq.hh"
#include "util/Rng.hh"
#include "workload/AccuracyProxy.hh"
#include "workload/ModelZoo.hh"

using namespace aim::quant;

namespace
{

std::vector<FloatLayer>
makeNetwork(int layers, int rows, int cols, uint64_t seed)
{
    aim::util::Rng rng(seed);
    std::vector<FloatLayer> net;
    for (int l = 0; l < layers; ++l) {
        FloatLayer layer;
        layer.name = "l" + std::to_string(l);
        layer.rows = rows;
        layer.cols = cols;
        layer.weights.resize(static_cast<size_t>(rows) * cols);
        for (auto &w : layer.weights)
            w = static_cast<float>(rng.normal(0.0, 0.04));
        layer.pretrained = layer.weights;
        net.push_back(std::move(layer));
    }
    return net;
}

} // namespace

TEST(OmniQuant, BaselineHrNearHalf)
{
    auto net = makeNetwork(3, 64, 64, 1);
    PtqConfig cfg;
    const QatResult res = runOmniQuant(net, cfg);
    EXPECT_NEAR(res.hrAverage(), 0.5, 0.07);
}

TEST(OmniQuant, LhrReducesHrModestly)
{
    auto net_a = makeNetwork(3, 64, 64, 2);
    auto net_b = net_a;
    PtqConfig off;
    PtqConfig on;
    on.lhr = true;
    const QatResult base = runOmniQuant(net_a, off);
    const QatResult lhr = runOmniQuant(net_b, on);
    EXPECT_LT(lhr.hrAverage(), base.hrAverage());
    // PTQ can only choose between adjacent codes, so the reduction is
    // structurally smaller than QAT's (paper Table 3: ~0.51 -> 0.47).
    const double reduction =
        1.0 - lhr.hrAverage() / base.hrAverage();
    EXPECT_GT(reduction, 0.02);
    EXPECT_LT(reduction, 0.20);
}

TEST(OmniQuant, LhrCostsLittleDeviation)
{
    auto net_a = makeNetwork(2, 64, 64, 3);
    auto net_b = net_a;
    PtqConfig off;
    PtqConfig on;
    on.lhr = true;
    const QatResult base = runOmniQuant(net_a, off);
    const QatResult lhr = runOmniQuant(net_b, on);
    // Rounding to the second-nearest code costs at most ~1 LSB^2 on
    // average (vs 1/12 for nearest), and typically far less.
    EXPECT_LT(lhr.layerDevLsb2[0], base.layerDevLsb2[0] + 1.0);
}

TEST(Brecq, BaselineMatchesRoundToNearest)
{
    auto net = makeNetwork(1, 32, 32, 4);
    PtqConfig cfg;
    const QatResult res = runBrecq(net, cfg);
    // Without the LHR penalty, coordinate descent from round-to-
    // nearest cannot improve plain MSE: values stay at RTN.
    QuantSpec spec;
    const double scale =
        computeScaleAbsMax(net[0].pretrained, spec);
    const auto rtn = quantize(net[0].pretrained, scale, 8);
    EXPECT_EQ(res.layers[0].values, rtn);
}

TEST(Brecq, LhrReducesHr)
{
    auto net_a = makeNetwork(2, 64, 64, 5);
    auto net_b = net_a;
    PtqConfig off;
    PtqConfig on;
    on.lhr = true;
    const QatResult base = runBrecq(net_a, off);
    const QatResult lhr = runBrecq(net_b, on);
    EXPECT_LT(lhr.hrAverage(), base.hrAverage());
}

TEST(Brecq, OutputInRange)
{
    auto net = makeNetwork(1, 16, 16, 6);
    PtqConfig cfg;
    cfg.lhr = true;
    const QatResult res = runBrecq(net, cfg);
    for (int32_t v : res.layers[0].values) {
        EXPECT_GE(v, -128);
        EXPECT_LE(v, 127);
    }
}

TEST(Ptq, MuControlsAggressiveness)
{
    auto net_a = makeNetwork(1, 64, 64, 7);
    auto net_b = net_a;
    PtqConfig mild;
    mild.lhr = true;
    mild.mu = 0.1;
    PtqConfig strong;
    strong.lhr = true;
    strong.mu = 1.0;
    const QatResult r_mild = runOmniQuant(net_a, mild);
    const QatResult r_strong = runOmniQuant(net_b, strong);
    EXPECT_LE(r_strong.hrAverage(), r_mild.hrAverage());
}

TEST(Ptq, PreservesLayerMetadata)
{
    auto net = makeNetwork(1, 8, 16, 8);
    PtqConfig cfg;
    const QatResult res = runOmniQuant(net, cfg);
    EXPECT_EQ(res.layers[0].rows, 8);
    EXPECT_EQ(res.layers[0].cols, 16);
    EXPECT_EQ(res.layers[0].name, "l0");
    EXPECT_EQ(res.layers[0].bits, 8);
}

TEST(Ptq, BothMethodsFeedTheAccuracyProxy)
{
    // evaluateAccuracy reads the per-layer excess deviation; both PTQ
    // methods must fill it for every layer, and the LHR penalty may
    // cost accuracy but never buy it back beyond the HR bonus.
    const auto model = aim::workload::modelByName("ResNet18");
    for (const auto method : {&runOmniQuant, &runBrecq}) {
        for (const bool lhr : {false, true}) {
            auto net = makeNetwork(3, 32, 32, 9);
            PtqConfig cfg;
            cfg.lhr = lhr;
            const QatResult res = method(net, cfg);
            ASSERT_EQ(res.layerExcessLsb2.size(), net.size());
            for (size_t l = 0; l < net.size(); ++l)
                EXPECT_EQ(res.layerExcessLsb2[l], res.layerDevLsb2[l]);
            const auto acc =
                aim::workload::evaluateAccuracy(model, res, net);
            EXPECT_NEAR(acc.metric, model.baselineMetric, 1.0);
        }
    }
}
