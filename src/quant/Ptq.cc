#include "quant/Ptq.hh"

#include <algorithm>
#include <cmath>

#include "quant/Hamming.hh"
#include "util/BitOps.hh"
#include "util/Logging.hh"

namespace aim::quant
{

namespace
{

/**
 * Round one scaled weight to floor or ceil, trading squared error
 * against the HR of the candidate code when the LHR penalty is on.
 */
int32_t
roundWithPenalty(double x, int bits, bool lhr, double mu)
{
    const auto lo_lim = static_cast<double>(util::intMin(bits));
    const auto hi_lim = static_cast<double>(util::intMax(bits));
    x = std::clamp(x, lo_lim, hi_lim);
    const double fl = std::floor(x);
    const double ce = std::ceil(x);
    if (fl == ce)
        return static_cast<int32_t>(fl);

    auto cost = [&](double cand) {
        const double err = (x - cand) * (x - cand);
        if (!lhr)
            return err;
        return err + mu * hrOfInt(static_cast<int64_t>(cand), bits);
    };
    return static_cast<int32_t>(cost(fl) <= cost(ce) ? fl : ce);
}

void
record(QatResult &res, QuantizedLayer q, const FloatLayer &layer)
{
    // No fine-tuning pass follows PTQ to absorb small movements, so
    // the whole displacement is excess (a zero deadzone).
    res.layerHr.push_back(q.hr());
    res.layerDevLsb2.push_back(deviationLsb2(q, layer, q.scale));
    res.layerExcessLsb2.push_back(excessLsb2(q, layer, q.scale, 0.0));
    res.layers.push_back(std::move(q));
}

} // namespace

QatResult
runOmniQuant(std::vector<FloatLayer> &layers, const PtqConfig &cfg)
{
    QatResult res;
    QuantSpec spec;
    spec.bits = cfg.bits;
    for (auto &layer : layers) {
        QuantizedLayer q;
        q.name = layer.name;
        q.bits = cfg.bits;
        q.rows = layer.rows;
        q.cols = layer.cols;
        // Learned clipping: sweep the clip ratio for minimum MSE.
        q.scale = computeScaleMse(layer.pretrained, spec);
        q.values.resize(layer.weights.size());
        for (size_t i = 0; i < layer.weights.size(); ++i) {
            const double x =
                static_cast<double>(layer.pretrained[i]) / q.scale;
            q.values[i] = roundWithPenalty(x, cfg.bits, cfg.lhr, cfg.mu);
        }
        record(res, std::move(q), layer);
    }
    return res;
}

QatResult
runBrecq(std::vector<FloatLayer> &layers, const PtqConfig &cfg)
{
    QatResult res;
    QuantSpec spec;
    spec.bits = cfg.bits;
    const auto lo = static_cast<int32_t>(util::intMin(cfg.bits));
    const auto hi = static_cast<int32_t>(util::intMax(cfg.bits));

    for (auto &layer : layers) {
        QuantizedLayer q;
        q.name = layer.name;
        q.bits = cfg.bits;
        q.rows = layer.rows;
        q.cols = layer.cols;
        q.scale = computeScaleAbsMax(layer.pretrained, spec);
        q.values = quantize(layer.pretrained, q.scale, cfg.bits);

        // Block reconstruction: per block of rows, coordinate-descent
        // over +-1 LSB flips; accept a flip when it lowers the block
        // objective (reconstruction MSE plus optional HR penalty).
        const size_t block =
            static_cast<size_t>(std::max(cfg.blockRows, 1)) *
            static_cast<size_t>(std::max(layer.cols, 1));
        for (int pass = 0; pass < cfg.passes; ++pass) {
            for (size_t i = 0; i < q.values.size(); ++i) {
                const double x =
                    static_cast<double>(layer.pretrained[i]) / q.scale;
                const int32_t cur = q.values[i];
                double best_cost = (x - cur) * (x - cur);
                if (cfg.lhr)
                    best_cost += cfg.mu * hrOfInt(cur, cfg.bits);
                int32_t best = cur;
                for (int32_t cand : {cur - 1, cur + 1}) {
                    if (cand < lo || cand > hi)
                        continue;
                    double cost = (x - cand) * (x - cand);
                    if (cfg.lhr)
                        cost += cfg.mu * hrOfInt(cand, cfg.bits);
                    if (cost < best_cost) {
                        best_cost = cost;
                        best = cand;
                    }
                }
                q.values[i] = best;
            }
            // Block boundary bookkeeping kept for fidelity with the
            // block-wise method; the local objective already decomposes.
            (void)block;
        }
        record(res, std::move(q), layer);
    }
    return res;
}

} // namespace aim::quant
