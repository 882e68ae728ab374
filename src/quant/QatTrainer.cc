#include "quant/QatTrainer.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>

#include "quant/Hamming.hh"
#include "quant/Lhr.hh"
#include "util/Logging.hh"
#include "util/Rng.hh"

namespace aim::quant
{

namespace
{

QuantizedLayer
finishLayer(const FloatLayer &layer, double scale, int bits)
{
    QuantizedLayer out;
    out.name = layer.name;
    out.scale = scale;
    out.bits = bits;
    out.rows = layer.rows;
    out.cols = layer.cols;
    out.values = quantize(layer.weights, scale, bits);
    if (!layer.mask.empty()) {
        for (size_t i = 0; i < out.values.size(); ++i)
            if (!layer.mask[i])
                out.values[i] = 0;
    }
    return out;
}

} // namespace

double
deviationLsb2(const QuantizedLayer &q, const FloatLayer &layer,
              double scale)
{
    if (q.values.empty())
        return 0.0;
    double acc = 0.0;
    for (size_t i = 0; i < q.values.size(); ++i) {
        const double d =
            q.values[i] - static_cast<double>(layer.pretrained[i]) / scale;
        acc += d * d;
    }
    return acc / static_cast<double>(q.values.size());
}

double
excessLsb2(const QuantizedLayer &q, const FloatLayer &layer,
           double scale, double deadzone)
{
    if (q.values.empty())
        return 0.0;
    double acc = 0.0;
    for (size_t i = 0; i < q.values.size(); ++i) {
        const double d =
            q.values[i] - static_cast<double>(layer.pretrained[i]) / scale;
        const double e = std::max(std::fabs(d) - deadzone, 0.0);
        acc += e * e;
    }
    return acc / static_cast<double>(q.values.size());
}

double
QatResult::hrAverage() const
{
    if (layerHr.empty())
        return 0.0;
    double acc = 0.0;
    for (double hr : layerHr)
        acc += hr;
    return acc / static_cast<double>(layerHr.size());
}

double
QatResult::hrMax() const
{
    double hi = 0.0;
    for (double hr : layerHr)
        hi = std::max(hi, hr);
    return hi;
}

double
QatResult::weightedDeviation(const std::vector<FloatLayer> &ref) const
{
    aim_assert(ref.size() == layerExcessLsb2.size(),
               "layer count mismatch in weightedDeviation");
    double acc = 0.0;
    double wsum = 0.0;
    for (size_t i = 0; i < ref.size(); ++i) {
        acc += ref[i].sensitivity * layerExcessLsb2[i];
        wsum += ref[i].sensitivity;
    }
    return wsum > 0.0 ? acc / wsum : 0.0;
}

QatTrainer::QatTrainer(QatConfig cfg) : cfg(cfg)
{
    aim_assert(cfg.bits >= 2 && cfg.bits <= 16,
               "unsupported bit width ", cfg.bits);
    aim_assert(cfg.lambda >= 0.0, "negative lambda");
    aim_assert(cfg.deadzoneLsb >= 0.0, "negative deadzone");
}

double
QatTrainer::trainLayer(FloatLayer &layer, double scale) const
{
    const size_t n = layer.weights.size();
    if (n == 0)
        return 0.0;
    aim_assert(layer.pretrained.size() == n,
               "pretrained size mismatch for layer ", layer.name);

    // Train in scaled (LSB) units: u = w / scale.
    std::vector<double> u(n);
    std::vector<double> u0(n);
    for (size_t i = 0; i < n; ++i) {
        u[i] = static_cast<double>(layer.weights[i]) / scale;
        u0[i] = static_cast<double>(layer.pretrained[i]) / scale;
    }

    util::Rng noise(cfg.seed ^ std::hash<std::string>{}(layer.name));
    const double inv_n = 1.0 / static_cast<double>(n);
    const bool lhr_on = cfg.lambda > 0.0;

    double lr = cfg.lr;
    double sigma = lhr_on ? cfg.noiseLsb : 0.0;
    double layer_hr = 0.0;
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
        // Layer average interpolated HR (Equation 5 over the layer).
        double hr_acc = 0.0;
        for (size_t i = 0; i < n; ++i)
            hr_acc += interpolatedHr(u[i], cfg.bits).value;
        layer_hr = hr_acc * inv_n;

        for (size_t i = 0; i < n; ++i) {
            if (!layer.mask.empty() && !layer.mask[i]) {
                u[i] = 0.0;
                continue;
            }
            // Task-loss proxy: flat within the fine-tuning deadzone,
            // quadratic beyond it (the excess is unrecoverable).
            const double d = u[i] - u0[i];
            double anchor = 0.0;
            if (std::fabs(d) > cfg.deadzoneLsb)
                anchor = cfg.anchorStrength * layer.sensitivity *
                         (d > 0.0 ? d - cfg.deadzoneLsb
                                  : d + cfg.deadzoneLsb);
            // Equation 6 gradient: 2 * HR_l * slope (per weight, the
            // 1/n of HR_l and the sum over weights cancel).
            double lhr_grad = 0.0;
            if (lhr_on) {
                const double slope =
                    interpolatedHr(u[i], cfg.bits).slope;
                lhr_grad = cfg.lambda * 2.0 * layer_hr * slope;
            }
            u[i] -= lr * (anchor + lhr_grad);
            // Mini-batch gradient noise stand-in: lets weights hop
            // shallow hamming bumps early on (decays to zero).
            if (sigma > 0.0)
                u[i] += lr * noise.normal(0.0, sigma);
        }
        lr *= cfg.lrDecay;
        sigma *= cfg.noiseDecay;
    }

    for (size_t i = 0; i < n; ++i)
        layer.weights[i] = static_cast<float>(u[i] * scale);
    return layer_hr;
}

QatResult
QatTrainer::run(std::vector<FloatLayer> &layers) const
{
    QatResult res;
    res.layers.reserve(layers.size());
    QuantSpec spec;
    spec.bits = cfg.bits;
    for (auto &layer : layers) {
        // The scale is frozen from the pretrained tensor, as in the
        // paper's setup where LHR plugs into an existing quantizer.
        const double scale = computeScaleAbsMax(layer.pretrained, spec);
        if (cfg.lambda > 0.0 || !layer.mask.empty())
            trainLayer(layer, scale);
        QuantizedLayer q = finishLayer(layer, scale, cfg.bits);
        res.layerHr.push_back(q.hr());
        res.layerDevLsb2.push_back(deviationLsb2(q, layer, scale));
        res.layerExcessLsb2.push_back(
            excessLsb2(q, layer, scale, cfg.deadzoneLsb));
        res.layers.push_back(std::move(q));
    }
    return res;
}

QatResult
quantizeBaseline(std::vector<FloatLayer> &layers, int bits)
{
    QatConfig cfg;
    cfg.bits = bits;
    cfg.lambda = 0.0;
    cfg.epochs = 0;
    return QatTrainer(cfg).run(layers);
}

} // namespace aim::quant
