#include "sim/Compiler.hh"

#include <algorithm>
#include <cmath>

#include "quant/Hamming.hh"
#include "util/Logging.hh"
#include "workload/WeightSynth.hh"

namespace aim::sim
{

namespace
{

/** HR of contiguous chunk @p i of @p n over a value array. */
double
chunkHr(const quant::QuantizedLayer &layer, int i, int n)
{
    const size_t total = layer.values.size();
    const size_t lo = total * i / n;
    const size_t hi = total * (i + 1) / n;
    if (lo >= hi)
        return layer.hr();
    return quant::hammingRate(
        std::span<const int32_t>(layer.values).subspan(lo, hi - lo),
        layer.bits);
}

} // namespace

std::vector<mapping::Task>
tileOperator(const workload::LayerSpec &spec,
             const quant::QuantizedLayer *weights,
             const pim::PimConfig &cfg, int set_id, int max_macros,
             uint64_t seed)
{
    aim_assert(max_macros >= 1, "need at least one macro");

    // Natural tile count from the full operator dimensions.
    const long col_tiles =
        (spec.reduction + cfg.rows - 1) / cfg.rows;
    const long row_tiles =
        (spec.outChannels + cfg.banks - 1) / cfg.banks;
    const long natural = std::max(col_tiles * row_tiles, 1L);
    const int macros =
        static_cast<int>(std::min<long>(natural, max_macros));

    // Per-tile HR: from weight chunks, or from synthesized activation
    // data for input-determined operators (unknown to the compiler;
    // the value only informs the runtime's activity sampling -- the
    // booster still treats these as 100% safe level).
    std::vector<mapping::Task> tasks;
    tasks.reserve(macros);
    quant::QuantizedLayer act_tile;
    if (!weights) {
        act_tile = workload::synthesizeActivationTile(
            spec,
            [] {
                pim::StreamSpec s;
                s.sigmaLsb = 40.0;
                return s;
            }(),
            seed);
    }
    for (int i = 0; i < macros; ++i) {
        mapping::Task t;
        t.layerName = spec.name;
        t.type = spec.type;
        t.setId = set_id;
        t.inputDetermined = workload::isInputDetermined(spec.type);
        // Spread the remainder over the first tiles, one MAC each,
        // so the tiles sum to the operator's MACs.
        t.macs = spec.macs() / macros +
                 (i < spec.macs() % macros ? 1 : 0);
        if (weights) {
            t.hr = chunkHr(*weights, i, macros);
        } else {
            const int chunks = std::max(macros / 4, 1);
            t.hr = chunkHr(act_tile, i % chunks, chunks);
        }
        tasks.push_back(std::move(t));
    }
    return tasks;
}

std::vector<Round>
compileModel(const workload::ModelSpec &model,
             const std::vector<quant::QuantizedLayer> &weightLayers,
             const pim::PimConfig &cfg, const CompilerConfig &ccfg)
{
    std::vector<Round> rounds;
    Round cur;
    int used = 0;
    int set_id = 0;
    size_t w = 0;
    for (const auto &spec : model.layers) {
        const quant::QuantizedLayer *weights = nullptr;
        if (!workload::isInputDetermined(spec.type)) {
            aim_assert(w < weightLayers.size(),
                       "weight layer list too short at ", spec.name);
            weights = &weightLayers[w++];
        }
        int room = cfg.macros() - used;
        if (room < 1) {
            rounds.push_back(std::move(cur));
            cur = Round{};
            used = 0;
            room = cfg.macros();
        }
        const int this_set = set_id++;
        auto tasks = tileOperator(spec, weights, cfg, this_set, room,
                                  ccfg.seed + this_set + 1);
        used += static_cast<int>(tasks.size());
        cur.tasks.insert(cur.tasks.end(), tasks.begin(), tasks.end());
    }
    aim_assert(w == weightLayers.size(),
               "unused weight layers after compile");
    if (!cur.tasks.empty())
        rounds.push_back(std::move(cur));
    return rounds;
}

} // namespace aim::sim
