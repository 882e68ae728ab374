#include "serve/Fleet.hh"

#include <set>

#include "stream/EventLoop.hh"
#include "util/Logging.hh"
#include "workload/ModelZoo.hh"

namespace aim::serve
{

std::string
validateFleetConfig(const FleetConfig &fcfg)
{
    if (fcfg.chips < 1)
        return util::detail::concat(
            "chips must be at least 1, got ", fcfg.chips);
    if (fcfg.threads < 0)
        return util::detail::concat(
            "threads must be non-negative (0 = hardware "
            "concurrency), got ",
            fcfg.threads);
    if (fcfg.reloadUsPerMweight < 0.0)
        return util::detail::concat(
            "reloadUsPerMweight must be non-negative, got ",
            fcfg.reloadUsPerMweight);
    if (fcfg.retuneUsPerStep < 0.0)
        return util::detail::concat(
            "retuneUsPerStep must be non-negative, got ",
            fcfg.retuneUsPerStep);
    const std::string options = validateOptions(fcfg.options);
    if (!options.empty())
        return util::detail::concat("options: ", options);
    const std::string link =
        shard::validateInterconnectConfig(fcfg.interconnect);
    if (!link.empty())
        return util::detail::concat("interconnect: ", link);
    if (fcfg.skus.empty() && !fcfg.skuOf.empty())
        return util::detail::concat(
            "skuOf assigns SKUs but the SKU table is empty: clear "
            "skuOf or configure skus");
    if (!fcfg.skus.empty()) {
        std::set<std::string> sku_names;
        for (const auto &sku : fcfg.skus) {
            const std::string bad = validateChipSku(sku);
            if (!bad.empty())
                return bad;
            if (!sku_names.insert(sku.name).second)
                return util::detail::concat(
                    "duplicate SKU name '", sku.name,
                    "': every SKU needs a distinct name (they key "
                    "compiled artifacts)");
        }
        if (fcfg.skuOf.size() != static_cast<size_t>(fcfg.chips))
            return util::detail::concat(
                "skuOf must assign a SKU to each of the ",
                fcfg.chips, " chips, got ", fcfg.skuOf.size(),
                " entries");
        for (const int idx : fcfg.skuOf)
            if (idx < 0 ||
                idx >= static_cast<int>(fcfg.skus.size()))
                return util::detail::concat(
                    "skuOf entry ", idx,
                    " is outside the SKU table [0, ",
                    fcfg.skus.size(), ")");
    }
    std::set<std::string> seen;
    for (const auto &gang : fcfg.gangs) {
        if (gang.model.empty())
            return "gang model name must not be empty";
        if (!seen.insert(gang.model).second)
            return util::detail::concat(
                "duplicate gang entry for model '", gang.model, "'");
        const std::string part =
            shard::validatePartitionConfig(gang.partition);
        if (!part.empty())
            return util::detail::concat("gang '", gang.model,
                                        "': ", part);
        if (gang.partition.chips > fcfg.chips)
            return util::detail::concat(
                "gang '", gang.model, "' needs ",
                gang.partition.chips, " chips but the fleet has ",
                fcfg.chips);
        // On a heterogeneous fleet the raw chip count is not
        // enough: each member must *hold* its weight share, so the
        // gang needs that many chips of sufficient capacity.
        // (Unknown model names are left for annotate to report.)
        if (!fcfg.skus.empty()) {
            workload::ModelSpec spec;
            if (workload::findModelByName(gang.model, spec)) {
                const double share = spec.totalWeights() / 1e6 /
                                     gang.partition.chips;
                int capable = 0;
                for (const int idx : fcfg.skuOf)
                    if (share <=
                        fcfg.skus[static_cast<size_t>(idx)]
                            .capacityMweight())
                        ++capable;
                if (capable < gang.partition.chips)
                    return util::detail::concat(
                        "gang '", gang.model, "' needs ",
                        gang.partition.chips,
                        " chips able to hold ~", share,
                        " Mweight per member but only ", capable,
                        " of the fleet's ", fcfg.chips,
                        " chips have the capacity");
            }
        }
        if (gang.microBatches < 1)
            return util::detail::concat(
                "gang '", gang.model,
                "': microBatches must be at least 1, got ",
                gang.microBatches);
    }
    return {};
}

FleetConfig
resolveDerivedCosts(FleetConfig fcfg)
{
    if (fcfg.options.isaLoadUsPerMword < 0.0)
        fcfg.options.isaLoadUsPerMword = fcfg.reloadUsPerMweight;
    if (fcfg.options.isaRetuneUs < 0.0)
        fcfg.options.isaRetuneUs = fcfg.retuneUsPerStep;
    return fcfg;
}

Fleet::Fleet(const pim::PimConfig &cfg, const power::Calibration &cal,
             const FleetConfig &fcfg)
    : cfg(cfg), cal(cal), fcfg(resolveDerivedCosts(fcfg))
{
    const std::string problem = validateFleetConfig(fcfg);
    if (!problem.empty())
        aim_fatal("invalid FleetConfig: ", problem);
}

ServeReport
Fleet::serve(const std::vector<Request> &trace, ModelCache &cache)
{
    // The default StreamConfig is the replay: no autoscaler,
    // unbounded admission, no batching, exact service and exact
    // latency vectors.
    stream::StreamConfig scfg;
    scfg.fleet = fcfg;
    return stream::EventLoop(cfg, cal, scfg).run(trace, cache);
}

} // namespace aim::serve
