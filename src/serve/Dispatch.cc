#include "serve/Dispatch.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "isa/Engine.hh"
#include "util/Logging.hh"
#include "workload/ModelZoo.hh"

namespace aim::serve
{

FleetSkus::FleetSkus(const FleetConfig &fcfg)
    : skus(fcfg.skus), assignment(fcfg.skuOf), chips(fcfg.chips)
{
    if (!skus.empty())
        aim_assert(assignment.size() ==
                       static_cast<size_t>(fcfg.chips),
                   "skuOf must assign a SKU to each of the ",
                   fcfg.chips, " chips, got ", assignment.size(),
                   " entries");
}

double
FleetSkus::capacity(int cls) const
{
    if (!heterogeneous())
        return std::numeric_limits<double>::infinity();
    return skus[static_cast<size_t>(cls)].capacityMweight();
}

std::vector<int>
FleetSkus::gangSlotClasses(int gang_chips, double share_mweight) const
{
    if (!heterogeneous())
        return std::vector<int>(static_cast<size_t>(gang_chips), 0);
    // Rank chips by (capacity desc, id asc) and take the most
    // capable gang_chips that hold the share -- slot 0 gets the
    // biggest part, matching the capacity-aware stage sizing.
    std::vector<int> capable;
    for (int c = 0; c < chips; ++c)
        if (fits(classOf(c), share_mweight))
            capable.push_back(c);
    if (static_cast<int>(capable.size()) < gang_chips)
        return {};
    std::sort(capable.begin(), capable.end(), [&](int a, int b) {
        const double ca = capacity(classOf(a));
        const double cb = capacity(classOf(b));
        if (ca != cb)
            return ca > cb;
        return a < b;
    });
    std::vector<int> slot_classes;
    slot_classes.reserve(static_cast<size_t>(gang_chips));
    for (int j = 0; j < gang_chips; ++j)
        slot_classes.push_back(
            classOf(capable[static_cast<size_t>(j)]));
    return slot_classes;
}

ChipPool::ChipPool(int chips)
    : slots(static_cast<size_t>(chips))
{
    aim_assert(chips >= 1, "chip pool needs at least one chip, got ",
               chips);
}

int
ChipPool::freeChipAt(double now_us) const
{
    int c = -1;
    for (int i = 0; i < size(); ++i) {
        const auto &s = slots[static_cast<size_t>(i)];
        if (!s.active || s.freeAtUs > now_us)
            continue;
        if (c < 0 ||
            s.freeAtUs < slots[static_cast<size_t>(c)].freeAtUs)
            c = i;
    }
    return c;
}

std::vector<int>
ChipPool::acquireGang(const std::vector<int> &slot_classes) const
{
    std::vector<int> member;
    member.reserve(slot_classes.size());
    std::vector<char> taken(slots.size(), 0);
    for (const int cls : slot_classes) {
        int pick = -1;
        for (int i = 0; i < size(); ++i) {
            const auto &s = slots[static_cast<size_t>(i)];
            if (!s.active || taken[static_cast<size_t>(i)] ||
                classOf(i) != cls)
                continue;
            if (pick < 0 ||
                s.freeAtUs <
                    slots[static_cast<size_t>(pick)].freeAtUs)
                pick = i;
        }
        if (pick < 0)
            return {};
        taken[static_cast<size_t>(pick)] = 1;
        member.push_back(pick);
    }
    return member;
}

void
ChipPool::setClassOf(std::vector<int> chip_classes)
{
    aim_assert(chip_classes.size() == slots.size(),
               "classOf needs one class per chip: ",
               chip_classes.size(), " for ", slots.size());
    classes = std::move(chip_classes);
}

void
ChipPool::setClassFloor(std::vector<int> floor)
{
    classFloor = std::move(floor);
}

int
ChipPool::activeCountOfClass(int cls) const
{
    int n = 0;
    for (int i = 0; i < size(); ++i)
        n += (slots[static_cast<size_t>(i)].active &&
              classOf(i) == cls)
                 ? 1
                 : 0;
    return n;
}

bool
ChipPool::activateOneOfClasses(const std::vector<int> &slot_classes)
{
    for (int i = 0; i < size(); ++i) {
        auto &s = slots[static_cast<size_t>(i)];
        if (s.active)
            continue;
        const int cls = classOf(i);
        if (std::find(slot_classes.begin(), slot_classes.end(),
                      cls) != slot_classes.end()) {
            s.active = true;
            return true;
        }
    }
    return false;
}

int
ChipPool::activeCount() const
{
    int n = 0;
    for (const auto &s : slots)
        n += s.active ? 1 : 0;
    return n;
}

bool
ChipPool::activateOne()
{
    for (auto &s : slots)
        if (!s.active) {
            s.active = true;
            return true;
        }
    return false;
}

bool
ChipPool::deactivateOne(int min_active)
{
    if (activeCount() <= std::max(min_active, 1))
        return false;
    for (int i = size(); i-- > 0;) {
        auto &s = slots[static_cast<size_t>(i)];
        if (!s.active)
            continue;
        // Respect the per-class floors: a chip whose class is down
        // to the gang-required count stays up even when the fleet
        // as a whole could shrink (the capability-blind count floor
        // alone let the autoscaler strand gangs on a mixed fleet).
        const int cls = classOf(i);
        if (cls < static_cast<int>(classFloor.size()) &&
            activeCountOfClass(cls) <=
                classFloor[static_cast<size_t>(cls)])
            continue;
        s.active = false;
        return true;
    }
    return false;
}

DispatchCost
dispatchCost(const ChipSlot &chip, const std::string &model,
             int safe_level, double reload_us, bool use_booster,
             double level_step_pct, double retune_us_per_step,
             double overlap_us)
{
    DispatchCost cost;
    if (chip.resident != model) {
        // ISA-path overlap: the successor's LOAD_WEIGHT streams
        // while the predecessor's slowest Sets finish their trailing
        // windows, so the tail-idle budget hides that much of the
        // reload.  Resident hits never pay a reload, so the budget
        // only matters on a switch.
        const double saved =
            std::min(reload_us, std::max(overlap_us, 0.0));
        cost.reloadUs = reload_us - saved;
        cost.overlapSavedUs = saved;
        cost.modelSwitch = true;
    }
    if (use_booster && level_step_pct > 0)
        cost.retuneUs = std::abs(safe_level - chip.safeLevel) /
                        level_step_pct * retune_us_per_step;
    return cost;
}

RequestExecutor::RequestExecutor(const pim::PimConfig &cfg,
                                 const power::Calibration &cal,
                                 const AimOptions &options)
    : workScale(options.workScale)
{
    const sim::RunConfig rcfg = runConfigFor(options);
    if (options.useIsa)
        engine = std::make_unique<const isa::Engine>(cfg, cal, rcfg);
    else
        runtime =
            std::make_unique<const sim::Runtime>(cfg, cal, rcfg);
}

RequestExecutor::RequestExecutor(const ChipSku &sku,
                                 const AimOptions &options)
    : workScale(options.workScale)
{
    const sim::RunConfig rcfg = runConfigForSku(options, sku);
    if (options.useIsa)
        engine = std::make_unique<const isa::Engine>(sku.pim,
                                                     sku.cal, rcfg);
    else
        runtime = std::make_unique<const sim::Runtime>(sku.pim,
                                                       sku.cal, rcfg);
}

RequestExecutor::~RequestExecutor() = default;

ExecResult
RequestExecutor::run(const CompiledModel &compiled, uint64_t seed,
                     std::unique_ptr<power::IrState> *carry) const
{
    ExecResult out;
    if (engine) {
        aim_assert(compiled.program, "useIsa fleet executes ",
                   compiled.modelName,
                   " but its artifact carries no lowered program");
        const isa::EngineReport er = engine->run(
            *compiled.program, compiled.stream, seed, carry,
            nullptr, compiled.schedule.get());
        out.run = er.run;
        out.overlapUs = er.tailIdleNs / 1000.0 / workScale;
        // Scheduled artifacts are billed their cost-modelled
        // makespan (loads/retunes charged at instruction grain,
        // pipelining credited); plain ISA keeps the physics wall.
        out.serviceNs = compiled.schedule ? er.scheduledMakespanNs
                                          : er.run.wallTimeNs;
        out.scheduleSavedUs =
            er.scheduleSavedNs / 1000.0 / workScale;
    } else {
        out.run = runtime->run(compiled.rounds, compiled.stream,
                               seed, carry);
        out.serviceNs = out.run.wallTimeNs;
    }
    return out;
}

double
prepareGangMembers(ChipPool &pool, const std::vector<int> &member,
                   const ArtifactMeta::GangSlots &slots,
                   double service_us, bool use_booster,
                   double level_step_pct, double retune_us_per_step,
                   std::vector<ChipUsage> &usage)
{
    double prep = 0.0;
    for (size_t j = 0; j < member.size(); ++j) {
        ChipSlot &chip = pool.slot(member[j]);
        ChipUsage &u = usage[static_cast<size_t>(member[j])];
        const DispatchCost cost = dispatchCost(
            chip, slots.resident[j], slots.level[j],
            slots.reloadUs[j], use_booster, level_step_pct,
            retune_us_per_step);
        if (cost.modelSwitch)
            ++u.modelSwitches;
        prep = std::max(prep, cost.reloadUs + cost.retuneUs);
        u.reloadUs += cost.reloadUs;
        u.retuneUs += cost.retuneUs;
        u.busyUs += service_us;
        ++u.served;
        chip.resident = slots.resident[j];
        chip.safeLevel = slots.level[j];
        // The stage execution is opaque to the dispatch layer; no
        // tail window survives a gang placement.
        chip.overlapUs = 0.0;
    }
    return prep;
}

ArtifactMeta::ArtifactMeta(const FleetConfig &fcfg,
                           const power::Calibration &cal)
    : fcfg(&fcfg), cal(cal), table(cal), skus(fcfg)
{
    if (skus.heterogeneous()) {
        classTable.reserve(static_cast<size_t>(skus.classes()));
        for (int cls = 0; cls < skus.classes(); ++cls)
            classTable.emplace_back(skus.sku(cls)->cal);
    }
    for (const auto &gang : fcfg.gangs)
        gangOf[gang.model] = &gang;
}

const std::vector<int> &
ArtifactMeta::gangClasses(const shard::ShardedModel *m) const
{
    return gangInfo.at(m).slotClasses;
}

const GangSpec *
ArtifactMeta::gangSpec(const std::string &model) const
{
    const auto it = gangOf.find(model);
    return it != gangOf.end() ? it->second : nullptr;
}

double
ArtifactMeta::reloadUs(const std::string &model) const
{
    return reloadByModel.at(model);
}

const ArtifactMeta::GangSlots &
ArtifactMeta::gangSlots(const shard::ShardedModel *m) const
{
    return gangInfo.at(m).slots;
}

QueuedRequest
ArtifactMeta::annotate(const Request &request, ModelCache &cache)
{
    const double work_scale = fcfg->options.workScale;
    QueuedRequest q;
    q.request = request;
    const GangSpec *gang = gangSpec(request.model);
    if (gang && skus.heterogeneous()) {
        // A gang member hosts its stage's share of the weights; route
        // every slot to a SKU that can hold that share (biggest parts
        // first, matching the capacity-aware stage sizing) and
        // compile each stage against its slot's chip.
        if (!mweightByModel.count(request.model))
            mweightByModel[request.model] =
                workload::modelByName(request.model).totalWeights() /
                1e6;
        const double share = mweightByModel.at(request.model) /
                             gang->partition.chips;
        q.requiredMweight = share;
        const std::vector<int> slot_classes =
            skus.gangSlotClasses(gang->partition.chips, share);
        if (slot_classes.empty())
            aim_fatal("gang for model '", request.model, "' needs ",
                      gang->partition.chips,
                      " chips able to hold ~", share,
                      " Mweight each, but the fleet cannot supply "
                      "them (validateFleetConfig should have "
                      "rejected this)");
        shard::PartitionConfig pcfg = gang->partition;
        pcfg.memberCapacity.clear();
        std::vector<ChipSku> slot_skus;
        slot_skus.reserve(slot_classes.size());
        for (const int cls : slot_classes) {
            pcfg.memberCapacity.push_back(skus.capacity(cls));
            slot_skus.push_back(*skus.sku(cls));
        }
        q.sharded = cache.getSharded(request.model, fcfg->options,
                                     pcfg, slot_skus);
        q.gangChips = q.sharded->totalChips();
        auto info_it = gangInfo.find(q.sharded.get());
        if (info_it == gangInfo.end()) {
            GangInfo info;
            info.estServiceUs =
                2.0 * (q.sharded->scaledMacs() / work_scale) /
                cal.peakTops / 1e6;
            info.safeLevel = 0; // worst stage level below
            size_t slot = 0;
            for (size_t s = 0; s < q.sharded->stages.size(); ++s) {
                const auto &stage = q.sharded->plan.stages[s];
                // The stage parks at the level its *own* chip's V-f
                // table demands (TP members share the first slot's).
                const int cls = slot_classes[slot];
                const int level = artifactSafeLevel(
                    q.sharded->stages[s],
                    classTable[static_cast<size_t>(cls)]);
                info.safeLevel = std::max(info.safeLevel, level);
                const double reload = stage.weights / 1e6 *
                                      fcfg->reloadUsPerMweight;
                for (int w = 0; w < stage.ways; ++w) {
                    info.slots.resident.push_back(
                        stage.subModel.name);
                    info.slots.level.push_back(level);
                    info.slots.reloadUs.push_back(reload);
                    info.slotClasses.push_back(
                        slot_classes[slot +
                                     static_cast<size_t>(w)]);
                }
                slot += static_cast<size_t>(stage.ways);
            }
            info_it =
                gangInfo.emplace(q.sharded.get(), std::move(info))
                    .first;
        }
        q.estServiceUs = info_it->second.estServiceUs;
        q.safeLevel = info_it->second.safeLevel;
    } else if (gang) {
        q.sharded = cache.getSharded(request.model, fcfg->options,
                                     gang->partition);
        q.gangChips = q.sharded->totalChips();
        auto info_it = gangInfo.find(q.sharded.get());
        if (info_it == gangInfo.end()) {
            GangInfo info;
            info.estServiceUs =
                2.0 * (q.sharded->scaledMacs() / work_scale) /
                cal.peakTops / 1e6;
            info.safeLevel = 0; // worst stage level below
            for (size_t s = 0; s < q.sharded->stages.size(); ++s) {
                const auto &stage = q.sharded->plan.stages[s];
                const int level =
                    artifactSafeLevel(q.sharded->stages[s], table);
                info.safeLevel = std::max(info.safeLevel, level);
                const double reload = stage.weights / 1e6 *
                                      fcfg->reloadUsPerMweight;
                for (int w = 0; w < stage.ways; ++w) {
                    info.slots.resident.push_back(
                        stage.subModel.name);
                    info.slots.level.push_back(level);
                    info.slots.reloadUs.push_back(reload);
                }
            }
            info_it =
                gangInfo.emplace(q.sharded.get(), std::move(info))
                    .first;
        }
        q.estServiceUs = info_it->second.estServiceUs;
        q.safeLevel = info_it->second.safeLevel;
    } else if (skus.heterogeneous()) {
        // One artifact per SKU class that can hold the model; the
        // scheduling keys default to the most capable fitting class
        // (dispatch substitutes the actual chip's class at placement
        // time).  A model that no chip of the fleet can hold (fitting
        // a configured SKU no chip instantiates is not enough) cannot
        // be served at all: fail loudly rather than queue it forever.
        if (!reloadByModel.count(request.model)) {
            const auto spec = workload::modelByName(request.model);
            mweightByModel[request.model] =
                spec.totalWeights() / 1e6;
            reloadByModel[request.model] =
                mweightByModel[request.model] *
                fcfg->reloadUsPerMweight;
        }
        q.requiredMweight = mweightByModel.at(request.model);
        bool placeable = false;
        for (int c = 0; c < fcfg->chips && !placeable; ++c)
            placeable = skus.fits(skus.classOf(c), q.requiredMweight);
        if (!placeable)
            aim_fatal("model '", request.model, "' (",
                      q.requiredMweight,
                      " Mweight) fits no chip of the fleet");
        const int nclasses = skus.classes();
        q.compiledByClass.assign(static_cast<size_t>(nclasses),
                                 nullptr);
        q.safeLevelByClass.assign(static_cast<size_t>(nclasses),
                                  100);
        int best = -1;
        for (int cls = 0; cls < nclasses; ++cls) {
            if (!skus.fits(cls, q.requiredMweight))
                continue;
            q.compiledByClass[static_cast<size_t>(cls)] =
                cache.get(request.model, fcfg->options,
                          *skus.sku(cls));
            q.safeLevelByClass[static_cast<size_t>(cls)] =
                artifactSafeLevel(
                    *q.compiledByClass[static_cast<size_t>(cls)],
                    classTable[static_cast<size_t>(cls)]);
            if (best < 0 ||
                skus.capacity(cls) > skus.capacity(best))
                best = cls;
        }
        q.compiled = q.compiledByClass[static_cast<size_t>(best)];
        q.safeLevel =
            q.safeLevelByClass[static_cast<size_t>(best)];
        auto info_it = artifactInfo.find(q.compiled.get());
        if (info_it == artifactInfo.end()) {
            ArtifactInfo info;
            const double full_macs =
                q.compiled->scaledMacs() / work_scale;
            info.estServiceUs = 2.0 * full_macs / cal.peakTops / 1e6;
            info.safeLevel = q.safeLevel;
            info_it =
                artifactInfo.emplace(q.compiled.get(), info).first;
        }
        q.estServiceUs = info_it->second.estServiceUs;
    } else {
        q.compiled = cache.get(request.model, fcfg->options);
        auto info_it = artifactInfo.find(q.compiled.get());
        if (info_it == artifactInfo.end()) {
            ArtifactInfo info;
            const double full_macs =
                q.compiled->scaledMacs() / work_scale;
            info.estServiceUs = 2.0 * full_macs / cal.peakTops / 1e6;
            info.safeLevel = artifactSafeLevel(*q.compiled, table);
            info_it =
                artifactInfo.emplace(q.compiled.get(), info).first;
        }
        q.estServiceUs = info_it->second.estServiceUs;
        q.safeLevel = info_it->second.safeLevel;
        if (!reloadByModel.count(request.model)) {
            const auto spec = workload::modelByName(request.model);
            reloadByModel[request.model] = spec.totalWeights() /
                                           1e6 *
                                           fcfg->reloadUsPerMweight;
        }
    }
    return q;
}

} // namespace aim::serve
