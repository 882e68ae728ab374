/**
 * @file
 * Chip acquire/release, serving-cost and request-annotation layer of
 * the discrete-event serving loop (stream/EventLoop), which also
 * serves the finite-trace Fleet replay (serve/Fleet is an adapter
 * over it).  The pieces:
 *
 *   ChipPool     -- per-chip clock / resident-model / safe-level
 *                   slots with earliest-free selection and atomic
 *                   gang acquisition; slots carry an `active` flag so
 *                   the streaming autoscaler can grow and shrink the
 *                   dispatchable pool without disturbing busy chips
 *   dispatchCost -- the serving-cost model: reload on a resident
 *                   switch, booster retune per safe-level step
 *   ArtifactMeta -- annotation of a Request into a QueuedRequest:
 *                   artifact resolution through the ModelCache plus
 *                   the memoized per-artifact scheduling keys
 *                   (estimated service time, safe level, reload
 *                   cost, gang slot layout)
 *
 * The FleetTest replay digests and the FleetParallelTest /
 * FleetGangTest bit-identity suites pin the arithmetic.
 */

#ifndef AIM_SERVE_DISPATCH_HH
#define AIM_SERVE_DISPATCH_HH

#include <map>
#include <string>
#include <vector>

#include "power/VfTable.hh"
#include "serve/Fleet.hh"
#include "serve/ModelCache.hh"
#include "serve/Scheduler.hh"

namespace aim::isa
{
class Engine;
} // namespace aim::isa

namespace aim::serve
{

/**
 * The SKU structure of a fleet as the dispatch layer consumes it:
 * which capability class each chip belongs to and what that class
 * can hold.  A "class" is an index into FleetConfig::skus; a
 * homogeneous (SKU-less) fleet collapses to one class of unbounded
 * capacity, so every capability check is vacuously true and legacy
 * behavior is bit-identical.
 */
class FleetSkus
{
  public:
    explicit FleetSkus(const FleetConfig &fcfg);

    /** SKU table configured (capability checks active)? */
    bool heterogeneous() const { return !skus.empty(); }

    /** Capability classes (1 for a homogeneous fleet). */
    int classes() const
    {
        return heterogeneous() ? static_cast<int>(skus.size()) : 1;
    }

    /** Class of chip @p c (0 on a homogeneous fleet). */
    int classOf(int c) const
    {
        return heterogeneous() ? assignment[static_cast<size_t>(c)]
                               : 0;
    }

    /** SKU of class @p cls; nullptr on a homogeneous fleet. */
    const ChipSku *sku(int cls) const
    {
        return heterogeneous() ? &skus[static_cast<size_t>(cls)]
                               : nullptr;
    }

    /** Weight capacity of class @p cls [Mweight]; +inf when
     * homogeneous (everything fits, as before SKUs existed). */
    double capacity(int cls) const;

    /** Can class @p cls hold a model of @p mweight Mweight? */
    bool fits(int cls, double mweight) const
    {
        return mweight <= capacity(cls);
    }

    /**
     * Member classes a gang of @p gangChips chips occupies, in slot
     * order: the classes of the @p gangChips most-capable chips that
     * can hold @p shareMweight per member (capacity descending, chip
     * id ascending -- slot 0 gets the biggest part, which is also how
     * the capacity-aware partitioner sizes stage 0).  Empty when
     * fewer than @p gangChips chips are capable, or -- homogeneous --
     * a vector of zeros (every chip qualifies).
     */
    std::vector<int> gangSlotClasses(int gangChips,
                                     double shareMweight) const;

  private:
    std::vector<ChipSku> skus;
    std::vector<int> assignment;
    int chips = 0;
};

/** One chip's dispatch state inside a fleet. */
struct ChipSlot
{
    /** Simulated time the chip finishes its current work [us]. */
    double freeAtUs = 0.0;
    /** Model whose weights are resident ("" when cold). */
    std::string resident;
    /** Safe level the chip's booster is currently tuned for [%]. */
    int safeLevel = 100;
    /**
     * Trailing-compute window of the chip's last request [us,
     * full-inference scale]: the tail idle the ISA engine measured
     * while the slowest Set finished.  A successor request's weight
     * reload overlaps into it (dispatchCost).  Stays 0 on the
     * round-level path, so flat fleets are unaffected.
     */
    double overlapUs = 0.0;
    /**
     * Dispatchable?  Inactive chips finish whatever they are running
     * but receive no new work -- the streaming autoscaler's shrink
     * primitive.  Without an autoscaler every chip stays active.
     */
    bool active = true;
};

/**
 * The chips of a fleet as a dispatch resource: who is free when, and
 * which chips a request (or gang) should occupy next.  Selection
 * rules are deterministic: ties break toward the lowest chip id.
 */
class ChipPool
{
  public:
    explicit ChipPool(int chips);

    int size() const { return static_cast<int>(slots.size()); }

    ChipSlot &slot(int c) { return slots[static_cast<size_t>(c)]; }

    const ChipSlot &slot(int c) const
    {
        return slots[static_cast<size_t>(c)];
    }

    /**
     * Active chip already free at @p nowUs with the smallest
     * (freeAtUs, id), or -1 when every active chip is still busy.
     * The streaming loop's "can anything dispatch?" probe.
     */
    int freeChipAt(double nowUs) const;

    /**
     * The members a gang request acquires atomically: member j is
     * an active chip of class slotClasses[j], each slot taking the
     * earliest-free (ties -> lowest id) not-yet-taken chip of its
     * class.  On a homogeneous fleet (all classes 0) that is the
     * slotClasses.size() earliest-free active chips.  Returns an
     * EMPTY vector when any slot cannot be filled from the active
     * pool (e.g. the autoscaler shrank it below the gang); callers
     * reactivate chips and retry, or fail loudly.
     */
    std::vector<int>
    acquireGang(const std::vector<int> &slotClasses) const;

    /** Per-chip capability class (FleetSkus::classOf); defaults to
     * all zeros.  Size must match the pool. */
    void setClassOf(std::vector<int> classes);

    /** Class of chip @p c. */
    int classOf(int c) const
    {
        return classes.empty() ? 0
                               : classes[static_cast<size_t>(c)];
    }

    /**
     * Per-class minimum active counts deactivateOne must preserve
     * (the capability-aware analogue of its count floor): gangs need
     * their slot classes active no matter what the autoscaler wants.
     * Empty (default) = no class floors.
     */
    void setClassFloor(std::vector<int> floor);

    /** Active chips of class @p cls. */
    int activeCountOfClass(int cls) const;

    /** Activate the lowest-id inactive chip whose class is in
     * @p slotClasses; false when none exists. */
    bool activateOneOfClasses(const std::vector<int> &slotClasses);

    /** Dispatchable chips. */
    int activeCount() const;

    /** Activate the lowest-id inactive chip; false when all active. */
    bool activateOne();

    /**
     * Deactivate the highest-id active chip whose class floor
     * (setClassFloor) permits it, refusing to go below @p minActive
     * chips overall; false when nothing can be shut down.
     */
    bool deactivateOne(int minActive);

  private:
    std::vector<ChipSlot> slots;
    std::vector<int> classes;
    std::vector<int> classFloor;
};

/** Serving-cost outcome of placing a request on a chip. */
struct DispatchCost
{
    /** Weight reload paid before execution [us] (0 on a hit; net of
     * any reload/compute overlap). */
    double reloadUs = 0.0;
    /** Booster V-f retune paid before execution [us]. */
    double retuneUs = 0.0;
    /** Reload hidden under the previous request's trailing compute
     * [us] (ISA path only; 0 without an overlap budget). */
    double overlapSavedUs = 0.0;
    /** The placement rewrites the chip's resident weights. */
    bool modelSwitch = false;
};

/**
 * Cost of running (@p model, @p safeLevel) on @p chip: a full weight
 * reload when the resident model differs, a booster retune per
 * safe-level step between the chip's current tuning and the
 * artifact's level.  Pure; does not mutate the slot.
 *
 * @param overlapUs trailing-compute window of the chip's previous
 *        request [us] (ChipSlot::overlapUs).  On a model switch the
 *        successor's LOAD_WEIGHT streams while the predecessor's
 *        slowest Sets still compute, so up to this much of the
 *        reload is free.  The default 0 reproduces the flat
 *        round-level cost exactly.
 */
DispatchCost dispatchCost(const ChipSlot &chip,
                          const std::string &model, int safeLevel,
                          double reloadUs, bool useBooster,
                          double levelStepPct,
                          double retuneUsPerStep,
                          double overlapUs = 0.0);

/** A request execution's outcome as the dispatch layer sees it. */
struct ExecResult
{
    /** The chip-level report (bit-identical on either path). */
    sim::RunReport run;
    /**
     * Tail-idle window of the execution [us, full-inference scale]:
     * how long the fastest Sets idled while the slowest finished the
     * final round.  The next request's reload overlaps into it.
     * 0 on the round-level path (the round runtime cannot see it).
     */
    double overlapUs = 0.0;
    /**
     * Effective service wall of the request [ns, workScale-sized
     * like run.wallTimeNs]: run.wallTimeNs on both default paths,
     * the cost-modelled scheduled makespan when the artifact carries
     * an isaSchedule Schedule (per-round load/retune costs charged
     * minus what the pipeliner hides).  The serving engines charge
     * chips this, not run.wallTimeNs.
     */
    double serviceNs = 0.0;
    /** Scheduled-vs-in-order makespan saving [us, full-inference
     * scale]; 0 unless the artifact was compiled with isaSchedule. */
    double scheduleSavedUs = 0.0;
};

/**
 * Executes compiled artifacts for the serving engines, routing
 * through the round-level sim::Runtime or -- when the fleet's
 * options carry useIsa -- the instruction-level isa::Engine.  Both
 * produce bit-identical RunReports; the ISA path additionally
 * surfaces the per-request tail-idle overlap budget.  Stateless
 * across run() calls (thread-safe for concurrent use), exactly like
 * the runtimes it wraps.  One instance per SKU class per serve run.
 */
class RequestExecutor
{
  public:
    RequestExecutor(const pim::PimConfig &cfg,
                    const power::Calibration &cal,
                    const AimOptions &options);

    /** SKU-chip executor: the SKU's geometry and calibration, with
     * its PDN corner applied to the runtime (runConfigForSku). */
    RequestExecutor(const ChipSku &sku, const AimOptions &options);
    ~RequestExecutor();

    /**
     * Execute @p compiled with per-request @p seed.  @p carry has
     * Runtime::run's electrical-state-carry semantics on both paths.
     */
    ExecResult
    run(const CompiledModel &compiled, uint64_t seed,
        std::unique_ptr<power::IrState> *carry = nullptr) const;

  private:
    double workScale;
    std::unique_ptr<const sim::Runtime> runtime;
    std::unique_ptr<const isa::Engine> engine;
};

/**
 * Annotates requests with artifacts and scheduling keys, memoizing
 * the per-artifact derived quantities (estimated full-inference
 * service time, worst safe level, reload cost, gang slot layout)
 * so a million-request stream derives them once per model instead of
 * once per request.  One instance per serve run; not thread-safe.
 */
class ArtifactMeta
{
  public:
    /** Per-member-slot dispatch data of one gang artifact, in stage
     * order (tensor-parallel stages occupy `ways` slots). */
    struct GangSlots
    {
        std::vector<std::string> resident;
        std::vector<int> level;
        std::vector<double> reloadUs;
    };

    ArtifactMeta(const FleetConfig &fcfg,
                 const power::Calibration &cal);

    /**
     * Resolve @p request into a QueuedRequest: artifact from
     * @p cache (compiled on first use), gang routing per the fleet's
     * GangSpecs, memoized scheduling keys.  On a heterogeneous fleet
     * single-chip artifacts compile per fitting SKU class
     * (QueuedRequest::compiledByClass) and gang artifacts compile
     * against their slot SKUs; a model that fits no chip the fleet
     * instantiates is fatal (the trace cannot be served).
     */
    QueuedRequest annotate(const Request &request, ModelCache &cache);

    /** Full weight-reload cost of a (non-gang) model [us]. */
    double reloadUs(const std::string &model) const;

    /** Slot layout of a gang artifact annotated earlier. */
    const GangSlots &gangSlots(const shard::ShardedModel *m) const;

    /**
     * Member classes of a gang artifact, in slot order (empty on a
     * homogeneous fleet: class-blind count acquisition applies).
     */
    const std::vector<int> &
    gangClasses(const shard::ShardedModel *m) const;

    /** Gang rule of @p model, or nullptr when it serves single-chip. */
    const GangSpec *gangSpec(const std::string &model) const;

    /** The fleet's SKU structure. */
    const FleetSkus &fleetSkus() const { return skus; }

  private:
    struct ArtifactInfo
    {
        double estServiceUs = 0.0;
        int safeLevel = 100;
    };

    struct GangInfo
    {
        double estServiceUs = 0.0;
        int safeLevel = 100;
        GangSlots slots;
        std::vector<int> slotClasses;
    };

    const FleetConfig *fcfg;
    power::Calibration cal;
    power::VfTable table;
    FleetSkus skus;
    /** Per-class V-f tables of a heterogeneous fleet (safe-level
     * derivation); empty when homogeneous. */
    std::vector<power::VfTable> classTable;
    std::map<std::string, const GangSpec *> gangOf;
    std::map<std::string, double> reloadByModel;
    /** Weight footprint per model [Mweight] (capability checks). */
    std::map<std::string, double> mweightByModel;
    std::map<const CompiledModel *, ArtifactInfo> artifactInfo;
    std::map<const shard::ShardedModel *, GangInfo> gangInfo;
};

/**
 * Per-member preparation of a gang dispatch: charge every member
 * chip its stage reload + retune (overlap does not apply -- gang
 * members load different stage weights than the single-chip
 * artifact that left the tail window), account usage, and rewrite
 * the member's resident/level/overlap state.
 *
 * @return the gang's preparation time [us]: the slowest member's
 *         reload + retune (members prepare in parallel)
 */
double prepareGangMembers(ChipPool &pool,
                          const std::vector<int> &member,
                          const ArtifactMeta::GangSlots &slots,
                          double serviceUs, bool useBooster,
                          double levelStepPct,
                          double retuneUsPerStep,
                          std::vector<ChipUsage> &usage);

} // namespace aim::serve

#endif // AIM_SERVE_DISPATCH_HH
