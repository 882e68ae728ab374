#include "power/MeshBackend.hh"

#include <algorithm>
#include <cmath>

#include "util/Logging.hh"

namespace aim::power
{

namespace
{

/** Grid shape (rows x cols) that tiles @p n cells near-squarely. */
std::pair<int, int>
gridShape(int n)
{
    int cols = 1;
    while (cols * cols < n)
        ++cols;
    const int rows = (n + cols - 1) / cols;
    return {rows, cols};
}

/** Mean drop over a macro footprint in a solution [mV]. */
double
footprintDropMv(const PdnSolution &sol,
                const MeshBackend::Footprint &r, double vdd)
{
    double acc = 0.0;
    for (int row = r.row0; row < r.row0 + r.rows; ++row)
        for (int col = r.col0; col < r.col0 + r.cols; ++col)
            acc += (vdd - sol.voltage[static_cast<size_t>(row) *
                                          sol.size +
                                      col]) *
                   1000.0;
    return acc / (static_cast<double>(r.rows) * r.cols);
}

} // namespace

/**
 * Per-round mesh evaluator: the layout's group transfer matrix plus
 * the demand currents last injected.  Stateless apart from those --
 * every refresh is the exact DC droop of the injected currents.
 */
class MeshEval final : public IrEval
{
  public:
    MeshEval(const MeshBackend &backend,
             const std::vector<std::vector<int>> &activeMacros)
        : bk(backend), transferMv(backend.groupTransferMv(activeMacros))
    {
        const size_t groups = static_cast<size_t>(bk.bcfg.groups);
        activeCount.assign(groups, 0);
        appliedA.assign(groups, -1.0);
        demandA.assign(groups, 0.0);
        cachedDynMv.assign(groups, 0.0);
        const size_t known = std::min(groups, activeMacros.size());
        for (size_t g = 0; g < known; ++g)
            activeCount[g] = static_cast<int>(activeMacros[g].size());
    }

    void
    window(const std::vector<GroupWindow> &groups, util::Rng &rng,
           std::vector<double> &dropMv) override
    {
        const double threshold = bk.bcfg.rtogThreshold;
        bool refresh = false;
        for (size_t g = 0; g < groups.size(); ++g) {
            const GroupWindow &gw = groups[g];
            if (!gw.active || activeCount[g] == 0)
                continue;
            demandA[g] = bk.groupDemandA(gw.v, gw.fGhz, gw.rtog,
                                         activeCount[g]);
            const bool dirty =
                appliedA[g] < 0.0 ||
                std::fabs(demandA[g] - appliedA[g]) >
                    threshold * std::max(appliedA[g], 1e-6);
            if (dirty) {
                appliedA[g] = demandA[g];
                refresh = true;
            }
        }

        // Loads moved materially: the footprint drops are the
        // transfer matrix applied to the injected currents (groups
        // never injected contribute nothing).
        if (refresh) {
            const size_t n = activeCount.size();
            for (size_t g = 0; g < n; ++g) {
                if (activeCount[g] == 0)
                    continue;
                const double *row = &transferMv[g * n];
                double acc = 0.0;
                for (size_t h = 0; h < n; ++h)
                    if (appliedA[h] > 0.0)
                        acc += row[h] * appliedA[h];
                cachedDynMv[g] = bk.scale * acc;
            }
        }

        for (size_t g = 0; g < groups.size(); ++g) {
            const GroupWindow &gw = groups[g];
            if (!gw.active)
                continue;
            // Linear network: a group's drop scales with its demand
            // between load refreshes (bounded by rtogThreshold).
            const double ratio = appliedA[g] > 1e-12
                                     ? demandA[g] / appliedA[g]
                                     : 1.0;
            const double base = bk.ir.staticDropMv(gw.v) +
                                cachedDynMv[g] * ratio;
            const double noisy =
                base + rng.normal(0.0, bk.cal.dpimNoiseMv);
            dropMv[g] = std::max(noisy, 0.0);
        }
    }

  private:
    const MeshBackend &bk;
    /** Group x group transfer matrix of this layout [mV/A]. */
    std::vector<double> transferMv;
    std::vector<int> activeCount;
    std::vector<double> appliedA;
    std::vector<double> demandA;
    std::vector<double> cachedDynMv;
};

MeshBackend::MeshBackend(const IrBackendConfig &cfg,
                         const Calibration &cal)
    : bcfg(cfg), cal(cal), ir(cal)
{
    aim_assert(bcfg.groups >= 1 && bcfg.macrosPerGroup >= 1,
               "mesh backend needs a positive chip geometry");
    meshCfg.size = bcfg.meshSize;
    meshCfg.bumpPitch = bcfg.meshBumpPitch;
    meshCfg.vdd = cal.vddNominal;

    fullA = ir.demandCurrentA(
        ir.dynamicDropMv(cal.vddNominal, cal.fNominal, 1.0));

    // Full-activity solve: every macro at full activity.  Its
    // solution anchors the calibration below and seeds the transient
    // backend's electrical state.
    PdnMesh mesh(meshCfg);
    const int macros = bcfg.groups * bcfg.macrosPerGroup;
    std::vector<Footprint> fps;
    fps.reserve(static_cast<size_t>(macros));
    for (int m = 0; m < macros; ++m)
        fps.push_back(macroFootprint(m));
    const double per_macro = fullA / macros;
    for (const Footprint &r : fps)
        mesh.addBlockLoad(r.row0, r.col0, r.rows, r.cols, per_macro);
    baselineSol = mesh.solve();

    // Anchor the mesh to Equation 2: at uniform full activity the
    // mean group drop must equal the analytic dynamic drop, so the
    // two backends disagree only where layout actually matters.
    const double mesh_mean = baselineSol.meanDropMv(cal.vddNominal);
    aim_assert(mesh_mean > 0.0,
               "mesh calibration produced no droop");
    scale = ir.dynamicDropMv(cal.vddNominal, cal.fNominal, 1.0) /
            mesh_mean;

    // Transfer matrix: one unit-load solve per macro, read back as
    // the mean drop over every macro's footprint.
    transferMv.assign(static_cast<size_t>(macros) * macros, 0.0);
    PdnSolution unit;
    for (int b = 0; b < macros; ++b) {
        const Footprint &src = fps[static_cast<size_t>(b)];
        mesh.clearLoads();
        mesh.addBlockLoad(src.row0, src.col0, src.rows, src.cols, 1.0);
        mesh.resolve(unit);
        for (int a = 0; a < macros; ++a)
            transferMv[static_cast<size_t>(a) * macros + b] =
                footprintDropMv(unit, fps[static_cast<size_t>(a)],
                                cal.vddNominal);
    }
}

std::vector<double>
MeshBackend::groupTransferMv(
    const std::vector<std::vector<int>> &active_macros) const
{
    const int macros = bcfg.groups * bcfg.macrosPerGroup;
    const size_t groups = static_cast<size_t>(bcfg.groups);
    const size_t known = std::min(groups, active_macros.size());
    for (size_t g = 0; g < known; ++g)
        for (int a : active_macros[g])
            aim_assert(a >= 0 && a < macros, "macro ", a,
                       " outside the chip");
    std::vector<double> out(groups * groups, 0.0);
    for (size_t g = 0; g < known; ++g) {
        const std::vector<int> &ag = active_macros[g];
        // A group's drop is the node-weighted mean over its active
        // footprints, so each macro row weighs by its node count.
        std::vector<int> macro_nodes;
        long nodes = 0;
        for (int a : ag) {
            const Footprint f = macroFootprint(a);
            macro_nodes.push_back(f.rows * f.cols);
            nodes += macro_nodes.back();
        }
        for (size_t h = 0; h < known; ++h) {
            const std::vector<int> &ah = active_macros[h];
            if (ag.empty() || ah.empty())
                continue;
            double acc = 0.0;
            for (size_t i = 0; i < ag.size(); ++i) {
                const double *row =
                    &transferMv[static_cast<size_t>(ag[i]) * macros];
                double sum = 0.0;
                for (int b : ah)
                    sum += row[b];
                acc += static_cast<double>(macro_nodes[i]) * sum;
            }
            out[g * groups + h] =
                acc / (static_cast<double>(nodes) *
                       static_cast<double>(ah.size()));
        }
    }
    return out;
}

std::vector<std::vector<MeshBackend::Footprint>>
MeshBackend::groupRects(
    const std::vector<std::vector<int>> &active_macros) const
{
    std::vector<std::vector<Footprint>> rects(
        static_cast<size_t>(bcfg.groups));
    const int known = std::min(
        bcfg.groups, static_cast<int>(active_macros.size()));
    for (int g = 0; g < known; ++g)
        for (int m : active_macros[static_cast<size_t>(g)])
            rects[static_cast<size_t>(g)].push_back(
                macroFootprint(m));
    return rects;
}

std::vector<MeshBackend::GroupNodes>
MeshBackend::groupNodeLists(
    const std::vector<std::vector<Footprint>> &rects) const
{
    const int n = meshCfg.size;
    std::vector<GroupNodes> out(rects.size());
    for (size_t g = 0; g < rects.size(); ++g) {
        const auto &rs = rects[g];
        if (rs.empty())
            continue;
        GroupNodes &gn = out[g];
        const double per_macro =
            1.0 / static_cast<double>(rs.size());
        for (const auto &r : rs) {
            const double w =
                per_macro /
                (static_cast<double>(r.rows) * r.cols);
            for (int row = r.row0; row < r.row0 + r.rows; ++row)
                for (int col = r.col0; col < r.col0 + r.cols;
                     ++col) {
                    gn.nodes.push_back(row * n + col);
                    gn.weightPerAmp.push_back(w);
                }
        }
    }
    return out;
}

double
MeshBackend::nodesDropMv(const PdnSolution &sol, const GroupNodes &gn,
                         double vdd)
{
    double acc = 0.0;
    for (int node : gn.nodes)
        acc += (vdd - sol.voltage[static_cast<size_t>(node)]) *
               1000.0;
    return gn.nodes.empty()
               ? 0.0
               : acc / static_cast<double>(gn.nodes.size());
}

MeshBackend::Footprint
MeshBackend::macroFootprint(int m) const
{
    const auto [g_rows, g_cols] = gridShape(bcfg.groups);
    const auto [m_rows, m_cols] = gridShape(bcfg.macrosPerGroup);
    const int g = m / bcfg.macrosPerGroup;
    const int local = m % bcfg.macrosPerGroup;
    const int gr = g / g_cols;
    const int gc = g % g_cols;
    const int mr = local / m_cols;
    const int mc = local % m_cols;
    const int n = meshCfg.size;

    const int tile_r0 = gr * n / g_rows;
    const int tile_r1 = (gr + 1) * n / g_rows;
    const int tile_c0 = gc * n / g_cols;
    const int tile_c1 = (gc + 1) * n / g_cols;
    const int tile_rows = tile_r1 - tile_r0;
    const int tile_cols = tile_c1 - tile_c0;

    Footprint out;
    out.row0 = tile_r0 + mr * tile_rows / m_rows;
    out.col0 = tile_c0 + mc * tile_cols / m_cols;
    out.rows =
        std::max(1, tile_r0 + (mr + 1) * tile_rows / m_rows -
                        out.row0);
    out.cols =
        std::max(1, tile_c0 + (mc + 1) * tile_cols / m_cols -
                        out.col0);
    return out;
}

double
MeshBackend::groupDemandA(double v, double fGhz, double rtog,
                          int active_macros) const
{
    const int macros = bcfg.groups * bcfg.macrosPerGroup;
    return ir.demandCurrentA(ir.dynamicDropMv(v, fGhz, rtog)) *
           active_macros / macros;
}

std::unique_ptr<IrEval>
MeshBackend::newEval(
    const std::vector<std::vector<int>> &activeMacros) const
{
    return std::make_unique<MeshEval>(*this, activeMacros);
}

} // namespace aim::power
