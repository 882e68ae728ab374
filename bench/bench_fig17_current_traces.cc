/**
 * @file
 * Paper Figure 17: demanded drive current, bump voltage and bump
 * current over a 30 ns trace window, before and after AIM.  Per-cycle
 * Rtog comes from the statistical sampler at each configuration's
 * operating point; bump observables come from the PDN mesh.
 */

#include "BenchCommon.hh"

#include "pim/ToggleModel.hh"
#include "util/Stats.hh"
#include "power/PdnMesh.hh"

using namespace aim;
using namespace aim::bench;

namespace
{

struct TracePoint
{
    double currentA;
    double bumpV;
    double bumpI;
};

std::vector<TracePoint>
trace(double hr, double v, double fGhz, uint64_t seed, int steps)
{
    const auto cal = power::defaultCalibration();
    const power::IrModel ir(cal);
    pim::StreamSpec stream;
    stream.sigmaLsb = 36.0;
    const auto toggles = pim::estimateToggleStats(stream, 128, 80, 5);
    pim::RtogSampler sampler(hr, toggles, util::Rng(seed));

    power::PdnMeshConfig mcfg;
    mcfg.size = 24;
    mcfg.bumpPitch = 4;
    mcfg.vdd = v;

    // One mesh (one factorization) across the trace: each step only
    // swaps the block current and re-solves in place.
    power::PdnMesh mesh(mcfg);
    power::PdnSolution sol;
    std::vector<TracePoint> out;
    for (int i = 0; i < steps; ++i) {
        const double rtog = sampler.sample();
        const double demand =
            ir.demandCurrentA(ir.dropMv(v, fGhz, rtog));
        mesh.clearLoads();
        mesh.addBlockLoad(8, 8, 8, 8, demand);
        mesh.resolve(sol);
        out.push_back({demand, sol.bumpVoltage, sol.bumpCurrentA});
    }
    return out;
}

void
summarize(const char *label, const std::vector<TracePoint> &pts)
{
    util::RunningStats cur;
    util::RunningStats bv;
    util::RunningStats bi;
    for (const auto &p : pts) {
        cur.add(p.currentA);
        bv.add(p.bumpV);
        bi.add(p.bumpI);
    }
    std::printf("%-11s demand I: mean %.2f A peak %.2f A | bump V: "
                "mean %.3f V min %.3f V | bump I: mean %.2f A peak "
                "%.2f A\n",
                label, cur.mean(), cur.max(), bv.mean(), bv.min(),
                bi.mean(), bi.max());
}

} // namespace

int
main()
{
    banner("Figure 17",
           "drive current / bump voltage / bump current traces");

    const int steps = 30;
    // Before: baseline weights at nominal V-f; after: LHR+WDS HR at
    // the IR-Booster low-power point.
    const auto before = trace(0.50, 0.75, 1.0, 11, steps);
    const auto after = trace(0.32, 0.68, 1.0, 11, steps);

    std::printf("\n%4s  %25s  %25s\n", "step",
                "before: I(A) Vb(V) Ib(A)", "after: I(A) Vb(V) Ib(A)");
    for (int i = 0; i < steps; i += 3)
        std::printf("%4d  %8.2f %8.3f %7.2f  %8.2f %8.3f %7.2f\n", i,
                    before[i].currentA, before[i].bumpV,
                    before[i].bumpI, after[i].currentA,
                    after[i].bumpV, after[i].bumpI);
    std::printf("\n");
    summarize("before AIM:", before);
    summarize("after AIM:", after);
    std::printf("Shape (paper): demanded current and bump current "
                "fall, bump voltage flattens after AIM.\n");
    return 0;
}
