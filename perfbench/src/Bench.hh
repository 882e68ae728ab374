/**
 * @file
 * Shared declarations of the repository benchmark harness: the run
 * arguments, the result every run prints, and the three workloads.
 *
 * A run executes one workload in one process.  The untraced run
 * (--trace 0) measures the end-to-end metrics; the traced run
 * (--trace 1) repeats the workload's work through each layer's own
 * entry points under host-time spans and prints the per-layer
 * metrics.  Both check the program's outputs and count the
 * operations they attempted and the ones that failed.
 */
#ifndef AIMBENCH_BENCH_HH
#define AIMBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <vector>

namespace aimbench
{

/** Command-line arguments of one run. */
struct RunArgs
{
    std::string workload;
    uint64_t seed = 1;
    /** Length of the timed phase [s]. */
    double seconds = 15.0;
    bool trace = false;
    /** Directory the traced run writes its span log into. */
    std::string outDir = ".";
    /** hostNow() at process start (set-up times count from it). */
    double startS = 0.0;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one run prints. */
struct RunResult
{
    /** Operations attempted / failed (compiles, trace requests or
     * stream arrivals, per workload). */
    long attempted = 0;
    long failed = 0;
    std::vector<Metric> metrics;
    /** Violated whole-run properties; any entry makes the run
     * incorrect. */
    std::vector<std::string> problems;

    void add(const std::string &name, double value,
             const std::string &unit);
    /** Record a whole-run property; false adds a problem. */
    void require(bool ok, const std::string &what);
    bool correct() const { return problems.empty(); }
};

/** Host wall clock [s] (steady, arbitrary epoch). */
double hostNow();

/** CPU time of the calling thread [s]: blind to the time the
 * thread spends descheduled on a shared host. */
double threadCpuNow();

/** Peak resident set size of this process so far [MiB]. */
double peakRssMib();

/** Host worker threads of every engine: fixed at 4, capped by the
 * host's core count. */
int benchThreads();

RunResult runCompileLhr(const RunArgs &args);
RunResult runReplayMeshIsa(const RunArgs &args);
RunResult runStreamDay(const RunArgs &args);

/** Print the README's reference figures: per-model LHR compile
 * times and host cost per window of each engine and droop backend. */
void printReference();

} // namespace aimbench

#endif // AIMBENCH_BENCH_HH
