/**
 * @file
 * Entry point of the repository benchmark:
 *
 *   aimbench --workload compile_lhr|replay_mesh_isa|stream_day
 *            --seed N --seconds S --trace 0|1 [--out DIR]
 *   aimbench --reference
 *
 * Runs one workload, prints its progress and check results, and ends
 * with one JSON line: {"correct", "attempted", "failed", "metrics"}.
 * Exits 0 when the run completed (whatever its checks found) and 2
 * on bad arguments.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "Bench.hh"

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "aimbench: %s\nusage: aimbench --workload "
                 "compile_lhr|replay_mesh_isa|stream_day --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n",
                 why);
    return 2;
}

/** Parse a whole-string number; false on junk. */
bool
parseNumber(const char *text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text, &end);
    return end != text && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    aimbench::RunArgs args;
    args.startS = aimbench::hostNow();
    if (argc > 1 && std::strcmp(argv[1], "--reference") == 0) {
        aimbench::printReference();
        return 0;
    }
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value after " + flag).c_str());
        const char *value = argv[++i];
        double number = 0.0;
        if (flag == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (flag == "--out") {
            args.outDir = value;
        } else if (!parseNumber(value, number) || number < 0.0) {
            return usage(("bad value for " + flag).c_str());
        } else if (flag == "--seed") {
            args.seed = static_cast<uint64_t>(number);
        } else if (flag == "--seconds") {
            args.seconds = number;
        } else if (flag == "--trace") {
            args.trace = number != 0.0;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload)
        return usage("--workload is required");

    aimbench::RunResult res;
    if (args.workload == "compile_lhr")
        res = aimbench::runCompileLhr(args);
    else if (args.workload == "replay_mesh_isa")
        res = aimbench::runReplayMeshIsa(args);
    else if (args.workload == "stream_day")
        res = aimbench::runStreamDay(args);
    else
        return usage(("unknown workload " + args.workload).c_str());

    for (const auto &p : res.problems)
        std::printf("check failed: %s\n", p.c_str());
    std::printf("attempted %ld, failed %ld, host %.1f s\n",
                res.attempted, res.failed,
                aimbench::hostNow() - args.startS);
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                res.correct() ? "true" : "false", res.attempted,
                res.failed);
    for (size_t i = 0; i < res.metrics.size(); ++i) {
        const auto &m = res.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("}}\n");
    return 0;
}
