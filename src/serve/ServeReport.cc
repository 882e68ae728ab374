#include "serve/ServeReport.hh"

#include <cstdio>
#include <sstream>

#include "util/Stats.hh"
#include "util/Table.hh"

namespace aim::serve
{

double
ChipUsage::utilization(double makespan_us) const
{
    return makespan_us > 0.0 ? busyUs / makespan_us : 0.0;
}

namespace
{

/** Latencies of the requests that completed (a stream's shed
 * requests hold -1). */
std::vector<double>
completedLatencies(const std::vector<double> &latency_us)
{
    std::vector<double> out;
    out.reserve(latency_us.size());
    for (const double l : latency_us)
        if (l >= 0.0)
            out.push_back(l);
    return out;
}

} // namespace

double
ServeReport::latencyPercentile(double p) const
{
    const std::vector<double> done = completedLatencies(latencyUs);
    return done.empty() ? 0.0 : util::percentile(done, p);
}

double
ServeReport::meanLatencyUs() const
{
    return util::mean(completedLatencies(latencyUs));
}

double
ServeReport::throughputRps() const
{
    return makespanUs > 0.0 ? requests / (makespanUs / 1e6) : 0.0;
}

double
ServeReport::aggregateTops() const
{
    if (makespanUs <= 0.0)
        return 0.0;
    // ops/s = 2 * macs / (makespanUs / 1e6); TOPS divides by 1e12.
    return 2.0 * totalMacs / makespanUs / 1e6;
}

long
ServeReport::totalModelSwitches() const
{
    long switches = 0;
    for (const auto &c : chips)
        switches += c.modelSwitches;
    return switches;
}

std::string
ServeReport::render() const
{
    char line[160];
    std::snprintf(line, sizeof(line),
                  "policy %s [%s droop]: %ld requests in %.2f ms "
                  "(%.0f req/s, %.1f effective TOPS)\n",
                  policyName(policy), power::irBackendName(backend),
                  requests, makespanUs / 1e3, throughputRps(),
                  aggregateTops());
    return line + renderBody(meanLatencyUs());
}

std::string
ServeReport::renderBody(double mean_us) const
{
    std::ostringstream os;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "latency  p50 %.1f us  p95 %.1f us  p99 %.1f us  "
                  "mean %.1f us\n",
                  p50Us, p95Us, p99Us, mean_us);
    os << line;
    std::snprintf(line, sizeof(line),
                  "SLO violations %ld/%ld  model switches %ld  "
                  "IRFailures %ld  stall windows %ld\n",
                  sloViolations, requests, totalModelSwitches(),
                  irFailures, stallWindows);
    os << line;
    if (gangDispatches > 0) {
        std::snprintf(line, sizeof(line),
                      "gang dispatches %ld (sharded multi-chip "
                      "requests)\n",
                      gangDispatches);
        os << line;
    }
    if (isa) {
        std::snprintf(line, sizeof(line),
                      "isa engine: reload overlap saved %.1f us "
                      "across model switches\n",
                      reloadOverlapSavedUs);
        os << line;
        if (scheduleSavedUs > 0.0) {
            std::snprintf(line, sizeof(line),
                          "isa scheduler: %.1f us makespan saved "
                          "vs in-order issue\n",
                          scheduleSavedUs);
            os << line;
        }
    }

    util::Table t("per-chip usage");
    t.setHeader({"chip", "served", "busy %", "reload %", "retune %",
                 "switches"});
    for (size_t c = 0; c < chips.size(); ++c) {
        const auto &u = chips[c];
        t.addRow({std::to_string(c), std::to_string(u.served),
                  util::Table::pct(u.utilization(makespanUs)),
                  util::Table::pct(makespanUs > 0.0
                                       ? u.reloadUs / makespanUs
                                       : 0.0),
                  util::Table::pct(makespanUs > 0.0
                                       ? u.retuneUs / makespanUs
                                       : 0.0),
                  std::to_string(u.modelSwitches)});
    }
    os << t.render();
    return os.str();
}

} // namespace aim::serve
