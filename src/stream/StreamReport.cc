#include "stream/StreamReport.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace aim::stream
{

void
LatencyHistogram::record(double latency_us)
{
    ++total;
    sumUs += latency_us;
    int b = 0;
    if (latency_us > minUs)
        b = static_cast<int>(
            std::floor(std::log2(latency_us / minUs) * 8.0));
    b = std::clamp(b, 0, bucketCount - 1);
    ++buckets[static_cast<size_t>(b)];
}

double
LatencyHistogram::percentile(double p) const
{
    if (total == 0)
        return 0.0;
    const double target = p / 100.0 * static_cast<double>(total - 1);
    long seen = 0;
    for (int b = 0; b < bucketCount; ++b) {
        seen += buckets[static_cast<size_t>(b)];
        if (static_cast<double>(seen) > target) {
            // Geometric bucket midpoint: sqrt(lo * hi) of the
            // bucket's bounds.
            const double lo = minUs * std::exp2(b / 8.0);
            return lo * std::exp2(1.0 / 16.0);
        }
    }
    return minUs * std::exp2(bucketCount / 8.0);
}

double
StreamReport::shedRate() const
{
    return arrivals > 0 ? static_cast<double>(shed) / arrivals : 0.0;
}

std::string
StreamReport::render() const
{
    std::ostringstream os;
    char line[200];
    std::snprintf(line, sizeof(line),
                  "stream policy %s [%s droop]: %ld arrivals, %ld "
                  "admitted, %ld shed (%.1f%%), %ld completed in "
                  "%.2f ms (%.0f req/s)\n",
                  serve::policyName(policy),
                  power::irBackendName(backend), arrivals, admitted,
                  shed, 100.0 * shedRate(), requests,
                  makespanUs / 1e3, throughputRps());
    os << line;
    std::snprintf(line, sizeof(line),
                  "control  scale-ups %ld  scale-downs %ld  batched "
                  "requests %ld\n",
                  scaleUps, scaleDowns, batchedRequests);
    os << line;
    std::snprintf(line, sizeof(line),
                  "model cache  hits %ld  misses %ld  evictions "
                  "%ld\n",
                  cacheHits, cacheMisses, cacheEvictions);
    os << line << renderBody(meanUs);
    return os.str();
}

} // namespace aim::stream
