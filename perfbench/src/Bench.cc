#include "Bench.hh"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <thread>

namespace aimbench
{

void
RunResult::add(const std::string &name, double value,
               const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

void
RunResult::require(bool ok, const std::string &what)
{
    if (!ok)
        problems.push_back(what);
}

double
hostNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
threadCpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double
peakRssMib()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0;
}

int
benchThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(static_cast<int>(hw), 1, 4);
}

} // namespace aimbench
