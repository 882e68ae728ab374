#include "util/Logging.hh"

#include <atomic>
#include <cstdio>

namespace aim::util
{

namespace
{

std::atomic<unsigned> warnCounter{0};

const char *
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Inform: return "info";
      case LogLevel::Warn:   return "warn";
      case LogLevel::Fatal:  return "fatal";
      case LogLevel::Panic:  return "panic";
    }
    return "?";
}

} // namespace

void
logMessage(LogLevel level, const char *file, int line,
           const std::string &msg)
{
    std::fprintf(stderr, "%s: %s (%s:%d)\n", levelName(level),
                 msg.c_str(), file, line);
    switch (level) {
      case LogLevel::Warn:
        warnCounter.fetch_add(1, std::memory_order_relaxed);
        break;
      case LogLevel::Fatal:
        std::exit(1);
      case LogLevel::Panic:
        std::abort();
      default:
        break;
    }
}

void
logAndStop(LogLevel level, const char *file, int line,
           const std::string &msg)
{
    logMessage(level, file, line, msg);
    // logMessage ends the process at Fatal and Panic; any other level
    // here is a misuse of the stopping entry point.
    std::abort();
}

unsigned
warnCount()
{
    return warnCounter.load(std::memory_order_relaxed);
}

void
resetWarnCount()
{
    warnCounter.store(0, std::memory_order_relaxed);
}

} // namespace aim::util
