/**
 * @file
 * Host-time spans of the traced run.  The harness opens a span around
 * each call it makes into a layer; spans nest (a span opened while
 * another is open becomes its child), stay in memory, and are written
 * out as CSV when the run ends.  Layer metrics are sums of span
 * durations or of self time (a span minus its children).
 */
#ifndef AIMBENCH_SPANS_HH
#define AIMBENCH_SPANS_HH

#include <string>
#include <vector>

namespace aimbench
{

class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double startS = 0.0;
        double endS = 0.0;
        /** Index of the enclosing span; -1 at top level. */
        int parent = -1;
        /** Request (or model) the span belongs to; -1 when none. */
        long request = -1;
    };

    /** Closes its span when it goes out of scope. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, std::string name, long request = -1);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        /** Close the span now (idempotent). */
        void close();

      private:
        Tracer &tracer;
        int index;
        bool open = true;
    };

    /** Summed duration of every span named @p name [s]. */
    double total(const std::string &name) const;
    /** Summed self time (duration minus child spans) [s]. */
    double self(const std::string &name) const;
    /** Spans named @p name. */
    long count(const std::string &name) const;

    /** Write the span log as CSV; false when the file cannot be
     * written. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans;
    /** Innermost open span; -1 when none. */
    int current = -1;
};

} // namespace aimbench

#endif // AIMBENCH_SPANS_HH
