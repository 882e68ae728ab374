/**
 * @file
 * Lazy request source of the streaming serving loop.
 *
 * serve::generateTrace materializes the whole trace as a
 * std::vector<Request> before anything runs -- fine for a
 * 200-request experiment, fatal for a day-long diurnal stream of
 * millions of requests.  TraceSource produces the *same* requests
 * one at a time: each of the three arrival processes (Poisson,
 * two-state MMPP bursts, Lewis-Shedler-thinned diurnal) is carried
 * as a tiny incremental state machine, so memory is O(1) in the
 * stream length.
 *
 * Bit-identity contract: the generator draws from the same two RNG
 * streams as generateTrace -- an arrival stream seeded with
 * TraceConfig::seed and a model-pick stream forked from it before
 * any arrival is drawn -- and consumes them in the same per-request
 * order.  Pulling the first N requests therefore reproduces
 * generateTrace(cfg)'s first N requests bit-for-bit (ids, models,
 * arrival instants, SLOs), which is what lets a streamed horizon be
 * tested against the Fleet replay of the generated vector exactly
 * (tests/stream/TraceSourceTest).
 */

#ifndef AIM_STREAM_TRACESOURCE_HH
#define AIM_STREAM_TRACESOURCE_HH

#include "serve/Trace.hh"
#include "util/Rng.hh"

namespace aim::stream
{

/** Pull-based generator of one serve::TraceConfig arrival stream. */
class TraceSource
{
  public:
    /**
     * Fatal on an invalid config (same checks as generateTrace).
     * TraceConfig::requests does not bound the source -- the stream
     * is endless and the *caller* decides how many requests to pull
     * (the streaming engine's horizon; the equivalence tests pull
     * exactly cfg.requests).
     */
    explicit TraceSource(const serve::TraceConfig &cfg);

    /**
     * Generate the next request.  Ids are dense from 0 in pull
     * order; arrivals are non-decreasing.
     */
    serve::Request next();

    /** Requests generated so far (the next request's id). */
    long generated() const { return count; }

    /** Arrival instant of the most recent request [us]. */
    double lastArrivalUs() const { return t; }

  private:
    double nextArrivalUs();

    serve::TraceConfig cfg;
    util::Rng arrivalRng;
    util::Rng pickRng;
    double totalWeight = 0.0;
    /** Arrival rate in requests/us (cfg is requests/s). */
    double rateUs = 0.0;
    long count = 0;
    /** Current simulated arrival clock [us]. */
    double t = 0.0;

    // --- Bursty (two-state MMPP) incremental state ---
    bool inBurst = false;
    double episodeEndUs = 0.0;
    double baseRateUs = 0.0;
    double meanQuietUs = 0.0;
};

} // namespace aim::stream

#endif // AIM_STREAM_TRACESOURCE_HH
