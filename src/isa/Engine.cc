#include "isa/Engine.hh"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "isa/Schedule.hh"
#include "isa/Scoreboard.hh"
#include "sim/ChipState.hh"
#include "util/Logging.hh"

namespace aim::isa
{

namespace
{

double
maxWallNs(const sim::ChipState &state)
{
    double t = 0.0;
    for (const auto &[sid, ss] : state.sets)
        t = std::max(t, ss.wallNs);
    return t;
}

/** Buffers trace events so the timing replay (which needs the whole
 * run's measured MAC durations) can fill slot/clkNs before the real
 * sink sees them. */
class BufferSink final : public TraceSink
{
  public:
    void emit(const TraceEvent &ev) override
    {
        events.push_back(ev);
    }

    std::vector<TraceEvent> events;
};

/** Per-round inputs of the tail-idle accounting. */
struct RoundTail
{
    /** Macro ids the round's mapping occupies. */
    std::vector<int> activeMacros;
    /** Wall time of the round [ns]. */
    double wallNs = 0.0;
    /** Macro-weighted Set wait on the round's slowest Set [ns]. */
    double setImbalanceNs = 0.0;
};

} // namespace

Engine::Engine(const pim::PimConfig &cfg,
               const power::Calibration &cal,
               const sim::RunConfig &rcfg)
    : runtime(cfg, cal, rcfg),
      chipMacros(static_cast<double>(cfg.groups * cfg.macrosPerGroup))
{
}

EngineReport
Engine::run(const Program &program, const pim::StreamSpec &stream,
            uint64_t seed, std::unique_ptr<power::IrState> *carry,
            TraceSink *trace, const Schedule *schedule) const
{
    aim_assert(program.roundSpan.size() == program.rounds.size(),
               "program has ", program.roundSpan.size(),
               " round spans for ", program.rounds.size(),
               " rounds");
    aim_assert(!schedule ||
                   schedule->order.size() == program.code.size(),
               "schedule covers ",
               schedule ? schedule->order.size() : 0,
               " instructions for a program of ",
               program.code.size());
    const auto &code = program.code;
    EngineReport er;
    er.fusedMacs = program.fusedMacs;

    // Per-instruction durations of the timing replay: lowered costs
    // for round setup, measured Set wall clocks for MAC_WINDOWs
    // (filled at retirement).
    std::vector<double> dur_ns(code.size(), 0.0);
    for (size_t i = 0; i < code.size(); ++i)
        if (code[i].op != Opcode::MacWindow)
            dur_ns[i] = code[i].costNs;

    // Trace events are buffered so the replay below can stamp each
    // one with its issue slot and lane clock before emission.
    BufferSink buffer;
    TraceSink *const sink = trace ? &buffer : nullptr;

    // The current round block's decode state, reset by the begin
    // hook: its span, scoreboard, window count and the MAC_WINDOWs
    // in flight (Set id -> instruction; ascending Set order keeps
    // retirement deterministic).
    size_t round = 0;
    Program::Span span{};
    std::optional<Scoreboard> sb;
    long window = 0;
    std::map<int, size_t> inflight;
    std::vector<RoundTail> tails(program.rounds.size());

    const auto emit = [&](size_t i, double t_ns, const char *event) {
        if (!sink)
            return;
        TraceEvent ev;
        ev.instr = static_cast<long>(i);
        ev.op = code[i].op;
        ev.set = code[i].set;
        ev.round = code[i].round;
        ev.window = window;
        ev.tNs = t_ns;
        ev.event = event;
        sink->emit(ev);
    };
    const auto issueAt = [&](size_t i, double t_ns) {
        sb->issue(i);
        ++er.issued;
        ++er.issuedByOp[static_cast<size_t>(code[i].op)];
        emit(i, t_ns, "issue");
    };
    const auto completeAt = [&](size_t i, double t_ns) {
        sb->complete(i);
        ++er.completed;
        emit(i, t_ns, "complete");
    };

    // Issue everything the scoreboard allows; zero-latency opcodes
    // (round setup: loads, syncs, retune, shifts, the barrier)
    // complete at issue, which may unblock more -- iterate to a
    // fixpoint, ascending program order.
    const auto cascade = [&](const sim::ChipState &state) {
        bool progressed = true;
        while (progressed) {
            progressed = false;
            for (size_t i = span.begin; i < span.end; ++i) {
                if (!sb->issuable(i))
                    continue;
                const Instr &instr = code[i];
                const auto set = state.sets.find(instr.set);
                const double t = set != state.sets.end()
                                     ? set->second.wallNs
                                     : maxWallNs(state);
                issueAt(i, t);
                if (instr.op == Opcode::MacWindow)
                    inflight.emplace(instr.set, i);
                else
                    completeAt(i, t);
                progressed = true;
            }
        }
    };

    sim::RoundHooks hooks;
    hooks.begin = [&](size_t r, const sim::ChipState *state) {
        round = r;
        span = program.roundSpan[r];
        er.decoded += static_cast<long>(span.end - span.begin);
        sb.emplace(code, span.begin, span.end);
        window = 0;
        if (!state) {
            // The block is a single NOP; like the runtime's empty
            // round it consumes no time.
            aim_assert(span.end == span.begin + 1 &&
                           code[span.begin].op == Opcode::Nop,
                       "empty round ", r,
                       " did not lower to a single NOP");
            issueAt(span.begin, 0.0);
            completeAt(span.begin, 0.0);
            return;
        }
        // Lowering must agree with the round setup pass-for-pass: a
        // MAC_WINDOW's window operand is exactly the Set's
        // bit-serial pass count.  The instruction view rests on this
        // 1:1 contract, so check it rather than assume it.
        for (size_t i = span.begin; i < span.end; ++i) {
            if (code[i].op != Opcode::MacWindow)
                continue;
            const auto it = state->sets.find(code[i].set);
            aim_assert(it != state->sets.end(), "MAC_WINDOW targets Set ",
                       code[i].set, " which hosts no tasks");
            aim_assert(it->second.remaining == code[i].windows,
                       "lowered ", code[i].windows, " windows for Set ",
                       code[i].set, " but round ", r, " set up ",
                       it->second.remaining);
        }
        cascade(*state);
    };
    hooks.window = [&](const sim::ChipState &state, long windows_run) {
        window = windows_run;
        // Retire MAC_WINDOWs whose Set just ran its last pass, at the
        // Set's wall clock (also the MAC's replay duration: the Set's
        // measured wall within its round).
        for (auto it = inflight.begin(); it != inflight.end();) {
            const sim::SetState &ss = state.sets.at(it->first);
            if (ss.remaining == 0) {
                dur_ns[it->second] = ss.wallNs;
                completeAt(it->second, ss.wallNs);
                it = inflight.erase(it);
            } else {
                ++it;
            }
        }
        cascade(state);
    };
    hooks.end = [&](const sim::ChipState &state) {
        aim_assert(sb->allCompleted(), "round ", round,
                   " retired with ", sb->pendingCount(),
                   " instructions pending");
        // Tail accounting inputs: the round's macro footprint, its
        // wall time and the macro-weighted wait of its early-retired
        // Sets on the slowest (a Set's macros idle from its last pass
        // to the BARRIER).
        RoundTail &tail = tails[round];
        for (const auto &group : state.activeMacroIds())
            tail.activeMacros.insert(tail.activeMacros.end(),
                                     group.begin(), group.end());
        tail.wallNs = maxWallNs(state);
        for (size_t i = span.begin; i < span.end; ++i) {
            if (code[i].op != Opcode::MacWindow)
                continue;
            const sim::SetState &ss = state.sets.at(code[i].set);
            tail.setImbalanceNs +=
                (tail.wallNs - ss.wallNs) *
                static_cast<double>(code[i].macros) / chipMacros;
        }
    };

    er.run = runtime.run(program.rounds, stream, seed, carry, &hooks);

    // The cost-modelled timing replay: the strict in-order makespan
    // always, the software-pipelined one when a schedule is active.
    // Physics (er.run) is untouched either way.
    const TimingReplay inorder = replayTiming(program, dur_ns, false);
    er.inOrderMakespanNs = inorder.makespanNs;
    er.scheduledMakespanNs = inorder.makespanNs;
    TimingReplay piped;
    const TimingReplay *clk = &inorder;
    if (schedule) {
        piped = replayTiming(program, dur_ns, true);
        er.scheduledMakespanNs = piped.makespanNs;
        er.scheduleSavedNs =
            er.inOrderMakespanNs - er.scheduledMakespanNs;
        clk = &piped;
    }
    if (trace) {
        for (TraceEvent ev : buffer.events) {
            const auto i = static_cast<size_t>(ev.instr);
            ev.slot = schedule ? schedule->slotOf[i] : ev.instr;
            ev.clkNs = ev.event[0] == 'i' ? clk->startNs[i]
                                          : clk->completeNs[i];
            trace->emit(ev);
        }
    }

    // Tail-idle budget: walk rounds backward; a round's wall time
    // counts in proportion to the macros no round from it onward
    // touches (they idle until the program retires), and the final
    // round adds its early-retired Sets' macro-weighted wait.  Once
    // the trailing union covers the chip, earlier rounds hide
    // nothing and the walk stops.
    std::set<int> touched;
    bool last_seen = false;
    for (size_t r = program.rounds.size(); r-- > 0;) {
        if (program.rounds[r].tasks.empty())
            continue;
        touched.insert(tails[r].activeMacros.begin(),
                       tails[r].activeMacros.end());
        if (!last_seen) {
            er.tailIdleNs += tails[r].setImbalanceNs;
            last_seen = true;
        }
        const double idle_frac =
            1.0 - static_cast<double>(touched.size()) / chipMacros;
        if (idle_frac <= 0.0)
            break;
        er.tailIdleNs += tails[r].wallNs * idle_frac;
    }
    return er;
}

} // namespace aim::isa
