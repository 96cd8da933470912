// Streaming form of the eight-pattern detector (Section III-A).
//
// The per-thread run state machine.  The per-instance fold's pattern half
// (PatternFold, instance_fold.hpp) steps events through it one at a time
// or drives column slices through it with the vectorized streak scans,
// and receives completed patterns through a sink callback.  Whatever the
// machine emits over a whole profile, it emits piecewise over any split
// of the profile into steps and slices.
//
// Indices passed to step() are per-instance event indices (the event's
// position in the instance's row range), so emitted Pattern first/last
// fields index the instance's profile whichever way it was fed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/access_type.hpp"
#include "core/patterns.hpp"
#include "runtime/access_event.hpp"

namespace dsspy::core::detail {

/// Run category the state machine tracks per thread.
enum class RunCat : std::uint8_t { None, Read, Write, Insert, Delete };

[[nodiscard]] constexpr RunCat category_of(AccessType type,
                                           std::int64_t position) noexcept {
    if (position < 0 &&
        (type == AccessType::Read || type == AccessType::Write))
        return RunCat::None;  // positionless reads/writes cannot form runs
    switch (type) {
        case AccessType::Read: return RunCat::Read;
        case AccessType::Write: return RunCat::Write;
        case AccessType::Insert: return RunCat::Insert;
        case AccessType::Delete: return RunCat::Delete;
        default: return RunCat::None;
    }
}

/// Insert lands at the front?  Positions follow the proxy conventions:
/// size is recorded *after* the insert, position is the landing index.
[[nodiscard]] constexpr bool insert_at_front(std::int64_t pos,
                                             std::uint32_t /*size*/) noexcept {
    return pos == 0;
}
[[nodiscard]] constexpr bool insert_at_back(std::int64_t pos,
                                            std::uint32_t size) noexcept {
    return pos == static_cast<std::int64_t>(size) - 1;
}
/// Delete from the front/back?  Size is recorded *after* the removal, so a
/// back-removal has position == size.
[[nodiscard]] constexpr bool delete_at_front(std::int64_t pos,
                                             std::uint32_t /*size*/) noexcept {
    return pos == 0;
}
[[nodiscard]] constexpr bool delete_at_back(std::int64_t pos,
                                            std::uint32_t size) noexcept {
    return pos == static_cast<std::int64_t>(size);
}

/// Per-thread open run.  first/last are per-instance event indices;
/// first_ns/last_ns mirror them in wall-clock time (the fold needs run
/// durations without keeping the events around).
struct PatternRun {
    RunCat cat = RunCat::None;
    std::uint32_t first = 0;
    std::uint32_t last = 0;
    std::uint32_t length = 0;
    std::int64_t start_pos = 0;
    std::int64_t last_pos = 0;
    std::uint32_t last_size = 0;
    int direction = 0;           // 0 until the second event fixes it
    bool all_front = true;       // insert/delete: every access at the front
    bool all_back = true;        // insert/delete: every access at the back
    runtime::ThreadId thread = 0;
    std::uint64_t first_ns = 0;
    std::uint64_t last_ns = 0;
};

/// The per-thread run state machine.  Sink is invoked as
/// `sink(const Pattern&, uint64_t first_ns, uint64_t last_ns)` for every
/// completed pattern (including synthetic ForAll reads, whose two
/// timestamps coincide).
class PatternMachine {
public:
    explicit PatternMachine(std::size_t min_pattern_events) noexcept
        : min_events_(min_pattern_events) {}

    /// Freeze `run` into the pattern it would emit if flushed now.
    /// Returns false when the run is below the length threshold or a
    /// mixed-end insert/delete run that never becomes a pattern.
    [[nodiscard]] bool materialize(const PatternRun& run,
                                   Pattern& out) const noexcept {
        if (run.cat == RunCat::None || run.length < min_events_) return false;
        out.first = run.first;
        out.last = run.last;
        out.length = run.length;
        out.start_pos = run.start_pos;
        out.end_pos = run.last_pos;
        out.thread = run.thread;
        out.synthetic = false;
        const double denom =
            run.last_size > 0 ? static_cast<double>(run.last_size) : 1.0;
        out.coverage = std::min(1.0, static_cast<double>(run.length) / denom);
        switch (run.cat) {
            case RunCat::Read:
                out.kind = run.direction >= 0 ? PatternKind::ReadForward
                                              : PatternKind::ReadBackward;
                return true;
            case RunCat::Write:
                out.kind = run.direction >= 0 ? PatternKind::WriteForward
                                              : PatternKind::WriteBackward;
                return true;
            case RunCat::Insert:
                // Prefer Back when both hold (size stayed at 1).
                if (run.all_back) out.kind = PatternKind::InsertBack;
                else if (run.all_front) out.kind = PatternKind::InsertFront;
                else return false;
                return true;
            case RunCat::Delete:
                if (run.all_back) out.kind = PatternKind::DeleteBack;
                else if (run.all_front) out.kind = PatternKind::DeleteFront;
                else return false;
                return true;
            case RunCat::None: break;
        }
        return false;
    }

    /// Fold one event.  `index` is the per-instance event index.
    template <class Sink>
    void step(std::uint32_t index, const runtime::AccessEvent& ev,
              Sink&& sink) {
        step(index, ev, derive_access_type(ev.op), sink);
    }

    /// Same fold with the access type already derived (the slice step
    /// reads it from the type column).  Forced inline into the fold's
    /// per-event step, its hot loop.
    template <class Sink>
    [[gnu::always_inline]] void step(std::uint32_t index,
                                     const runtime::AccessEvent& ev,
                                     AccessType type, Sink&& sink) {
        PatternRun& run = state_for(ev.thread);

        // ForAll: a whole-container traversal is a full sequential read.
        if (type == AccessType::ForAll) {
            flush(run, sink);
            if (ev.size > 0) {
                Pattern p;
                p.kind = PatternKind::ReadForward;
                p.first = p.last = index;
                p.length = ev.size;
                p.start_pos = 0;
                p.end_pos = static_cast<std::int64_t>(ev.size) - 1;
                p.coverage = 1.0;
                p.thread = ev.thread;
                p.synthetic = true;
                sink(p, ev.time_ns, ev.time_ns);
            }
            return;
        }

        const RunCat cat = category_of(type, ev.position);
        if (cat == RunCat::None) {
            flush(run, sink);
            return;
        }

        if (run.cat != cat) {
            flush(run, sink);
            start_run(run, cat, index, ev);
            return;
        }

        bool extends = false;
        switch (cat) {
            case RunCat::Read:
            case RunCat::Write: {
                const std::int64_t step = ev.position - run.last_pos;
                if (run.direction == 0) {
                    extends = (step == 1 || step == -1);
                    if (extends) run.direction = static_cast<int>(step);
                } else {
                    extends = (step == run.direction);
                }
                break;
            }
            case RunCat::Insert: {
                const bool front = run.all_front &&
                                   insert_at_front(ev.position, ev.size);
                const bool back =
                    run.all_back && insert_at_back(ev.position, ev.size);
                extends = front || back;
                if (extends) {
                    run.all_front = front;
                    run.all_back = back;
                }
                break;
            }
            case RunCat::Delete: {
                const bool front = run.all_front &&
                                   delete_at_front(ev.position, ev.size);
                const bool back =
                    run.all_back && delete_at_back(ev.position, ev.size);
                extends = front || back;
                if (extends) {
                    run.all_front = front;
                    run.all_back = back;
                }
                break;
            }
            case RunCat::None: break;
        }

        if (extends) {
            run.last = index;
            ++run.length;
            run.last_pos = ev.position;
            run.last_size = ev.size;
            run.last_ns = ev.time_ns;
        } else {
            flush(run, sink);
            start_run(run, cat, index, ev);
        }
    }

    /// Flush every open run (end of the event stream).
    template <class Sink>
    void finish(Sink&& sink) {
        for (PatternRun& run : per_thread_) flush(run, sink);
    }

    /// Visit every open (non-None) run; the fold peeks at these for its
    /// Sort-After-Insert bookkeeping.
    template <class Fn>
    void visit_open_runs(Fn&& fn) const {
        for (const PatternRun& run : per_thread_)
            if (run.cat != RunCat::None) fn(run);
    }

    /// Open run of one thread (cat == None when the run is closed).  The
    /// fold's slice step inspects this to decide whether a vectorized
    /// streak scan (detector_kernels.hpp) can extend the run in bulk.
    [[nodiscard]] const PatternRun& peek_run(runtime::ThreadId tid) {
        return state_for(tid);
    }

    /// Apply a bulk extension of `count` events to `tid`'s open run, as if
    /// step() had accepted each one: the run state only depends on the
    /// final row of an accepted streak, so the fast path hands the machine
    /// the streak's tail directly.  The caller guarantees every skipped
    /// row would have extended the run (monotone position chain for
    /// read/write, preserved all_front/all_back anchor for insert/delete).
    void extend_run(runtime::ThreadId tid, std::uint32_t last_index,
                    std::int64_t last_pos, std::uint32_t last_size,
                    std::uint64_t last_ns, std::uint32_t count) {
        PatternRun& run = state_for(tid);
        run.last = last_index;
        run.length += count;
        if (run.direction == 0 && count > 0 &&
            (run.cat == RunCat::Read || run.cat == RunCat::Write))
            run.direction = last_pos >= run.last_pos ? 1 : -1;
        run.last_pos = last_pos;
        run.last_size = last_size;
        run.last_ns = last_ns;
    }

private:
    PatternRun& state_for(runtime::ThreadId tid) {
        if (tid >= per_thread_.size()) per_thread_.resize(tid + 1);
        per_thread_[tid].thread = tid;
        return per_thread_[tid];
    }

    static void start_run(PatternRun& run, RunCat cat, std::uint32_t index,
                          const runtime::AccessEvent& ev) noexcept {
        run.cat = cat;
        run.first = run.last = index;
        run.length = 1;
        run.start_pos = run.last_pos = ev.position;
        run.last_size = ev.size;
        run.direction = 0;
        run.all_front = true;
        run.all_back = true;
        run.first_ns = run.last_ns = ev.time_ns;
        if (cat == RunCat::Insert) {
            run.all_front = insert_at_front(ev.position, ev.size);
            run.all_back = insert_at_back(ev.position, ev.size);
        } else if (cat == RunCat::Delete) {
            run.all_front = delete_at_front(ev.position, ev.size);
            run.all_back = delete_at_back(ev.position, ev.size);
        }
    }

    template <class Sink>
    void flush(PatternRun& run, Sink&& sink) {
        Pattern p;
        if (materialize(run, p)) sink(p, run.first_ns, run.last_ns);
        run = PatternRun{.thread = run.thread};
    }

    std::size_t min_events_;
    std::vector<PatternRun> per_thread_;
};

}  // namespace dsspy::core::detail
