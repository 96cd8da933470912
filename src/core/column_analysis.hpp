// Per-instance analysis over event columns (DESIGN.md §11).
//
// The post-mortem engine's per-instance steps — profile aggregates,
// patterns, InstanceStats — computed from raw ColumnStore ranges with the
// vectorized kernels in detector_kernels.hpp.  An instance's runtime
// profile ("all access events to a data structure instance ... in
// chronological order", Section II-B) is its row range.  Everything
// downstream (UseCaseEngine, reports) consumes InstanceStats; the
// differential suite in tests/test_column_analysis.cpp holds the verdicts
// to a per-event oracle (tests/aos_oracle.hpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/detector_config.hpp"
#include "core/instance_stats.hpp"
#include "core/pattern_machine.hpp"
#include "core/patterns.hpp"
#include "runtime/bulk_buffer.hpp"
#include "runtime/column_store.hpp"
#include "runtime/instance_registry.hpp"

namespace dsspy::core {

/// A maximal run of events with the same derived access type.
/// ("DSspy executes the phase detection on the access profiles".)
struct Phase {
    AccessType type = AccessType::Read;
    std::uint32_t first = 0;   ///< Index of the first event of the instance.
    std::uint32_t last = 0;    ///< Index of the last event (inclusive).
    [[nodiscard]] std::size_t length() const noexcept {
        return static_cast<std::size_t>(last) - first + 1;
    }
};

/// Phases of one instance.  A phase-dense instance (reads and writes
/// alternating) has one phase per one or two events, so the list is as
/// large as a column and lives on a bulk buffer (runtime/bulk_buffer.hpp).
using PhaseList = std::vector<Phase, runtime::BulkAllocator<Phase>>;

/// Aggregates of one instance's profile: event count, per-access-type
/// counts, phases, maximum size, duration and thread count.
struct ProfileAggregates {
    std::size_t total_events = 0;
    std::array<std::size_t, kAccessTypeCount> counts{};
    PhaseList phases;
    std::size_t max_size = 0;
    std::uint64_t duration_ns = 0;
    std::size_t thread_count = 0;
};

/// One instance's event rows as raw column pointers.  `types` is the
/// derived access-type column (kernels::derive_types over the op column),
/// indexed like the others; all pointers cover exactly `n` rows.
struct ColumnSlice {
    const std::uint64_t* time_ns = nullptr;
    const std::int64_t* positions = nullptr;
    const std::uint32_t* sizes = nullptr;
    const std::uint8_t* ops = nullptr;
    const std::uint8_t* types = nullptr;
    const std::uint16_t* threads = nullptr;
    std::size_t n = 0;

    /// Rows [begin, end) as a slice of their own.
    [[nodiscard]] ColumnSlice rows(std::size_t begin,
                                   std::size_t end) const noexcept {
        return {time_ns + begin, positions + begin, sizes + begin,
                ops + begin,     types + begin,     threads + begin,
                end - begin};
    }
};

/// Slice one instance's range out of the store.  `types_base` indexes the
/// whole store like the other columns (row 0 = store row 0).
[[nodiscard]] ColumnSlice make_slice(const runtime::ColumnStore& store,
                                     runtime::ColumnRange range,
                                     const std::uint8_t* types_base);

/// Profile aggregates (counts, phases, max size, duration, thread count)
/// from the kernel scans.
[[nodiscard]] ProfileAggregates aggregates_from_columns(const ColumnSlice& s);

namespace detail {

/// Longest prefix of rows starting at `i` that provably extend `run`
/// (kernels::* streak scans); 0 when no bulk fast path applies and the
/// row must go through the generic machine step.
[[nodiscard]] std::size_t run_streak(const ColumnSlice& s, std::size_t i,
                                     const PatternRun& run);

/// Fold every row of `s` into both end-traffic accumulators (`iq` with
/// window `iq_window`, `edge` with window 1), choosing per-phase span
/// kernels or one whole-slice pass by phase density.  `phases` must be
/// phases_from_types over the same rows.
void end_traffic_by_phase(const ColumnSlice& s, const PhaseList& phases,
                          std::size_t iq_window, EndTraffic& iq,
                          EndTraffic& edge);

/// The event-struct view of row `i` for the generic machine step (the
/// slow path of the detector: rows that open, close, or redirect a run).
[[nodiscard]] inline runtime::AccessEvent row_event(const ColumnSlice& s,
                                                    std::size_t i) {
    runtime::AccessEvent ev{};
    ev.seq = i;
    ev.time_ns = s.time_ns[i];
    ev.position = s.positions[i];
    ev.size = s.sizes[i];
    ev.op = static_cast<runtime::OpKind>(s.ops[i]);
    ev.thread = s.threads[i];
    return ev;
}

/// Feed rows [0, s.n) of one instance through `machine`, row `i` at
/// per-instance index `index_base + i`: rows that provably extend the
/// current run are consumed in bulk by the streak scans, every other row
/// takes one PatternMachine::step.  Patterns reach `sink` in the order
/// stepping each row would emit them.  The one streak-driven pattern loop:
/// the columnar detector drives a whole instance through it, the
/// incremental analyzer one tile of a same-instance run at a time.
template <class Sink>
void drive_patterns(PatternMachine& machine, const ColumnSlice& s,
                    std::uint32_t index_base, Sink&& sink) {
    std::size_t i = 0;
    while (i < s.n) {
        const std::uint16_t tid = s.threads[i];
        const PatternRun& run = machine.peek_run(tid);
        const std::size_t streak = run_streak(s, i, run);
        if (streak > 0) {
            if (run.cat != RunCat::None) {
                const std::size_t tail = i + streak - 1;
                machine.extend_run(
                    tid, index_base + static_cast<std::uint32_t>(tail),
                    s.positions[tail], s.sizes[tail], s.time_ns[tail],
                    static_cast<std::uint32_t>(streak));
            }
            // RunCat::None streaks are pure skips: flushing a closed run
            // does nothing, so the machine state is already right.
            i += streak;
            continue;
        }
        machine.step(index_base + static_cast<std::uint32_t>(i),
                     row_event(s, i), static_cast<AccessType>(s.types[i]),
                     sink);
        ++i;
    }
}

}  // namespace detail

/// The eight-pattern detector over columns, patterns ordered by first
/// event.  Emits exactly what stepping every row through the per-thread
/// PatternMachine emits: the machine still arbitrates run state, but rows
/// that provably extend the current run are consumed in bulk by the
/// vectorized streak scans instead of one step() call each.
[[nodiscard]] std::vector<Pattern> detect_patterns_columns(
    const ColumnSlice& s, const DetectorConfig& config);

/// InstanceStats from columns + detected patterns.  `agg` must come from
/// aggregates_from_columns over the same slice, `patterns` from
/// detect_patterns_columns with the same configuration.
[[nodiscard]] InstanceStats instance_stats_from_columns(
    const runtime::InstanceInfo& info, const ColumnSlice& s,
    const ProfileAggregates& agg, const std::vector<Pattern>& patterns,
    const DetectorConfig& config);

}  // namespace dsspy::core
