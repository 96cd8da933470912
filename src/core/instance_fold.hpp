// The per-instance fold: the one producer of InstanceStats (DESIGN.md §8.2).
//
// InstanceFold reduces one instance's seq-ordered events to the O(1)
// evidence the use-case rules consume.  Events enter one at a time
// (step) or as column slices (fold); any split of a stream into steps and
// slices reaches the same state.  It has two halves that write disjoint
// members:
//
//   * AggregateFold — event and type counts, the tail phase, maximum
//     size, first and last timestamps, the thread set, weighted reads,
//     resizes and end traffic;
//   * PatternFold — the per-thread PatternMachine (pattern_machine.hpp),
//     the pattern evidence and the Sort-After-Insert match.
//
// Both engines drive it.  The incremental analyzer keeps one fold per
// instance and feeds it single events and transposed tiles
// (incremental.hpp); the post-mortem engine folds each instance's row
// range in place, its two halves as two pool tasks (Dsspy::analyze).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/access_type.hpp"
#include "core/column_analysis.hpp"
#include "core/detector_config.hpp"
#include "core/instance_stats.hpp"
#include "core/pattern_machine.hpp"
#include "core/patterns.hpp"
#include "runtime/access_event.hpp"
#include "runtime/instance_registry.hpp"

namespace dsspy::core {

/// Everything but patterns.  Bounded by the number of recording threads.
class AggregateFold {
public:
    explicit AggregateFold(std::size_t iq_window) noexcept
        : iq_window_(iq_window) {}

    /// Fold one event whose derived access type is `type`.  Forced inline,
    /// like the other per-event steps: they are the incremental engine's
    /// hot loop for round-robin streams and adaptive containers.
    [[gnu::always_inline]] void step(const runtime::AccessEvent& ev,
                                     AccessType type) {
        const bool first = events_++ == 0;
        ++counts_[static_cast<std::size_t>(type)];
        max_size_ = std::max(max_size_, static_cast<std::size_t>(ev.size));
        note_thread(ev.thread);
        if (first) first_ns_ = ev.time_ns;
        last_ns_ = ev.time_ns;

        // Tail phase: a phase is a maximal run of one derived access type
        // over the instance's whole (cross-thread) event sequence.
        if (first || type != tail_type_) {
            tail_type_ = type;
            tail_length_ = 1;
        } else {
            ++tail_length_;
        }
        tail_last_size_ = ev.size;

        const std::uint64_t weight =
            type == AccessType::ForAll && ev.size > 0 ? ev.size : 1;
        weighted_total_ += weight;
        if (is_read_like(type)) weighted_reads_ += weight;
        if (ev.op == runtime::OpKind::Resize) ++resizes_;
        accumulate_end_traffic(iq_traffic_, ev, iq_window_);
        accumulate_end_traffic(edge_traffic_, ev, 1);
    }

    /// Fold every row of `s`, as step() over each row in order would.
    /// `phases` is scratch for the slice's same-type phases.
    void fold(const ColumnSlice& s, PhaseList& phases);

    /// Events folded so far.
    [[nodiscard]] std::uint32_t events() const noexcept { return events_; }

    /// Set the aggregate fields of `st`.
    void write(InstanceStats& st) const;

private:
    [[gnu::always_inline]] void note_thread(runtime::ThreadId thread) {
        if (std::find(threads_.begin(), threads_.end(), thread) ==
            threads_.end())
            threads_.push_back(thread);
    }

    std::size_t iq_window_;
    std::uint32_t events_ = 0;
    std::array<std::size_t, kAccessTypeCount> counts_{};
    std::uint64_t first_ns_ = 0;
    std::uint64_t last_ns_ = 0;
    std::size_t max_size_ = 0;
    std::vector<runtime::ThreadId> threads_;

    AccessType tail_type_ = AccessType::Read;
    std::size_t tail_length_ = 0;
    std::uint32_t tail_last_size_ = 0;

    // Exact integer sums; write() converts them (below 2^53, so the
    // doubles equal a per-event double accumulation).
    std::uint64_t weighted_reads_ = 0;
    std::uint64_t weighted_total_ = 0;
    std::size_t resizes_ = 0;
    EndTraffic iq_traffic_;
    EndTraffic edge_traffic_;
};

/// Pattern detection and the evidence drawn from the patterns.  Bounded
/// by the number of recording threads and the Sort-After-Insert gap
/// window, never by the event count.
class PatternFold {
public:
    /// `config` must outlive the fold.  `kind` drives the Array-specific
    /// insertion patterns.
    PatternFold(const DetectorConfig& config, runtime::DsKind kind) noexcept
        : config_(&config), kind_(kind),
          machine_(config.min_pattern_events) {}

    void set_kind(runtime::DsKind kind) noexcept { kind_ = kind; }

    /// Fold the event at per-instance index `index`, of derived type
    /// `type`.
    [[gnu::always_inline]] void step(std::uint32_t index,
                                     const runtime::AccessEvent& ev,
                                     AccessType type) {
        machine_.step(index, ev, type,
                      [this](const Pattern& p, std::uint64_t first_ns,
                             std::uint64_t last_ns) {
                          absorb(p, first_ns, last_ns);
                      });
        if (type == AccessType::Sort) on_sort(index);
    }

    /// Fold every row of `s`, row `i` at per-instance index `base + i`, as
    /// step() over each row would.  Completed patterns are appended to
    /// `out` when it is given.
    void fold(const ColumnSlice& s, std::uint32_t base,
              std::vector<Pattern>* out = nullptr);

    /// Flush every open run, as at the end of the stream (appending the
    /// flushed patterns to `out` when given).  Further folding is not
    /// supported.
    void finish(std::vector<Pattern>* out = nullptr);

    /// Set the pattern fields of `st`.
    void write(InstanceStats& st) const;

private:
    /// Closed insertion pattern still inside the Sort-After-Insert gap
    /// window (candidate for a future Sort).
    struct SaiCandidate {
        std::uint32_t first = 0;
        std::uint32_t last = 0;
        std::uint32_t length = 0;
    };

    void absorb(const Pattern& p, std::uint64_t first_ns,
                std::uint64_t last_ns);
    void on_sort(std::uint32_t index);
    void expire_sai(std::uint32_t index);
    void merge_sai(std::uint32_t sort_index, std::uint32_t first,
                   std::uint32_t length);

    const DetectorConfig* config_;
    runtime::DsKind kind_;
    detail::PatternMachine machine_;

    std::array<std::size_t, kPatternKindCount> pattern_counts_{};
    std::size_t long_insert_events_ = 0;
    std::uint64_t long_insert_ns_ = 0;
    bool has_longest_insert_ = false;
    std::uint32_t longest_insert_length_ = 0;
    std::uint32_t longest_insert_first_ = 0;
    bool longest_insert_front_ = false;
    std::size_t read_pattern_events_ = 0;
    std::size_t long_read_patterns_ = 0;

    // Sort-After-Insert bookkeeping (see instance_fold.cpp for the
    // equivalence argument).
    std::deque<SaiCandidate> sai_closed_;
    std::vector<std::uint32_t> sai_pending_;
    bool sai_match_ = false;
    std::uint32_t sai_sort_ = 0;
    std::uint32_t sai_first_ = 0;
    std::uint32_t sai_length_ = 0;
};

/// One instance's fold: both halves, fed the same events.
struct InstanceFold {
    /// `config` must outlive the fold.
    explicit InstanceFold(const DetectorConfig& config,
                          runtime::DsKind kind = runtime::DsKind::List)
        : aggregates(config.iq_end_window), patterns(config, kind) {}

    /// Fold the instance's next event.
    [[gnu::always_inline]] void step(const runtime::AccessEvent& ev) {
        const AccessType type = derive_access_type(ev.op);
        const std::uint32_t index = aggregates.events();
        aggregates.step(ev, type);
        patterns.step(index, ev, type);
    }

    /// Fold the instance's next `s.n` events.  `phases` is scratch.
    void fold(const ColumnSlice& s, PhaseList& phases);

    /// The stats of the events folded so far.  Call patterns.finish()
    /// first to count the runs still open.
    [[nodiscard]] InstanceStats to_stats(
        const runtime::InstanceInfo& info) const;

    AggregateFold aggregates;
    /// Keeps the halves off each other's cache lines: the post-mortem
    /// engine runs them side by side on two workers.  Padding, not
    /// alignas: an over-aligned fold would make every copy of the
    /// analyzer's state vector (each snapshot) use aligned allocation.
    std::array<std::byte, 64> padding{};
    PatternFold patterns;
};

}  // namespace dsspy::core
