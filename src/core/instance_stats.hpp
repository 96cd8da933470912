// Order-folded aggregates of one instance's event stream.
//
// InstanceStats is everything the eight use-case rules (Section III-B)
// consume, reduced to O(1) numbers per instance.  One producer fills it:
// InstanceFold (instance_fold.hpp, DESIGN.md §8.2), which the post-mortem
// engine runs over each instance's row range and the incremental analyzer
// feeds as events arrive.  Both engines classify through the same
// UseCaseEngine::classify(const InstanceStats&), so equal event streams
// give byte-identical use cases, reasons, recommendations, and
// confidences.
#pragma once

#include <array>
#include <cstdint>

#include "core/access_type.hpp"
#include "core/patterns.hpp"
#include "runtime/access_event.hpp"
#include "runtime/instance_registry.hpp"

namespace dsspy::core {

/// End-of-structure traffic statistics for the Implement-Queue and
/// Stack-Implementation rules.
struct EndTraffic {
    std::size_t front_insert = 0;
    std::size_t back_insert = 0;
    std::size_t front_delete = 0;
    std::size_t back_delete = 0;
    std::size_t front_read = 0;
    std::size_t back_read = 0;

    [[nodiscard]] std::size_t inserts() const noexcept {
        return front_insert + back_insert;
    }
    [[nodiscard]] std::size_t deletes() const noexcept {
        return front_delete + back_delete;
    }

    friend bool operator==(const EndTraffic&, const EndTraffic&) = default;
};

/// Fold one access into the end-traffic counters (accesses within `window`
/// slots of position 0 / the last index count as front / back traffic).
/// This field form is the single source of truth: the event overload below
/// (the fold's per-event step) and the columnar scalar kernel
/// (detector_kernels.hpp) both call it, so the two fold paths cannot
/// drift.
inline void accumulate_end_traffic(EndTraffic& t, AccessType type,
                                   std::int64_t position, std::uint32_t size,
                                   std::size_t window) noexcept {
    if (position < 0) return;
    const auto w = static_cast<std::int64_t>(window);
    const auto sz = static_cast<std::int64_t>(size);
    switch (type) {
        case AccessType::Insert:
            // size recorded after the insert; back == landing at size-1.
            if (position >= sz - w) ++t.back_insert;
            else if (position < w) ++t.front_insert;
            break;
        case AccessType::Delete:
            // size recorded after the removal; back == position >= size.
            if (position >= sz - w + 1) ++t.back_delete;
            else if (position < w) ++t.front_delete;
            break;
        case AccessType::Read:
        case AccessType::Write:
            if (position >= sz - w) ++t.back_read;
            else if (position < w) ++t.front_read;
            break;
        default:
            break;
    }
}

/// Fold one event into the end-traffic counters.
inline void accumulate_end_traffic(EndTraffic& t,
                                   const runtime::AccessEvent& ev,
                                   std::size_t window) noexcept {
    accumulate_end_traffic(t, derive_access_type(ev.op), ev.position,
                           ev.size, window);
}

/// Long "insertion" patterns: Insert-Front/Back for dynamic structures;
/// for fixed-size arrays, end-anchored Write-Forward/Backward streaks play
/// the insertion role (sequential initialization of the buffer).
[[nodiscard]] inline bool counts_as_insertion_pattern(
    const Pattern& p, runtime::DsKind kind) noexcept {
    if (is_insert_pattern(p.kind)) return true;
    if (kind != runtime::DsKind::Array) return false;
    if (p.kind == PatternKind::WriteForward && p.start_pos == 0) return true;
    if (p.kind == PatternKind::WriteBackward &&
        p.end_pos == 0)  // descending streak that reaches the front
        return true;
    return false;
}

/// All evidence the use-case rules consume for one instance.
struct InstanceStats {
    runtime::InstanceInfo info;

    std::size_t total = 0;  ///< Total events on the instance.
    std::array<std::size_t, kAccessTypeCount> counts{};
    std::size_t thread_count = 0;
    std::uint64_t duration_ns = 0;  ///< First event to last event.
    std::size_t max_size = 0;

    /// Per-kind completed pattern counts (indexed by PatternKind).
    std::array<std::size_t, kPatternKindCount> pattern_counts{};

    // --- Long-Insert / Sort-After-Insert evidence ----------------------
    std::size_t long_insert_events = 0;  ///< Events in qualifying phases.
    std::uint64_t long_insert_ns = 0;    ///< Wall-clock in those phases.
    bool has_longest_insert = false;
    std::uint32_t longest_insert_length = 0;
    bool longest_insert_front = false;  ///< Longest phase is Insert-Front.
    bool sai_match = false;             ///< A Sort trails an insertion phase.
    std::uint32_t sai_phase_length = 0; ///< Length of the matched phase.

    // --- Implement-Queue / Insert-Delete-Front / Stack ------------------
    EndTraffic iq_traffic;    ///< Window = DetectorConfig::iq_end_window.
    EndTraffic edge_traffic;  ///< Window = 1 (exact ends).
    std::size_t resizes = 0;  ///< Array reallocations (OpKind::Resize).

    // --- Frequent-Search / Frequent-Long-Read ---------------------------
    std::size_t read_pattern_events = 0;  ///< Non-synthetic read patterns.
    std::size_t long_read_patterns = 0;   ///< Coverage >= flr_min_coverage.
    double weighted_reads = 0.0;  ///< ForAll weighted by elements read.
    double weighted_total = 0.0;

    // --- Write-Without-Read tail phase ----------------------------------
    AccessType tail_type = AccessType::Read;
    std::size_t tail_length = 0;
    std::uint32_t tail_last_size = 0;  ///< Size at the profile's last event.

    friend bool operator==(const InstanceStats&,
                           const InstanceStats&) = default;
};

}  // namespace dsspy::core
