// Structure-of-arrays view of the recorded event stream (DESIGN.md §11).
//
// The post-mortem detectors are per-field scans: access-type histograms,
// position-regularity streaks, end-traffic window counts.  Run over the
// AoS ProfileStore they drag all 32 bytes of every AccessEvent through the
// cache to look at one or two fields.  The ColumnStore keeps each field in
// its own contiguous array — timestamps, positions, sizes, op kinds,
// thread ids — with events grouped into one half-open row range per
// instance, in the same per-instance `seq` order the finalized AoS store
// holds.  Detector kernels (core/detector_kernels.hpp) then stream exactly
// the bytes they need, and the SIMD paths get unit-stride loads for free.
//
// Two producers fill it:
//   * ProfileStore::columns() — transposed from the finalized AoS store;
//   * runtime::read_trace_columns — the shared DST1 chunk walk
//     (trace_codec.hpp) writing each event of mmapped chunks straight into
//     rows, with no AccessEvent vector in between (trace_mmap.hpp).  The
//     decoder rejects the kInvalidInstance sentinel, so every range id it
//     sets is a real instance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "runtime/access_event.hpp"

namespace dsspy::runtime {

/// Half-open range of column rows belonging to one instance.
struct ColumnRange {
    std::size_t begin = 0;
    std::size_t end = 0;

    [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
    [[nodiscard]] bool empty() const noexcept { return begin == end; }
};

/// Five per-field event columns plus the per-instance row ranges.
///
/// Rows within one instance's range are in ascending `seq` order (the
/// chronological order RuntimeProfile expects); `seq` itself is not stored
/// — it only exists to establish that order and is dropped once rows are
/// placed.
class ColumnStore {
public:
    /// Discard all rows and ranges.
    void clear();

    /// Size all columns for `rows` events and `instance_slots` range slots
    /// (builder step; rows are filled through the mutable column pointers).
    void allocate(std::size_t rows, std::size_t instance_slots);

    /// Assign the row range of one instance (builder step).
    void set_range(InstanceId id, std::size_t begin, std::size_t end);

    /// Transpose one instance's AoS event sequence into rows
    /// [`first_row`, `first_row + events.size()`) and record its range.
    void place_events(InstanceId id, std::size_t first_row,
                      std::span<const AccessEvent> events);

    [[nodiscard]] std::size_t total_events() const noexcept {
        return time_ns_.size();
    }
    [[nodiscard]] std::size_t instance_slots() const noexcept {
        return ranges_.size();
    }

    /// Row range of one instance; empty when the id is unknown or silent.
    [[nodiscard]] ColumnRange range(InstanceId id) const noexcept {
        if (id >= ranges_.size()) return {};
        return ranges_[id];
    }

    // Read-only columns; all have total_events() entries.
    [[nodiscard]] const std::uint64_t* time_ns() const noexcept {
        return time_ns_.data();
    }
    [[nodiscard]] const std::int64_t* position() const noexcept {
        return position_.data();
    }
    [[nodiscard]] const std::uint32_t* sizes() const noexcept {
        return size_.data();
    }
    [[nodiscard]] const std::uint8_t* op() const noexcept {
        return op_.data();
    }
    [[nodiscard]] const std::uint16_t* thread() const noexcept {
        return thread_.data();
    }

    // Mutable column pointers for builders.  Only valid after allocate().
    [[nodiscard]] std::uint64_t* mutable_time_ns() noexcept {
        return time_ns_.data();
    }
    [[nodiscard]] std::int64_t* mutable_position() noexcept {
        return position_.data();
    }
    [[nodiscard]] std::uint32_t* mutable_sizes() noexcept {
        return size_.data();
    }
    [[nodiscard]] std::uint8_t* mutable_op() noexcept { return op_.data(); }
    [[nodiscard]] std::uint16_t* mutable_thread() noexcept {
        return thread_.data();
    }

    /// Reconstruct one row as an AccessEvent (tests and debugging; `seq`
    /// is synthesized as the row index, not the original capture seq).
    [[nodiscard]] AccessEvent row(std::size_t i) const noexcept {
        AccessEvent ev;
        ev.seq = i;
        ev.time_ns = time_ns_[i];
        ev.position = position_[i];
        ev.size = size_[i];
        ev.op = static_cast<OpKind>(op_[i]);
        ev.thread = thread_[i];
        return ev;
    }

private:
    std::vector<std::uint64_t> time_ns_;
    std::vector<std::int64_t> position_;
    std::vector<std::uint32_t> size_;
    std::vector<std::uint8_t> op_;
    std::vector<std::uint16_t> thread_;
    std::vector<ColumnRange> ranges_;
};

}  // namespace dsspy::runtime
