// Structure-of-arrays view of the recorded event stream (DESIGN.md §11).
//
// The post-mortem detectors are per-field scans: access-type histograms,
// position-regularity streaks, end-traffic window counts.  Run over
// AccessEvent rows they would drag every byte of each event through the
// cache to look at one or two fields.  The ColumnStore keeps each field in
// its own contiguous array — timestamps, positions, sizes, op kinds,
// thread ids — with events grouped into one half-open row range per
// instance, in per-instance `seq` order.  Detector kernels
// (core/detector_kernels.hpp) then stream exactly the bytes they need, and
// the SIMD paths get unit-stride loads for free.  All five arrays are
// carved from one bulk buffer (runtime/bulk_buffer.hpp): a large store
// sits on one huge-page mapping, so filling it costs a fault per 2 MiB
// rather than per 4 KiB, and rounding wastes at most 2 MiB per store.
//
// Two producers fill it:
//   * ProfileStore::finalize — a counting scatter of the captured event
//     chunks into per-instance row ranges, from counts that arrive with
//     the chunks (profile_store.hpp);
//   * runtime::read_trace_columns — the post-mortem trace loader
//     (trace_mmap.hpp): the shared DST1 chunk walk (trace_codec.hpp)
//     decodes mmapped chunks straight into rows, and CSV records are
//     collected column by column.  Neither sets a range for the
//     kInvalidInstance sentinel: DST1 rejects it, CSV drops its events.
// Rows that arrive out of `seq` order are put back in order by one shared
// permutation regroup, sort_rows() below.  Both producers keep the `seq`
// of every row beside the store, and for_each_event() below rebuilds
// whole AccessEvents from the columns and that `seq` (the trace writers'
// path).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/access_event.hpp"
#include "runtime/bulk_buffer.hpp"

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
/// Rows within one instance's range are in ascending `seq` order: the
/// range is the instance's runtime profile, its events in chronological
/// order.  `seq` itself is not a column here — producers that need it
/// keep it beside the store.
class ColumnStore {
public:
    ColumnStore() = default;
    /// Move-only; the source is left empty.
    ColumnStore(ColumnStore&& other) noexcept;
    ColumnStore& operator=(ColumnStore&& other) noexcept;

    /// Discard all rows and ranges.
    void clear();

    /// Size all columns for `rows` events and `instance_slots` range slots
    /// (builder step).  The columns are left uninitialized: builders must
    /// write every row through the mutable column pointers.
    void allocate(std::size_t rows, std::size_t instance_slots);

    /// Assign the row range of one instance (builder step).
    void set_range(InstanceId id, std::size_t begin, std::size_t end);

    [[nodiscard]] std::size_t total_events() const noexcept { return rows_; }
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
        return time_ns_;
    }
    [[nodiscard]] const std::int64_t* position() const noexcept {
        return position_;
    }
    [[nodiscard]] const std::uint32_t* sizes() const noexcept {
        return size_;
    }
    [[nodiscard]] const std::uint8_t* op() const noexcept { return op_; }
    [[nodiscard]] const std::uint16_t* thread() const noexcept {
        return thread_;
    }

    // Mutable column pointers for builders.  Only valid after allocate().
    [[nodiscard]] std::uint64_t* mutable_time_ns() noexcept {
        return time_ns_;
    }
    [[nodiscard]] std::int64_t* mutable_position() noexcept {
        return position_;
    }
    [[nodiscard]] std::uint32_t* mutable_sizes() noexcept { return size_; }
    [[nodiscard]] std::uint8_t* mutable_op() noexcept { return op_; }
    [[nodiscard]] std::uint16_t* mutable_thread() noexcept {
        return thread_;
    }

    /// Row `i` as the AccessEvent of instance `id` whose capture seq is
    /// `seq`.
    [[nodiscard]] AccessEvent event(std::size_t i, InstanceId id,
                                    std::uint64_t seq) const noexcept {
        AccessEvent ev;
        ev.seq = seq;
        ev.time_ns = time_ns_[i];
        ev.position = position_[i];
        ev.instance = id;
        ev.size = size_[i];
        ev.op = static_cast<OpKind>(op_[i]);
        ev.thread = thread_[i];
        return ev;
    }

    /// Reconstruct one row as an AccessEvent (tests and debugging: no
    /// instance id, and `seq` is the row index, not the capture seq).
    [[nodiscard]] AccessEvent row(std::size_t i) const noexcept {
        return event(i, kInvalidInstance, i);
    }

private:
    std::size_t rows_ = 0;
    /// One bulk buffer (runtime/bulk_buffer.hpp) the five columns are
    /// carved from, widest first.
    BulkBuffer<std::byte> storage_;
    std::uint64_t* time_ns_ = nullptr;
    std::int64_t* position_ = nullptr;
    std::uint32_t* size_ = nullptr;
    std::uint16_t* thread_ = nullptr;
    std::uint8_t* op_ = nullptr;
    std::vector<ColumnRange> ranges_;
};

/// Call `fn(const AccessEvent&)` for each of instance `id`'s rows in
/// range (`seq`) order, every field built on the fly; `seq` is the column
/// of capture seqs parallel to the rows.
template <class Fn>
void for_each_event(const ColumnStore& columns, const std::uint64_t* seq,
                    InstanceId id, Fn&& fn) {
    const ColumnRange range = columns.range(id);
    for (std::size_t row = range.begin; row < range.end; ++row)
        fn(columns.event(row, id, seq[row]));
}

/// The permutation regroup: stable-sort rows [`begin`, `end`) by
/// (`instance`, `seq`), moving every column of `columns` and the `seq` and
/// `instance` arrays along.  `instance` may be null when the rows all
/// belong to one instance.  Ties keep their row order, so even duplicate
/// (instance, seq) pairs land in a fixed order.  Ranges are not touched.
void sort_rows(ColumnStore& columns, std::uint64_t* seq,
               std::uint32_t* instance, std::size_t begin, std::size_t end);

}  // namespace dsspy::runtime
