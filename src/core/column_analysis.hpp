// An instance's event rows as columns (DESIGN.md §11).
//
// An instance's runtime profile ("all access events to a data structure
// instance ... in chronological order", Section II-B) is its row range in
// a ColumnStore.  ColumnSlice is that range as raw column pointers, the
// input of the vectorized kernels (detector_kernels.hpp) and of the
// per-instance fold's slice step (instance_fold.hpp): the post-mortem
// engine hands the fold whole row ranges in place, the incremental
// analyzer each long same-instance run of a column batch.  The differential suite in
// tests/test_column_analysis.cpp holds the verdicts to a per-event oracle
// (tests/aos_oracle.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/access_type.hpp"
#include "runtime/bulk_buffer.hpp"
#include "runtime/column_store.hpp"

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
[[nodiscard]] inline ColumnSlice make_slice(const runtime::ColumnStore& store,
                                            runtime::ColumnRange range,
                                            const std::uint8_t* types_base) {
    const ColumnSlice all{store.time_ns(), store.position(), store.sizes(),
                          store.op(),      types_base,       store.thread(),
                          store.total_events()};
    return all.rows(range.begin, range.end);
}

}  // namespace dsspy::core
