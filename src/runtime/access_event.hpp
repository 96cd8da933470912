// The access event — the unit of information DSspy records at runtime.
//
// Section IV of the paper lists the five fields gathered per event:
//   * Time stamp  — when did the event occur?
//   * Read/Write  — did the event read or write the data structure?
//   * Position    — what location of the data structure was accessed?
//   * Size        — what was the size of the structure at the access?
//   * Thread-ID   — what thread raised the access event?
// We additionally keep the raw interface operation (OpKind) and the target
// instance id; read/write-ness is derived from OpKind in `core/`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "runtime/op.hpp"

namespace dsspy::runtime {

/// Dense identifier of a registered data-structure instance.
using InstanceId = std::uint32_t;

/// Sentinel for "no instance".
inline constexpr InstanceId kInvalidInstance = 0xFFFFFFFFu;

/// Compact per-session thread identifier (assigned on first record).
using ThreadId = std::uint16_t;

/// Position sentinel for whole-container operations (Clear, Sort, ...).
inline constexpr std::int64_t kWholeContainer = -1;

/// One recorded access event (40 bytes).
struct AccessEvent {
    std::uint64_t seq = 0;        ///< Global logical timestamp (total order).
    std::uint64_t time_ns = 0;    ///< Monotonic wall-clock timestamp.
    std::int64_t position = 0;    ///< Target index, or kWholeContainer.
    InstanceId instance = kInvalidInstance;  ///< Target instance.
    std::uint32_t size = 0;       ///< Container size at the access.
    OpKind op = OpKind::Get;      ///< Raw interface operation.
    ThreadId thread = 0;          ///< Raising thread.

    friend bool operator==(const AccessEvent&, const AccessEvent&) = default;
};

static_assert(sizeof(AccessEvent) == 40, "keep events compact");

/// Events of one thread with consecutive seqs, in column layout: what the
/// live drain hands its event sink and what the incremental analyzer
/// folds.  Row `i` has seq `first_seq + i`; `ops` holds OpKind values.
/// The columns belong to the producer and stay valid only during the call
/// that passes the batch.
struct EventBatch {
    ThreadId thread = 0;
    std::uint64_t first_seq = 0;
    std::size_t n = 0;
    const InstanceId* instances = nullptr;
    const std::uint64_t* time_ns = nullptr;
    const std::int64_t* positions = nullptr;
    const std::uint32_t* sizes = nullptr;
    const std::uint8_t* ops = nullptr;

    /// Row `i` as an event.
    [[nodiscard]] AccessEvent event(std::size_t i) const noexcept {
        return AccessEvent{first_seq + i,
                           time_ns[i],
                           positions[i],
                           instances[i],
                           sizes[i],
                           static_cast<OpKind>(ops[i]),
                           thread};
    }
};

/// Storage for the rows of EventBatches: `capacity` rows per column,
/// allocated once and left uninitialized.
struct EventColumns {
    EventColumns() = default;
    explicit EventColumns(std::size_t rows)
        : capacity(rows),
          instances(std::make_unique_for_overwrite<InstanceId[]>(rows)),
          time_ns(std::make_unique_for_overwrite<std::uint64_t[]>(rows)),
          positions(std::make_unique_for_overwrite<std::int64_t[]>(rows)),
          sizes(std::make_unique_for_overwrite<std::uint32_t[]>(rows)),
          ops(std::make_unique_for_overwrite<std::uint8_t[]>(rows)) {}

    /// Rows [0, n) as a batch of `thread`'s events from seq `first_seq`.
    [[nodiscard]] EventBatch batch(ThreadId thread, std::uint64_t first_seq,
                                   std::size_t n) const noexcept {
        return {thread,          first_seq,       n,
                instances.get(), time_ns.get(),   positions.get(),
                sizes.get(),     ops.get()};
    }

    std::size_t capacity = 0;
    std::unique_ptr<InstanceId[]> instances;
    std::unique_ptr<std::uint64_t[]> time_ns;
    std::unique_ptr<std::int64_t[]> positions;
    std::unique_ptr<std::uint32_t[]> sizes;
    std::unique_ptr<std::uint8_t[]> ops;
};

}  // namespace dsspy::runtime
