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

#include <cstdint>

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

}  // namespace dsspy::runtime
