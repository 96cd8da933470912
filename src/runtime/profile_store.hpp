// Post-mortem store of access events, grouped by instance.
//
// The dynamic-analysis module keeps the execution slowdown low "by only
// recording the access events at runtime and analyzing them post-mortem"
// (Section IV).  The ProfileStore is where recorded events land, and it
// holds them in the layout the analysis reads: the ColumnStore columns
// (DESIGN.md §11), one row range per instance in `seq` order, plus a
// private `seq` column — 31 bytes per event, once.
//
// Events arrive as chunks in arrival order, in one of two row layouts.
// Buffered capture hands each thread's CaptureChain over without copying
// (adopt): 24-byte CaptureRows whose `seq`, `time_ns` and `thread` are
// derived from the row's index in its chain and the small side tables
// its chunk carries (DESIGN.md §6).  Tests, benches and tools that build
// stores directly bring whole AccessEvents (append).  Every pending chunk
// arrives with its ChunkCounts — events per instance and the span of its
// seqs — so finalize() never reads an event to count it.  A capture
// chunk's counts come from the tally its recording thread kept while the
// rows were still in L1 (ProfilingSession::refill); every other chunk is
// counted by one helper where its events are touched anyway: append
// counts while it copies, and a re-finalize reads the counts of its
// placed rows off their ranges.
// finalize() sums the counts per contiguous group of chunks into each
// group's first row per instance, then places every event straight into
// its row, one template over the two row layouts, and frees each chunk
// once its events are placed.  Chunks, columns and the `seq` column are
// bulk buffers (runtime/bulk_buffer.hpp): from 2 MiB up they are
// huge-page mappings, so a chunk freed during finalize goes back to the OS
// at once.  Only instances whose rows arrived out of `seq` order (several
// recording threads, appended batches, externally built traces) are
// re-sorted, by the shared permutation regroup (column_store.hpp).  The
// columns and `seq` are the store's one event representation:
// runtime::for_each_event builds whole AccessEvents from them on the fly,
// one at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <variant>
#include <vector>

#include "runtime/access_event.hpp"
#include "runtime/bulk_buffer.hpp"
#include "runtime/column_store.hpp"

namespace dsspy::par {
class ThreadPool;
}

namespace dsspy::runtime {

/// One Buffered capture row (24 bytes): the fields of an AccessEvent that
/// vary from event to event.  `seq`, `time_ns` and `thread` are the same
/// for runs of a thread's events and live in its CaptureChunk's tables.
struct CaptureRow {
    std::int64_t position;  ///< Target index, or kWholeContainer.
    InstanceId instance;    ///< Target instance.
    std::uint32_t size;     ///< Container size at the access.
    OpKind op;              ///< Raw interface operation.
};

static_assert(sizeof(CaptureRow) == 24, "keep capture rows compact");

/// A block of events in arrival order: the unit ProfileStore::append
/// fills.
struct EventChunk {
    BulkBuffer<AccessEvent> events;
    std::size_t capacity = 0;  ///< Allocated slots.
    std::size_t size = 0;      ///< Filled slots (a prefix).
};

/// The next chunk of a chain whose last chunk has `previous` slots (0 for
/// the first), uninitialized.  The byte schedule capture chunks share:
/// 160 KiB first, doubling on malloc through 1.25 MiB; from the 2.5 MiB
/// request on, each chunk is a whole 4 MiB huge-page mapping.  That is 4K,
/// 8K, 16K and 32K events, then 104,857 per mapping.  Small sessions stay
/// below the 2 MiB mapping threshold.
[[nodiscard]] EventChunk next_event_chunk(std::size_t previous);

/// Where a block of one thread's Buffered capture lives: rows plus the
/// side tables the rest of each event is derived from.  A thread draws
/// sequence numbers in blocks of kSeqBlock, one block per kSeqBlock
/// events, and reads the clock at every kStampStride-th event; so event
/// `k` of the thread (counting across chunks) has seq `base(k / kSeqBlock)
/// + k % kSeqBlock` and the clock reading taken at event `k - k %
/// kStampStride`.  A chunk holds the base and the reading of every block
/// and stride that overlaps its rows, so the reading of a stride that
/// began in the previous chunk is repeated in its first slot.  The view
/// owns nothing: the collector reads a chunk through a copy of it while
/// the recording thread grows the chain.
struct CaptureView {
    static constexpr std::size_t kSeqBlock = 1024;
    static constexpr std::size_t kStampStride = 64;

    CaptureRow* rows = nullptr;
    std::uint64_t* seq_bases = nullptr;  ///< From block first / kSeqBlock.
    std::uint64_t* stamps = nullptr;     ///< From stride first / kStampStride.
    std::size_t first = 0;     ///< Thread event index of rows[0].
    std::size_t capacity = 0;  ///< Allocated rows.

    /// The side-table slots of thread event index `k`.
    [[nodiscard]] std::uint64_t& seq_base(std::size_t k) const noexcept {
        return seq_bases[k / kSeqBlock - first / kSeqBlock];
    }
    [[nodiscard]] std::uint64_t& stamp(std::size_t k) const noexcept {
        return stamps[k / kStampStride - first / kStampStride];
    }

    [[nodiscard]] std::uint64_t seq(std::size_t i) const noexcept {
        return seq_base(first + i) + (first + i) % kSeqBlock;
    }

    /// Row `i` as the event thread `thread` recorded.
    [[nodiscard]] AccessEvent event(std::size_t i,
                                    ThreadId thread) const noexcept {
        AccessEvent ev;
        ev.seq = seq(i);
        ev.time_ns = stamp(first + i);
        ev.position = rows[i].position;
        ev.instance = rows[i].instance;
        ev.size = rows[i].size;
        ev.op = rows[i].op;
        ev.thread = thread;
        return ev;
    }
};

/// A block of one thread's Buffered capture: the view's rows and tables
/// in one bulk buffer it owns, and the rows' per-instance tally.
struct CaptureChunk : CaptureView {
    BulkBuffer<std::byte> storage;
    std::size_t size = 0;  ///< Filled rows (a prefix).
    /// Rows per instance id, indexed by id, kept by the recording thread
    /// as it writes them; it covers exactly the first `size` rows while
    /// `counted` holds.  A chunk that is not counted (none is by default)
    /// is counted by ProfileStore::adopt instead.
    std::vector<std::uint32_t> tally;
    bool counted = false;
};

/// The next capture chunk of a chain whose last chunk has `previous` rows
/// (0 for the first), starting at thread event index `first`; rows and
/// tables uninitialized.  Same byte schedule as next_event_chunk: 6,788,
/// 13,577, 27,155 and 54,311 rows, then 173,800 per 4 MiB mapping.
[[nodiscard]] CaptureChunk next_capture_chunk(std::size_t previous,
                                              std::size_t first);

/// One recording thread's Buffered capture.
struct CaptureChain {
    std::vector<CaptureChunk> chunks;
    ThreadId thread = 0;
};

/// Accumulates events per instance; thread-safe for concurrent appends.
///
/// Events within one instance are presented in ascending `seq` order (the
/// chains of several recording threads and appended batches may arrive
/// out of order; finalization restores the global total order).  Reads finalize
/// any events still pending, so a store never shows a partial view.
class ProfileStore {
public:
    ProfileStore() = default;

    /// Movable (single-threaded contexts only — the source must not be
    /// receiving concurrent appends).
    ProfileStore(ProfileStore&& other) noexcept;
    ProfileStore& operator=(ProfileStore&& other) noexcept;
    ProfileStore(const ProfileStore&) = delete;
    ProfileStore& operator=(const ProfileStore&) = delete;

    /// Append a copy of a batch of events (tests, benches, tools that
    /// build traces directly).  Events with the kInvalidInstance sentinel
    /// are dropped.
    void append(std::span<const AccessEvent> events);

    /// Take over one thread's capture chain without copying it; each
    /// chunk's first `size` rows count.  A chunk's tally serves as its
    /// counts; chunks without one are counted here.  finalize() frees
    /// each chunk as soon as its events are placed.
    void adopt(CaptureChain chain);

    /// Place every pending event into its instance's column rows.  With a
    /// pool, the placement and the re-sorts run in parallel; the result is
    /// identical (each group writes rows its counts reserved, and each
    /// re-sorted instance owns a disjoint row range).
    void finalize(par::ThreadPool* pool = nullptr);

    /// Structure-of-arrays view of all events (DESIGN.md §11): one
    /// contiguous row range per instance, instances in id order, rows in
    /// per-instance `seq` order.  Finalizes pending events first (with
    /// `pool`).  The returned reference is invalidated by further appends.
    [[nodiscard]] const ColumnStore& columns(
        par::ThreadPool* pool = nullptr) const;

    /// The capture seq of every row, parallel to columns() (whole events
    /// come from both through runtime::for_each_event).  Finalizes
    /// pending events first (with `pool`); invalidated like columns().
    [[nodiscard]] const std::uint64_t* seq(
        par::ThreadPool* pool = nullptr) const;

    /// Total number of stored events.
    [[nodiscard]] std::size_t total_events() const;

    /// Number of instances that have at least one event.
    [[nodiscard]] std::size_t populated_instances() const;

    /// Highest instance id seen plus one (ids are dense).
    [[nodiscard]] std::size_t instance_slots() const;

    /// Events recorded against instance ids >= `registered_instances` —
    /// "orphan" (store-only) events with no registry entry behind them.
    /// Registry ids are dense, so everything at or past the registered
    /// count was appended with a fabricated id (external tools, corrupted
    /// producers).  Trace writers already persist these (see
    /// trace_io.hpp); this surfaces the same count in session summaries
    /// and the self-telemetry registry instead of only on disk.
    [[nodiscard]] std::size_t orphan_events(
        std::size_t registered_instances) const;

private:
    /// Capture rows waiting for finalize, with the thread that recorded
    /// them (the rows do not store it).
    struct ThreadChunk {
        CaptureChunk rows;
        ThreadId thread = 0;
    };
    /// What finalize reads of a pending chunk instead of its events:
    /// events per instance id (the kInvalidInstance sentinel is not
    /// counted) and the seqs of its first and last counted events.  A
    /// chunk holds fewer than 2^32 events.
    struct ChunkCounts {
        std::vector<std::uint32_t> per_instance;
        bool any = false;     ///< At least one event is counted.
        bool ordered = true;  ///< Seqs never decrease within the chunk.
        std::uint64_t first_seq = 0;
        std::uint64_t last_seq = 0;

        /// Count `n` events read through `rows` (`rows.at(i)` yields an
        /// AccessEvent): the one counting loop, run where a chunk's
        /// events are touched anyway, for every chunk whose producer
        /// kept no tally.
        template <class Rows>
        void add(const Rows& rows, std::size_t n);
    };
    /// A chunk waiting for finalize, in either row layout, with its
    /// counts.
    struct PendingChunk {
        std::variant<EventChunk, ThreadChunk> rows;
        ChunkCounts counts;
    };

    void finalize_locked(par::ThreadPool* pool) const;
    /// Counts of the placed rows, read off their ranges.
    [[nodiscard]] ChunkCounts placed_counts_locked() const;

    // Reads finalize pending events, so everything below is mutable and
    // guarded by mutex_.
    mutable std::mutex mutex_;
    mutable std::vector<PendingChunk> pending_;  ///< Arrival order.
    mutable ColumnStore columns_;
    mutable BulkBuffer<std::uint64_t> seq_;  ///< Parallel to rows.
};

}  // namespace dsspy::runtime
