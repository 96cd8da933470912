// Profiling session: owns the instance registry, the per-thread event
// channels, the asynchronous collector, and the post-mortem profile store.
//
// This is the C++ equivalent of DSspy's dynamic-analysis module.  The paper
// runs analysis "in a separate process which receives the runtime
// information via asynchronous intra-process communication"; here each
// recording thread owns a lock-free SPSC ring drained by a dedicated
// collector thread (`CaptureMode::Streaming`), or an unsynchronized
// per-thread chunk chain that `stop()` hands to the store without copying
// (`CaptureMode::Buffered`).  Both modes produce an identical ProfileStore,
// whose finalize places events straight into per-instance columns; the
// micro benches compare their overhead.
//
// Hot-path design (the paper reports an average 47x capture slowdown; this
// implementation targets low single-digit overhead):
//   * Sequencing: instead of a globally-contended fetch-add per event, each
//     thread draws blocks of `kSeqBlockSize` sequence numbers from a global
//     allocator and numbers its events from the block.  Sequence numbers
//     stay globally unique and strictly increasing per thread, so each
//     thread's chain is already in `seq` order and finalize() reconciles
//     the chains into a deterministic total order that preserves every
//     thread's program order (re-sorting only instances that several
//     threads touched).
//   * Timestamps: the clock is read once per `kTimestampStride` events per
//     thread, at channel event indices that are multiples of the stride
//     (every block boundary is one); events in between reuse the last
//     reading.  Timestamps stay monotonic per thread at stride granularity
//     — sufficient for the duration-based use-case rules, 64x fewer clock
//     reads.
//   * Compact rows: since seq, time and thread follow from a Buffered
//     event's index in its channel, the channel stores only a 24-byte
//     CaptureRow per event plus one seq base per block and one clock
//     reading per stride, kept in the same chunk (CaptureChunk); finalize
//     rebuilds the full event.
//   * Frame-free fast path: record() is inline.  Per Buffered event it
//     checks the thread's first cached slot, the channel's `sealed` flag
//     and its write limit, stores one row and publishes the count.  The
//     write limit is the nearer of the chunk end and the next stride, so
//     one compare covers clock reads, seq refills and chunk growth; those,
//     slot misses and telemetry run out of line.  Streaming events take
//     the out-of-line record_slow(), which is not cold: it builds the
//     AccessEvent and pushes it to the ring.
//   * Registration: channels live on a lock-free intrusive list, so thread
//     registration never stalls the collector and the collector never
//     blocks producers.  A thread keeps one channel per session: a thread
//     whose slot cache evicted a session finds its channel again on the
//     list.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/access_event.hpp"
#include "runtime/instance_registry.hpp"
#include "runtime/profile_store.hpp"
#include "runtime/spsc_ring.hpp"

namespace dsspy::runtime {

/// How events travel from the mutator threads to the ProfileStore.
enum class CaptureMode {
    Buffered,   ///< Per-thread append-only buffers, merged at stop().
    Streaming,  ///< Per-thread SPSC rings drained live by a collector thread.
};

/// What happens to events once captured (DESIGN.md §8).
enum class AnalysisMode {
    /// Retain every event in the ProfileStore for post-mortem analysis.
    Postmortem,
    /// Events are handed to the event sink as they drain and are NOT
    /// retained: the store stays empty and memory is bounded by the
    /// live-instance state of the attached incremental analyzer.
    Incremental,
};

/// One recording session: create, run the instrumented workload, stop(),
/// then hand the session to `core::Dsspy` for analysis.
///
/// Threading contract: `record()` may be called from any number of threads
/// concurrently.  `stop()` must be called after all recording threads have
/// quiesced (joined); it drains/merges outstanding events and finalizes the
/// store.  After `stop()` the session is read-only.  The contract is
/// enforced by an acquire/release handshake: every completed `record()`
/// release-publishes its channel's event count, `stop()` acquire-reads it
/// and seals the channel; late records are dropped (and assert in debug
/// builds).
class ProfilingSession {
public:
    /// Sequence numbers are handed to threads in blocks of this size; the
    /// global allocator is touched once per block instead of once per event.
    static constexpr std::uint64_t kSeqBlockSize = CaptureChunk::kSeqBlock;

    /// The monotonic clock is read once per this many events per thread.
    static constexpr std::uint32_t kTimestampStride =
        CaptureChunk::kStampStride;

    static_assert(kSeqBlockSize % kTimestampStride == 0,
                  "every seq block starts with a clock reading");

    /// Batch consumer for captured events; see set_event_sink().
    using EventSink = std::function<void(std::span<const AccessEvent>)>;
    /// Consumer for instance registrations; see set_instance_sink().
    using InstanceSink = std::function<void(const InstanceInfo&)>;

    explicit ProfilingSession(CaptureMode mode = CaptureMode::Buffered,
                              std::size_t ring_capacity = 64 * 1024,
                              AnalysisMode analysis = AnalysisMode::Postmortem);
    ~ProfilingSession();

    ProfilingSession(const ProfilingSession&) = delete;
    ProfilingSession& operator=(const ProfilingSession&) = delete;

    /// Register a new data-structure instance (called by the proxies).
    InstanceId register_instance(DsKind kind, std::string type_name,
                                 support::SourceLoc location);

    /// Mark the end of an instance's life cycle.
    void mark_deallocated(InstanceId id);

    /// Record one access event.  Hot path; safe from any thread.
    void record(InstanceId instance, OpKind op, std::int64_t position,
                std::uint32_t size) noexcept {
        const ThreadSlot& slot = t_slots_[0];
        if (slot.token == token_) [[likely]] {
            Channel& chan = *slot.channel;
            if (chan.write_pos != chan.write_limit &&
                !chan.sealed.load(std::memory_order_relaxed)) [[likely]] {
                *chan.write_pos++ = CaptureRow{position, instance, size, op};
                // Release-publish the completed record; stop() acquire-
                // reads this count (single writer: plain add).
                chan.events.store(
                    chan.events.load(std::memory_order_relaxed) + 1,
                    std::memory_order_release);
                return;
            }
        }
        record_slow(instance, op, position, size);
    }

    /// Stop capture: drain rings / hand chunk chains to the store or the
    /// sink (no channel keeps its chunks afterwards), finalize the store.
    /// Idempotent.
    void stop();

    /// True until `stop()` has been called.
    [[nodiscard]] bool capturing() const noexcept {
        return capturing_.load(std::memory_order_acquire);
    }

    [[nodiscard]] CaptureMode mode() const noexcept { return mode_; }

    [[nodiscard]] AnalysisMode analysis_mode() const noexcept {
        return analysis_;
    }

    /// Install a consumer for captured events.  Must be installed before
    /// the first record().  Delivery is in ascending global `seq` order —
    /// which implies each instance's (and each thread's) events arrive in
    /// their program order, the order the finalized store would present:
    /// in Streaming mode the collector merges the per-thread rings behind
    /// a watermark (every channel's published sequence bound) and delivers
    /// as the watermark advances; in Buffered mode the per-thread chains
    /// are merge-delivered at stop().  The sink runs on the collector
    /// thread (Streaming) or the stop() caller (Buffered) and must not
    /// call back into this session except for registry()/snapshot reads.
    void set_event_sink(EventSink sink);

    /// Install a consumer notified of every instance registration (after
    /// it lands in the registry).  Must be installed before profiling
    /// starts; runs on the registering thread.
    void set_instance_sink(InstanceSink sink);

    /// The recorded profiles.  Call after `stop()`.
    [[nodiscard]] const ProfileStore& store() const noexcept { return store_; }

    [[nodiscard]] const InstanceRegistry& registry() const noexcept {
        return registry_;
    }

    /// Number of distinct threads that recorded events.
    [[nodiscard]] std::size_t thread_count() const noexcept;

    /// Total events recorded so far (exact after stop()).
    [[nodiscard]] std::uint64_t events_recorded() const noexcept;

    /// Wall-clock duration of the capture window in nanoseconds
    /// (start of session to stop()).
    [[nodiscard]] std::uint64_t capture_duration_ns() const noexcept;

    /// Events stored against instance ids the registry never issued
    /// (store-only "orphans"; see ProfileStore::orphan_events).  Exact
    /// after stop().
    [[nodiscard]] std::size_t orphan_events() const;

private:
    struct Channel {
        Channel(ThreadId id, std::uint64_t owner, CaptureMode mode,
                std::size_t ring_capacity);

        // Hot-path state, first so that record() touches one cache line.
        /// Buffered mode: next free row, and the nearer of the chunk end
        /// and the row of the next multiple of kTimestampStride.  Both
        /// stay null in Streaming mode, so record() always takes the
        /// slow path there.
        CaptureRow* write_pos = nullptr;
        CaptureRow* write_limit = nullptr;
        std::atomic<std::uint64_t> events{0};  ///< Completed records.
        std::atomic<bool> sealed{false};       ///< Set by stop().

        const std::uint64_t owner;  ///< Serial of the recording thread.
        CaptureRow* chunk_end = nullptr;  ///< End of the current chunk.
        std::uint64_t seq_base = 0;  ///< Seq of the current block's start.
        std::uint64_t stamp = 0;     ///< Most recent clock reading.

        /// Buffered mode: rows land in a chain of fixed chunks
        /// (next_capture_chunk's schedule).  Unlike a growable vector this never
        /// copies on growth — at millions of events the reallocation
        /// memcpy dominates the capture cost — and chunks are allocated
        /// uninitialized so each page is touched exactly once.  stop()
        /// hands the chain to the store (or frees it once merged to the
        /// sink) without copying it.
        CaptureChain chain;

        std::unique_ptr<SpscRing<AccessEvent>> ring;  // Streaming mode

        /// Lower bound on the seq of any future event from this channel
        /// (stored after each record when an event sink is attached);
        /// the collector's ordered-delivery watermark is the minimum of
        /// these bounds across channels.
        std::atomic<std::uint64_t> published{0};

        // Ordered-delivery state, touched only by the collector.
        std::vector<AccessEvent> pending;  ///< Drained, not yet delivered.
        std::size_t pending_head = 0;
        std::uint64_t bound = 0;           ///< published, read pre-drain.

        Channel* next = nullptr;  ///< Lock-free registration list link.
    };

    /// Thread-local cache: resolves (session token) -> channel without
    /// locking on the hot path.  A thread that records into several live
    /// sessions keeps one slot per session, most recently used first.
    struct ThreadSlot {
        std::uint64_t token;  ///< Session token; 0 for an empty slot.
        Channel* channel;
    };
    static constinit inline thread_local std::array<ThreadSlot, 4> t_slots_{};

    /// Everything record() does not do inline: every Streaming event,
    /// Buffered refills, slot misses and the sealed check's failure.  Not
    /// cold, since Streaming capture runs through it on every event.
    [[gnu::noinline]] void record_slow(InstanceId instance, OpKind op,
                                       std::int64_t position,
                                       std::uint32_t size) noexcept;
    /// Buffered, at the write limit: add a chunk when the current one is
    /// full, take the clock reading (and seq block) due at event `k`, and
    /// move the limit to the next stride or chunk end.
    [[gnu::cold]] void refill(Channel& chan, std::uint64_t k);
    /// Draw a seq block when event `k` starts one, and read the clock.
    void tick(Channel& chan, std::uint64_t k);
    Channel& channel_for_current_thread();
    void collector_loop(const std::stop_token& st);
    void drain_all_rings();
    bool collect_ordered_round();
    void deliver_ordered(bool final_flush);
    void buffered_merge_to_sink(bool release);

    const CaptureMode mode_;
    const std::size_t ring_capacity_;
    const AnalysisMode analysis_;
    const std::uint64_t token_;  ///< Unique id for thread-local caching.
    /// Trace context of the thread that constructed the session: collector
    /// and stop()-time spans parent here so capture work nests under the
    /// pipeline's root span even though it runs on other threads.
    const obs::TraceContext trace_ctx_;

    InstanceRegistry registry_;
    ProfileStore store_;

    std::atomic<std::uint64_t> seq_alloc_{0};  ///< Next unissued seq block.
    std::atomic<std::uint32_t> next_tid_{0};
    std::atomic<bool> capturing_{true};
    std::uint64_t start_ns_ = 0;
    std::uint64_t stop_ns_ = 0;
    /// Process-wide minor faults at construction; sampled only when
    /// telemetry is on (capture.minor_faults, store.finalize_minor_faults).
    std::optional<std::uint64_t> start_faults_;

    /// Head of the intrusive channel list (push-front on registration;
    /// traversal needs no lock).  Channels are owned by the list and freed
    /// in the destructor.
    std::atomic<Channel*> channels_head_{nullptr};

    EventSink sink_;            ///< Ordered-delivery consumer (may be empty).
    InstanceSink instance_sink_;
    /// Fast flags mirroring sink_ presence: checked on the hot path
    /// (record) and every collector round without touching std::function.
    std::atomic<bool> has_sink_{false};

    std::jthread collector_;  // Streaming mode only.
};

}  // namespace dsspy::runtime
