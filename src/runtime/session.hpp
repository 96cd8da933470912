// Profiling session: owns the instance registry, the per-thread event
// channels, the asynchronous collector, and the post-mortem profile store.
//
// This is the C++ equivalent of DSspy's dynamic-analysis module.  The paper
// runs analysis "in a separate process which receives the runtime
// information via asynchronous intra-process communication".  Here each
// recording thread appends to its own unsynchronized chunk chain.  Without
// an event sink, `stop()` hands the chains to the store without copying,
// and the store's finalize places events straight into per-instance
// columns.  With a sink attached, a collector thread reads each chain's
// published prefix while the workload runs and delivers the events in
// global `seq` order, copied from the chunk rows into column batches; in
// Incremental mode it frees each chunk it has delivered.
// Both paths run the same capture code, so they record the same events.
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
//   * Compact rows: since seq, time and thread follow from an event's
//     index in its channel, the channel stores only a 24-byte
//     CaptureRow per event plus one seq base per block and one clock
//     reading per stride, kept in the same chunk (CaptureChunk); finalize
//     and the collector rebuild the full event.
//   * Frame-free fast path: record() is inline.  Per event it checks the
//     thread's first cached slot, the channel's `sealed` flag and its
//     write limit, stores one row and publishes the count.  The write
//     limit is the nearer of the chunk end and the next stride, so one
//     compare covers clock reads, seq refills, chunk growth, the live
//     drain's backpressure and the row tally; those, slot misses and
//     telemetry run in cold out-of-line functions.
//   * Count while capturing: in a Postmortem session refill adds the
//     stride it closes (at most 64 rows, still in L1) to its chunk's
//     per-instance tally, one run of equal ids at a time, and stop()
//     adds the tail.  The store's finalize then sums tallies instead of
//     reading every row a second time to count it.
//   * Live drain: the collector acknowledges each channel's published
//     rows and delivers them in seq order from the chunks.  Seq blocks are
//     handed out densely, one channel each, so one cursor suffices: the
//     channel whose next row carries it delivers its run, one EventBatch
//     of that thread's consecutive seqs filled straight from the rows.
//     The chain's chunk vector is shared with the collector under a
//     per-channel mutex that only chunk growth and the collector's step
//     to the next chunk take.  A thread more than `drain_bound` events
//     ahead of the collector's acknowledgement waits in refill.
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
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/access_event.hpp"
#include "runtime/instance_registry.hpp"
#include "runtime/profile_store.hpp"

namespace dsspy::runtime {

/// How events travel from the mutator threads to the ProfileStore.  There
/// is one way; the type stays so that callers can keep naming it.
enum class CaptureMode {
    /// Per-thread chunk chains, handed to the store at stop() and read
    /// live by the collector when an event sink is attached.
    Buffered,
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
/// quiesced (joined); it delivers or hands on outstanding events and
/// finalizes the store.  After `stop()` the session is read-only.  The
/// contract is enforced by an acquire/release handshake: every completed
/// `record()` release-publishes its channel's event count, `stop()`
/// acquire-reads it and seals the channel; late records are dropped (and
/// assert in debug builds).
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
    using EventSink = std::function<void(const EventBatch&)>;
    /// Consumer for instance registrations; see set_instance_sink().
    using InstanceSink = std::function<void(const InstanceInfo&)>;

    /// `drain_bound` is the live drain's per-channel backpressure bound in
    /// events: with an event sink attached, a recording thread waits
    /// while more than this many of its events are not yet acknowledged by
    /// the collector.  Without a sink it has no effect.
    explicit ProfilingSession(CaptureMode mode = CaptureMode::Buffered,
                              std::size_t drain_bound = 64 * 1024,
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

    /// Stop capture: deliver the rest of the events to the sink, hand the
    /// chunk chains to the store or drop them (no channel keeps its chunks
    /// afterwards), finalize the store.  Idempotent.
    void stop();

    /// True until `stop()` has been called.
    [[nodiscard]] bool capturing() const noexcept {
        return capturing_.load(std::memory_order_acquire);
    }

    [[nodiscard]] AnalysisMode analysis_mode() const noexcept {
        return analysis_;
    }

    /// Install a consumer for captured events and start the collector
    /// thread that feeds it.  Must be installed before the first record().
    /// Delivery is in ascending global `seq` order — which implies each
    /// instance's (and each thread's) events arrive in their program
    /// order, the order the finalized store would present: the collector
    /// delivers seq by seq, each run from the chain whose next row carries
    /// the next seq, and waits while no chain has published it; stop()
    /// delivers the rest.  Each batch is one thread's run of consecutive
    /// seqs.  The sink runs on the collector thread and must not call back
    /// into this session except for registry()/snapshot reads.
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
        Channel(ThreadId id, std::uint64_t owner);

        // Hot-path state, first so that record() touches one cache line.
        /// Next free row, and the nearer of the chunk end and the row of
        /// the next multiple of kTimestampStride.
        CaptureRow* write_pos = nullptr;
        CaptureRow* write_limit = nullptr;
        std::atomic<std::uint64_t> events{0};  ///< Completed records.
        std::atomic<bool> sealed{false};       ///< Set by stop().

        const std::uint64_t owner;  ///< Serial of the recording thread.
        CaptureRow* chunk_end = nullptr;  ///< End of the current chunk.
        /// First row of the current chunk not yet in its tally.
        CaptureRow* tally_pos = nullptr;
        std::uint64_t seq_base = 0;  ///< Seq of the current block's start.
        std::uint64_t stamp = 0;     ///< Most recent clock reading.

        /// Rows land in a chain of fixed chunks (next_capture_chunk's
        /// schedule).  Unlike a growable vector this never copies on
        /// growth — at millions of events the reallocation memcpy
        /// dominates the capture cost — and chunks are allocated
        /// uninitialized so each page is touched exactly once.  stop()
        /// hands the chain to the store (or drops it) without copying it.
        CaptureChain chain;
        /// Guards `chain.chunks` while a collector runs: taken when refill
        /// adds a chunk and when the collector steps to the next one.
        std::mutex chain_mutex;
        /// Events the collector has acknowledged; refill holds the thread
        /// while it runs more than drain_bound ahead.  Delivery may lag.
        std::atomic<std::uint64_t> drained{0};

        // Live-drain state, touched only by the collector.
        CaptureView reading;          ///< The chunk holding `delivered`.
        std::size_t next_chunk = 0;   ///< Index of the chunk after it.
        std::uint64_t delivered = 0;  ///< Events handed to the sink.

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

    /// Everything record() does not do inline: refills, slot misses and
    /// the sealed check's failure.
    [[gnu::cold, gnu::noinline]] void record_slow(
        InstanceId instance, OpKind op, std::int64_t position,
        std::uint32_t size) noexcept;
    /// At the write limit: tally the stride just closed, wait out the
    /// drain bound when a sink is attached, add a chunk when the current
    /// one is full, take the clock reading (and seq block) due at event
    /// `k`, and move the limit to the next stride or chunk end.
    [[gnu::cold]] void refill(Channel& chan, std::uint64_t k);
    /// Add rows [`row`, `end`) of `chunk` to its tally.  The tally grows
    /// only to the registry's size, read under its mutex only then; a row
    /// with any other id drops the tally, and the store counts the chunk.
    void tally_rows(CaptureChunk& chunk, const CaptureRow* row,
                    const CaptureRow* end) noexcept;
    Channel& channel_for_current_thread();
    void collector_loop(const std::stop_token& st);
    /// Acknowledge every channel's newly published rows, then deliver
    /// what their seqs allow.  False when nothing was new.
    bool collect_round();
    /// Deliver acknowledged rows from `next_seq_` on until no channel
    /// holds it; with `final_flush` a gap no channel can fill is skipped.
    void deliver(bool final_flush);
    /// Seq of `chan`'s acknowledged row `k`, its first undelivered one.  At
    /// a chunk end the reading steps to the next chunk and, in Incremental
    /// mode, frees the one behind.
    std::uint64_t row_seq(Channel& chan, std::uint64_t k);

    const std::size_t drain_bound_;
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

    EventSink sink_;              ///< Ordered-delivery consumer (may be empty).
    std::uint64_t next_seq_ = 0;  ///< Collector: next seq to deliver.
    /// Collector: the run it delivers (allocated with the sink).
    std::unique_ptr<EventColumns> columns_;
    InstanceSink instance_sink_;
    /// Mirrors sink_ presence for refill, without touching std::function.
    std::atomic<bool> has_sink_{false};

    std::jthread collector_;  ///< Runs while a sink is attached.
};

}  // namespace dsspy::runtime
