#include "runtime/session.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <limits>
#include <span>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define DSSPY_HAVE_RUSAGE 1
#endif

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "support/stopwatch.hpp"

namespace dsspy::runtime {

namespace {

/// Self-telemetry ids for the capture pipeline, registered once on first
/// enabled use (every call site guards on obs::enabled() first, so a
/// disabled process never touches the registry).
struct CaptureMetricIds {
    obs::MetricId seq_block_refills;   ///< Per-thread seq blocks drawn.
    obs::MetricId channels;            ///< Recording threads registered.
    obs::MetricId dropped_after_stop;  ///< Quiesce-contract violations.
    obs::MetricId backpressure_waits;  ///< Ring-full wait episodes.
    obs::MetricId events_recorded;     ///< Total events captured.
    obs::MetricId events_per_sec;      ///< Capture-window throughput.
    obs::MetricId capture_wall_ns;     ///< Capture-window duration.
    obs::MetricId orphan_events;       ///< Store-only instance events.
    obs::MetricId collector_yields;    ///< Idle-backoff yield rounds.
    obs::MetricId collector_sleeps;    ///< Idle-backoff timed sleeps.
    obs::MetricId drain_batch;         ///< Histogram of drain batch sizes.
    obs::MetricId pending_hwm;         ///< Ordered-delivery buffer peak.
    obs::MetricId capture_faults;      ///< Minor faults, capture window.
    obs::MetricId finalize_faults;     ///< Minor faults, store finalize.
};

const CaptureMetricIds& capture_metrics() {
    static const CaptureMetricIds ids = [] {
        auto& reg = obs::MetricsRegistry::global();
        return CaptureMetricIds{
            reg.counter("capture.seq_block_refills"),
            reg.counter("capture.channels_registered"),
            reg.counter("capture.dropped_after_stop"),
            reg.counter("capture.backpressure_waits"),
            reg.counter("capture.events_recorded"),
            reg.gauge("capture.events_per_sec"),
            reg.gauge("capture.wall_ns"),
            reg.counter("store.orphan_events"),
            reg.counter("collector.backoff_yields"),
            reg.counter("collector.backoff_sleeps"),
            reg.histogram("collector.drain_batch_events"),
            reg.gauge("collector.pending_depth_hwm"),
            reg.counter("capture.minor_faults"),
            reg.counter("store.finalize_minor_faults"),
        };
    }();
    return ids;
}

/// Events below this count are finalized sequentially; above it the
/// store's scatter passes go to the shared thread pool.
constexpr std::size_t kParallelFinalizeThreshold = 1u << 16;

/// Collector backoff: yield this many empty rounds before sleeping.
constexpr unsigned kCollectorYieldRounds = 32;

/// Collector backoff: cap the timed sleep (microseconds, power of two).
constexpr unsigned kCollectorMaxSleepLog2 = 8;  // 256 us

/// Process-wide minor page faults so far (0 where getrusage is missing).
std::uint64_t minor_faults() noexcept {
#if DSSPY_HAVE_RUSAGE
    rusage usage{};
    if (::getrusage(RUSAGE_SELF, &usage) == 0)
        return static_cast<std::uint64_t>(usage.ru_minflt);
#endif
    return 0;
}

std::uint64_t next_session_token() noexcept {
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

/// A process-wide serial for the calling thread, unique over the process
/// lifetime (std::thread::id values are reused once a thread is joined).
std::uint64_t this_thread_serial() noexcept {
    static std::atomic<std::uint64_t> counter{1};
    thread_local const std::uint64_t serial =
        counter.fetch_add(1, std::memory_order_relaxed);
    return serial;
}

/// Record how many of a sealed chain's slots hold events: every chunk is
/// full except the last, which holds the rest of `events`.
void seal_chain(std::vector<CaptureChunk>& chunks, std::uint64_t events) {
    for (CaptureChunk& chunk : chunks) {
        chunk.size = static_cast<std::size_t>(
            std::min<std::uint64_t>(events, chunk.capacity));
        events -= chunk.size;
    }
}

}  // namespace

ProfilingSession::Channel::Channel(ThreadId id, std::uint64_t owner_serial,
                                   CaptureMode mode,
                                   std::size_t ring_capacity)
    : owner(owner_serial) {
    chain.thread = id;
    if (mode == CaptureMode::Streaming)
        ring = std::make_unique<SpscRing<AccessEvent>>(ring_capacity);
    // Buffered mode allocates its first chunk lazily on the first record.
}

ProfilingSession::ProfilingSession(CaptureMode mode, std::size_t ring_capacity,
                                   AnalysisMode analysis)
    : mode_(mode),
      ring_capacity_(ring_capacity),
      analysis_(analysis),
      token_(next_session_token()),
      trace_ctx_(obs::current_trace_context()),
      start_ns_(support::now_ns()) {
    if (obs::enabled()) start_faults_ = minor_faults();
    if (mode_ == CaptureMode::Streaming) {
        collector_ = std::jthread(
            [this](const std::stop_token& st) { collector_loop(st); });
    }
}

ProfilingSession::~ProfilingSession() {
    stop();
    Channel* chan = channels_head_.load(std::memory_order_acquire);
    while (chan != nullptr) {
        Channel* next = chan->next;
        delete chan;
        chan = next;
    }
}

InstanceId ProfilingSession::register_instance(DsKind kind,
                                               std::string type_name,
                                               support::SourceLoc location) {
    const InstanceId id = registry_.register_instance(
        kind, std::move(type_name), std::move(location));
    if (instance_sink_) instance_sink_(registry_.info(id));
    return id;
}

void ProfilingSession::set_event_sink(EventSink sink) {
    sink_ = std::move(sink);
    has_sink_.store(static_cast<bool>(sink_), std::memory_order_release);
}

void ProfilingSession::set_instance_sink(InstanceSink sink) {
    instance_sink_ = std::move(sink);
}

void ProfilingSession::mark_deallocated(InstanceId id) {
    registry_.mark_deallocated(id);
}

ProfilingSession::Channel& ProfilingSession::channel_for_current_thread() {
    for (std::size_t i = 0; i < t_slots_.size(); ++i) {
        if (t_slots_[i].token != token_) continue;
        // Move the hit to the front, where record() looks.
        const ThreadSlot hit = t_slots_[i];
        for (; i > 0; --i) t_slots_[i] = t_slots_[i - 1];
        t_slots_[0] = hit;
        return *hit.channel;
    }
    // Not cached: this thread may still own a channel whose slot was
    // evicted by other sessions.
    const std::uint64_t owner = this_thread_serial();
    Channel* chan = channels_head_.load(std::memory_order_acquire);
    while (chan != nullptr && chan->owner != owner) chan = chan->next;
    if (chan == nullptr) {
        // Register this thread with the session.  Push-front onto the
        // lock-free list — neither the collector nor other producers are
        // ever stalled by a registration.
        const auto tid = static_cast<ThreadId>(
            next_tid_.fetch_add(1, std::memory_order_relaxed));
        chan = new Channel(tid, owner, mode_, ring_capacity_);
        Channel* head = channels_head_.load(std::memory_order_relaxed);
        do {
            chan->next = head;
        } while (!channels_head_.compare_exchange_weak(
            head, chan, std::memory_order_release,
            std::memory_order_relaxed));
        if (obs::enabled())
            obs::MetricsRegistry::global().add(capture_metrics().channels);
    }
    // Install at the front; the least recently used slot drops out.
    for (std::size_t i = t_slots_.size() - 1; i > 0; --i)
        t_slots_[i] = t_slots_[i - 1];
    t_slots_[0] = ThreadSlot{token_, chan};
    return *chan;
}

void ProfilingSession::record_slow(InstanceId instance, OpKind op,
                                   std::int64_t position,
                                   std::uint32_t size) noexcept {
    if (!capturing_.load(std::memory_order_acquire)) [[unlikely]]
        return;
    const ThreadSlot& slot = t_slots_[0];
    Channel& chan = slot.token == token_ ? *slot.channel
                                         : channel_for_current_thread();
    if (chan.sealed.load(std::memory_order_relaxed)) [[unlikely]] {
        // Quiesce-contract violation: a record raced stop().  Loud in debug
        // builds, dropped (but counted) in release builds.
        if (obs::enabled())
            obs::MetricsRegistry::global().add(
                capture_metrics().dropped_after_stop);
        assert(false && "record() after stop(): recording threads must be "
                        "quiesced before stopping the session");
        return;
    }
    const std::uint64_t k = chan.events.load(std::memory_order_relaxed);
    if (mode_ == CaptureMode::Buffered) {
        if (chan.write_pos == chan.write_limit) refill(chan, k);
        *chan.write_pos++ = CaptureRow{position, instance, size, op};
        chan.events.store(k + 1, std::memory_order_release);
        return;
    }

    // Streaming: every event comes through here.
    if (k % kTimestampStride == 0) tick(chan, k);
    AccessEvent ev;
    ev.seq = chan.seq_base + k % kSeqBlockSize;
    ev.time_ns = chan.stamp;
    ev.position = position;
    ev.instance = instance;
    ev.size = size;
    ev.op = op;
    ev.thread = chan.chain.thread;
    // Blocking backpressure: the mutator waits for the collector rather
    // than dropping events — profiles must be complete for the pattern
    // analysis to be meaningful.  Escalate from yield to a short sleep in
    // case the collector is in its idle backoff.
    unsigned spins = 0;
    while (!chan.ring->try_push(ev)) [[unlikely]] {
        if (spins == 0 && obs::enabled())
            obs::MetricsRegistry::global().add(
                capture_metrics().backpressure_waits);
        if (++spins < 64) {
            std::this_thread::yield();
        } else {
            std::this_thread::sleep_for(std::chrono::microseconds(10));
        }
    }
    chan.events.store(k + 1, std::memory_order_release);
    // Ordered delivery: seq + 1 lower-bounds every future seq from this
    // channel (fresh blocks come from a monotonic allocator).  The release
    // pairs with the collector's acquire, so once it reads this bound,
    // every event below it is already in the ring.
    if (has_sink_.load(std::memory_order_relaxed))
        chan.published.store(ev.seq + 1, std::memory_order_release);
}

void ProfilingSession::tick(Channel& chan, std::uint64_t k) {
    if (k % kSeqBlockSize == 0) {
        // Telemetry rides this branch (once per kSeqBlockSize events).
        // The span parents under the session creator's context so refills
        // show up inside the run's tree rather than as orphan roots.
        DSSPY_TRACE_SPAN_UNDER("capture.seq_refill", trace_ctx_);
        chan.seq_base =
            seq_alloc_.fetch_add(kSeqBlockSize, std::memory_order_relaxed);
        if (obs::enabled())
            obs::MetricsRegistry::global().add(
                capture_metrics().seq_block_refills);
    }
    chan.stamp = support::now_ns();
}

void ProfilingSession::refill(Channel& chan, std::uint64_t k) {
    std::vector<CaptureChunk>& chunks = chan.chain.chunks;
    if (chan.write_pos == chan.chunk_end) {
        // Chunk sizing follows next_capture_chunk's schedule: 6,788 rows
        // (160 KiB) first, doubling to 54,311 rows (1.25 MiB) on malloc,
        // then 4 MiB huge-page chunks of 173,800 rows.
        chunks.push_back(next_capture_chunk(
            chunks.empty() ? 0 : chunks.back().capacity, k));
        chan.write_pos = chunks.back().rows;
        chan.chunk_end = chan.write_pos + chunks.back().capacity;
        // A block or stride already under way repeats its base and
        // reading in the new chunk's first slots.
        chunks.back().seq_base(k) = chan.seq_base;
        chunks.back().stamp(k) = chan.stamp;
    }
    const std::uint64_t phase = k % kTimestampStride;
    if (phase == 0) {
        tick(chan, k);
        chunks.back().seq_base(k) = chan.seq_base;
        chunks.back().stamp(k) = chan.stamp;
    }
    const auto to_stride =
        static_cast<std::ptrdiff_t>(kTimestampStride - phase);
    chan.write_limit =
        chan.write_pos + std::min(to_stride, chan.chunk_end - chan.write_pos);
}

void ProfilingSession::collector_loop(const std::stop_token& st) {
    std::array<AccessEvent, 1024> batch;
    unsigned idle_rounds = 0;
    while (!st.stop_requested()) {
        bool any = false;
        // Re-read each round: the collector starts in the constructor,
        // before any set_event_sink() call can have happened.
        if (has_sink_.load(std::memory_order_acquire)) {
            any = collect_ordered_round();
        } else {
            for (Channel* chan =
                     channels_head_.load(std::memory_order_acquire);
                 chan != nullptr; chan = chan->next) {
                const std::size_t n = chan->ring->pop_into(batch);
                if (n > 0) {
                    if (analysis_ == AnalysisMode::Postmortem)
                        store_.append(std::span(batch.data(), n));
                    if (obs::enabled())
                        obs::MetricsRegistry::global().observe(
                            capture_metrics().drain_batch, n);
                    any = true;
                }
            }
        }
        if (any) {
            idle_rounds = 0;
            continue;
        }
        // Idle: back off exponentially instead of burning a core.  Start
        // with yields (cheap wakeup while producers are merely between
        // events), end in a bounded timed sleep.
        ++idle_rounds;
        if (obs::enabled())
            obs::MetricsRegistry::global().add(
                idle_rounds <= kCollectorYieldRounds
                    ? capture_metrics().collector_yields
                    : capture_metrics().collector_sleeps);
        if (idle_rounds <= kCollectorYieldRounds) {
            std::this_thread::yield();
        } else {
            const unsigned exp = idle_rounds - kCollectorYieldRounds;
            const unsigned log2 =
                exp < kCollectorMaxSleepLog2 ? exp : kCollectorMaxSleepLog2;
            std::this_thread::sleep_for(std::chrono::microseconds(1u << log2));
        }
    }
    // Final drain only: spanning every collector round would flood the
    // trace with millions of idle-loop spans; the steady-state drains are
    // already covered by the drain_batch histogram.
    DSSPY_TRACE_SPAN_UNDER("capture.drain", trace_ctx_);
    drain_all_rings();
    if (has_sink_.load(std::memory_order_acquire)) {
        // All producers have quiesced: no bound can rise any more, so
        // everything still pending is deliverable.
        deliver_ordered(/*final_flush=*/true);
    }
}

/// One ordered-collection round: per channel, read its published sequence
/// bound and THEN drain the ring into the channel's pending buffer — that
/// order guarantees that every event below the bound is in the buffer (the
/// bound is release-stored after the push it covers).  Then deliver every
/// pending event below the cross-channel watermark.
bool ProfilingSession::collect_ordered_round() {
    std::array<AccessEvent, 1024> batch;
    bool any = false;
    for (Channel* chan = channels_head_.load(std::memory_order_acquire);
         chan != nullptr; chan = chan->next) {
        chan->bound = chan->published.load(std::memory_order_acquire);
        std::size_t n;
        unsigned rounds = 0;
        while ((n = chan->ring->pop_into(batch)) > 0) {
            if (analysis_ == AnalysisMode::Postmortem)
                store_.append(std::span(batch.data(), n));
            chan->pending.insert(chan->pending.end(), batch.data(),
                                 batch.data() + n);
            any = true;
            if (obs::enabled())
                obs::MetricsRegistry::global().observe(
                    capture_metrics().drain_batch, n);
            // A fast producer could refill indefinitely; cap the drain and
            // revisit next round.  Stopping early is safe: with events left
            // in the ring, the channel's pending front (older than anything
            // in the ring) bounds the watermark instead of `bound`.
            if (++rounds == 16) break;
        }
        if (obs::enabled() && chan->pending.size() > chan->pending_head)
            obs::MetricsRegistry::global().gauge_max(
                capture_metrics().pending_hwm,
                chan->pending.size() - chan->pending_head);
    }
    deliver_ordered(/*final_flush=*/false);
    return any;
}

/// Deliver pending events to the sink in ascending global seq order, up to
/// the watermark (the minimum over every channel's next undelivered seq or,
/// for fully-drained channels, its published bound).  With `final_flush`
/// the bounds are ignored: no further events can appear.
void ProfilingSession::deliver_ordered(bool final_flush) {
    for (;;) {
        Channel* best = nullptr;
        std::uint64_t best_seq = 0;
        // Smallest cursor among the *other* channels = how far `best` may
        // be delivered without risking a seq inversion.
        std::uint64_t limit = std::numeric_limits<std::uint64_t>::max();
        for (Channel* chan = channels_head_.load(std::memory_order_acquire);
             chan != nullptr; chan = chan->next) {
            const bool has_pending = chan->pending_head < chan->pending.size();
            if (!has_pending && final_flush) continue;
            const std::uint64_t cursor =
                has_pending ? chan->pending[chan->pending_head].seq
                            : chan->bound;
            if (has_pending && (best == nullptr || cursor < best_seq)) {
                if (best != nullptr) limit = std::min(limit, best_seq);
                best = chan;
                best_seq = cursor;
            } else {
                limit = std::min(limit, cursor);
            }
        }
        if (best == nullptr) return;
        const std::vector<AccessEvent>& pend = best->pending;
        std::size_t end = best->pending_head;
        while (end < pend.size() && pend[end].seq < limit) ++end;
        if (end == best->pending_head) return;  // watermark blocks progress
        sink_(std::span(pend.data() + best->pending_head,
                        end - best->pending_head));
        best->pending_head = end;
        if (best->pending_head == best->pending.size()) {
            best->pending.clear();
            best->pending_head = 0;
        } else if (best->pending_head >= 4096 &&
                   best->pending_head * 2 >= best->pending.size()) {
            best->pending.erase(best->pending.begin(),
                                best->pending.begin() +
                                    static_cast<std::ptrdiff_t>(
                                        best->pending_head));
            best->pending_head = 0;
        }
    }
}

void ProfilingSession::drain_all_rings() {
    std::array<AccessEvent, 1024> batch;
    const bool ordered = has_sink_.load(std::memory_order_acquire);
    for (Channel* chan = channels_head_.load(std::memory_order_acquire);
         chan != nullptr; chan = chan->next) {
        if (!chan->ring) continue;
        std::size_t n;
        while ((n = chan->ring->pop_into(batch)) > 0) {
            if (analysis_ == AnalysisMode::Postmortem)
                store_.append(std::span(batch.data(), n));
            if (ordered)
                chan->pending.insert(chan->pending.end(), batch.data(),
                                     batch.data() + n);
        }
    }
}

/// Buffered-mode ordered delivery: k-way merge of the sealed per-thread
/// chunk chains by seq, batched to the sink.  Runs on the stop() caller.
/// With `release`, each chunk is freed as soon as the merge has left it.
void ProfilingSession::buffered_merge_to_sink(bool release) {
    struct Cursor {
        CaptureChain* chain;
        std::size_t chunk = 0;
        std::size_t offset = 0;
    };
    std::vector<Cursor> cursors;
    for (Channel* chan = channels_head_.load(std::memory_order_acquire);
         chan != nullptr; chan = chan->next)
        if (!chan->chain.chunks.empty() && chan->chain.chunks.front().size > 0)
            cursors.push_back(Cursor{&chan->chain});
    const auto front_seq = [](const Cursor& c) {
        return c.chain->chunks[c.chunk].seq(c.offset);
    };
    // Steps past one event; false once the chain is exhausted.
    const auto advance = [release](Cursor& c) {
        std::vector<CaptureChunk>& chunks = c.chain->chunks;
        if (++c.offset < chunks[c.chunk].size) return true;
        if (release) chunks[c.chunk].storage.reset();
        c.offset = 0;
        return ++c.chunk < chunks.size() && chunks[c.chunk].size > 0;
    };
    std::vector<AccessEvent> batch;
    batch.reserve(1024);
    while (!cursors.empty()) {
        // Pick the channel holding the globally smallest seq and stream it
        // until the runner-up channel's seq takes over.
        std::size_t bi = 0;
        std::uint64_t second = std::numeric_limits<std::uint64_t>::max();
        for (std::size_t i = 1; i < cursors.size(); ++i) {
            const std::uint64_t seq = front_seq(cursors[i]);
            if (seq < front_seq(cursors[bi])) {
                second = std::min(second, front_seq(cursors[bi]));
                bi = i;
            } else {
                second = std::min(second, seq);
            }
        }
        Cursor& c = cursors[bi];
        bool more = true;
        while (more && front_seq(c) < second) {
            batch.push_back(c.chain->chunks[c.chunk].event(
                c.offset, c.chain->thread));
            more = advance(c);
            if (batch.size() == batch.capacity()) {
                sink_(std::span<const AccessEvent>(batch));
                batch.clear();
            }
        }
        if (!more) {
            cursors[bi] = cursors.back();
            cursors.pop_back();
        }
    }
    if (!batch.empty()) sink_(std::span<const AccessEvent>(batch));
}

void ProfilingSession::stop() {
    bool expected = true;
    if (!capturing_.compare_exchange_strong(expected, false,
                                            std::memory_order_acq_rel))
        return;  // already stopped
    stop_ns_ = support::now_ns();
    DSSPY_TRACE_SPAN("capture.stop");

    if (mode_ == CaptureMode::Streaming) {
        if (collector_.joinable()) {
            collector_.request_stop();
            collector_.join();  // collector drains remaining events on exit
        }
        for (Channel* chan = channels_head_.load(std::memory_order_acquire);
             chan != nullptr; chan = chan->next)
            chan->sealed.store(true, std::memory_order_release);
    } else {
        for (Channel* chan = channels_head_.load(std::memory_order_acquire);
             chan != nullptr; chan = chan->next) {
            chan->sealed.store(true, std::memory_order_release);
            // The acquire pairs with the release in record(): exactly the
            // events whose writes are fully published are handed on.
            seal_chain(chan->chain.chunks,
                       chan->events.load(std::memory_order_acquire));
        }
        const bool retain = analysis_ == AnalysisMode::Postmortem;
        if (has_sink_.load(std::memory_order_acquire))
            buffered_merge_to_sink(/*release=*/!retain);
        // Each chain goes to the store as it is, or is dropped: no channel
        // keeps its chunks past stop().
        for (Channel* chan = channels_head_.load(std::memory_order_acquire);
             chan != nullptr; chan = chan->next) {
            if (retain) store_.adopt(std::move(chan->chain));
            chan->chain = CaptureChain();
        }
    }
    // Page faults are sampled only when telemetry was on from the start.
    const bool sample_faults = obs::enabled() && start_faults_.has_value();
    const std::uint64_t capture_end_faults =
        sample_faults ? minor_faults() : 0;
    {
        DSSPY_TRACE_SPAN("capture.finalize");
        store_.finalize(events_recorded() >= kParallelFinalizeThreshold
                            ? &par::ThreadPool::default_pool()
                            : nullptr);
    }

    if (obs::enabled()) {
        auto& reg = obs::MetricsRegistry::global();
        const CaptureMetricIds& m = capture_metrics();
        if (sample_faults) {
            reg.add(m.capture_faults, capture_end_faults - *start_faults_);
            reg.add(m.finalize_faults, minor_faults() - capture_end_faults);
        }
        const std::uint64_t events = events_recorded();
        reg.add(m.events_recorded, events);
        const std::uint64_t wall = stop_ns_ - start_ns_;
        reg.gauge_max(m.capture_wall_ns, wall);
        if (wall > 0) {
            // events/sec = events / (wall / 1e9), computed in integer space.
            const std::uint64_t rate =
                static_cast<std::uint64_t>(static_cast<double>(events) *
                                           1e9 / static_cast<double>(wall));
            reg.gauge_max(m.events_per_sec, rate);
        }
        const std::size_t orphans = store_.orphan_events(registry_.size());
        if (orphans > 0) reg.add(m.orphan_events, orphans);
    }
}

std::size_t ProfilingSession::orphan_events() const {
    return store_.orphan_events(registry_.size());
}

std::size_t ProfilingSession::thread_count() const noexcept {
    return next_tid_.load(std::memory_order_acquire);
}

std::uint64_t ProfilingSession::events_recorded() const noexcept {
    std::uint64_t total = 0;
    for (const Channel* chan =
             channels_head_.load(std::memory_order_acquire);
         chan != nullptr; chan = chan->next)
        total += chan->events.load(std::memory_order_acquire);
    return total;
}

std::uint64_t ProfilingSession::capture_duration_ns() const noexcept {
    const std::uint64_t end =
        capturing_.load(std::memory_order_acquire) ? support::now_ns() : stop_ns_;
    return end - start_ns_;
}

}  // namespace dsspy::runtime
