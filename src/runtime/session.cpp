#include "runtime/session.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <limits>
#include <mutex>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define DSSPY_HAVE_RUSAGE 1
#endif

#include "obs/metrics.hpp"
#include "obs/thread_slots.hpp"
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
    obs::MetricId backpressure_waits;  ///< Waits at the drain bound.
    obs::MetricId events_recorded;     ///< Total events captured.
    obs::MetricId events_per_sec;      ///< Capture-window throughput.
    obs::MetricId capture_wall_ns;     ///< Capture-window duration.
    obs::MetricId orphan_events;       ///< Store-only instance events.
    obs::MetricId collector_yields;    ///< Idle drain rounds, then yield.
    obs::MetricId collector_sleeps;    ///< Idle drain rounds, then sleep.
    obs::MetricId drain_batch;         ///< Events acked per channel round.
    obs::MetricId pending_hwm;         ///< Peak acked, undelivered events.
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
/// store's placement and re-sorts go to the shared thread pool.  The
/// counts finalize sums arrive with the chunks, so only those two steps
/// read the events.
constexpr std::size_t kParallelFinalizeThreshold = 1u << 16;

/// The collector acknowledges at most this many events per channel per
/// round, so delivery starts early, and hands the sink at most this many
/// per call, so the batch it fills stays small.
constexpr std::uint64_t kDrainSlice = 4096;

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

/// Record how many of a sealed chain's slots hold events: every chunk is
/// full except the last, which holds the rest of `events`.
void seal_chain(std::vector<CaptureChunk>& chunks, std::uint64_t events) {
    for (CaptureChunk& chunk : chunks) {
        chunk.size = static_cast<std::size_t>(
            std::min<std::uint64_t>(events, chunk.capacity));
        events -= chunk.size;
    }
}

/// Copy the rows of thread event indices [k, end) of `view` into
/// `out` from row `at` on, each with the clock reading of its stride.
void copy_rows(const CaptureView& view, std::uint64_t k, std::uint64_t end,
               EventColumns& out, std::size_t at) noexcept {
    const CaptureRow* row = view.rows + (k - view.first);
    while (k < end) {
        const std::uint64_t stamp = view.stamp(k);
        const std::uint64_t stride_end = std::min(
            end, k - k % CaptureView::kStampStride + CaptureView::kStampStride);
        for (; k < stride_end; ++k, ++row, ++at) {
            out.instances[at] = row->instance;
            out.time_ns[at] = stamp;
            out.positions[at] = row->position;
            out.sizes[at] = row->size;
            out.ops[at] = static_cast<std::uint8_t>(row->op);
        }
    }
}

}  // namespace

ProfilingSession::Channel::Channel(ThreadId id, std::uint64_t owner_serial)
    : owner(owner_serial) {
    chain.thread = id;  // The first chunk is allocated on the first record.
}

ProfilingSession::ProfilingSession(CaptureMode /*mode*/,
                                   std::size_t drain_bound,
                                   AnalysisMode analysis)
    : drain_bound_(drain_bound),
      analysis_(analysis),
      token_(next_session_token()),
      trace_ctx_(obs::current_trace_context()),
      start_ns_(support::now_ns()) {
    if (obs::enabled()) start_faults_ = minor_faults();
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
    if (sink_ && !columns_)
        columns_ = std::make_unique<EventColumns>(kDrainSlice);
    has_sink_.store(static_cast<bool>(sink_), std::memory_order_release);
    if (sink_ && !collector_.joinable() && capturing())
        collector_ = std::jthread(
            [this](const std::stop_token& st) { collector_loop(st); });
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
    const std::uint64_t owner = obs::detail::this_thread_serial();
    Channel* chan = channels_head_.load(std::memory_order_acquire);
    while (chan != nullptr && chan->owner != owner) chan = chan->next;
    if (chan == nullptr) {
        // Register this thread with the session.  Push-front onto the
        // lock-free list — neither the collector nor other producers are
        // ever stalled by a registration.
        const auto tid = static_cast<ThreadId>(
            next_tid_.fetch_add(1, std::memory_order_relaxed));
        chan = new Channel(tid, owner);
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
    if (chan.write_pos == chan.write_limit) refill(chan, k);
    *chan.write_pos++ = CaptureRow{position, instance, size, op};
    chan.events.store(k + 1, std::memory_order_release);
}

void ProfilingSession::refill(Channel& chan, std::uint64_t k) {
    std::vector<CaptureChunk>& chunks = chan.chain.chunks;
    // Tally the stride just closed while its rows are still in L1.
    if (!chunks.empty()) {
        tally_rows(chunks.back(), chan.tally_pos, chan.write_pos);
        chan.tally_pos = chan.write_pos;
    }
    if (has_sink_.load(std::memory_order_relaxed)) {
        // Blocking backpressure: the mutator waits for the collector
        // rather than dropping events — profiles must be complete for the
        // pattern analysis to be meaningful.  The bound counts events not
        // yet acknowledged, never undelivered ones, so the wait cannot
        // hang on another channel's unfilled seq block.  Escalate from
        // yield to a short sleep in case the collector is in its idle
        // backoff.
        for (unsigned spins = 0;
             k - chan.drained.load(std::memory_order_relaxed) > drain_bound_;
             ++spins) {
            if (spins == 0 && obs::enabled())
                obs::MetricsRegistry::global().add(
                    capture_metrics().backpressure_waits);
            if (spins < 64) {
                std::this_thread::yield();
            } else {
                std::this_thread::sleep_for(std::chrono::microseconds(10));
            }
        }
    }
    if (chan.write_pos == chan.chunk_end) {
        // Chunk sizing follows next_capture_chunk's schedule: 6,788 rows
        // (160 KiB) first, doubling to 54,311 rows (1.25 MiB) on malloc,
        // then 4 MiB huge-page chunks of 173,800 rows.  An Incremental
        // session never hands its chain to the store, so every chunk stays
        // at the first size: the collector frees memory in 160 KiB steps
        // that the next chunks reuse.
        const bool grow =
            !chunks.empty() && analysis_ == AnalysisMode::Postmortem;
        CaptureChunk chunk =
            next_capture_chunk(grow ? chunks.back().capacity : 0, k);
        // A block or stride already under way repeats its base and
        // reading in the new chunk's first slots.
        chunk.seq_base(k) = chan.seq_base;
        chunk.stamp(k) = chan.stamp;
        // An Incremental session's chunks are freed as they drain and
        // never reach the store, so only Postmortem ones keep a tally.
        chunk.counted = analysis_ == AnalysisMode::Postmortem;
        chan.write_pos = chunk.rows;
        chan.tally_pos = chunk.rows;
        chan.chunk_end = chunk.rows + chunk.capacity;
        const std::scoped_lock lock(chan.chain_mutex);
        chunks.push_back(std::move(chunk));
    }
    const std::uint64_t phase = k % kTimestampStride;
    if (phase == 0) {
        const CaptureChunk& chunk = chunks.back();
        if (k % kSeqBlockSize == 0) {
            // Telemetry rides this branch (once per kSeqBlockSize events).
            // The span parents under the session creator's context so
            // refills show up inside the run's tree rather than as orphan
            // roots.
            DSSPY_TRACE_SPAN_UNDER("capture.seq_refill", trace_ctx_);
            chan.seq_base =
                seq_alloc_.fetch_add(kSeqBlockSize, std::memory_order_relaxed);
            chunk.seq_base(k) = chan.seq_base;
            if (obs::enabled())
                obs::MetricsRegistry::global().add(
                    capture_metrics().seq_block_refills);
        }
        chan.stamp = support::now_ns();
        chunk.stamp(k) = chan.stamp;
    }
    const auto to_stride =
        static_cast<std::ptrdiff_t>(kTimestampStride - phase);
    chan.write_limit =
        chan.write_pos + std::min(to_stride, chan.chunk_end - chan.write_pos);
}

void ProfilingSession::tally_rows(CaptureChunk& chunk, const CaptureRow* row,
                                  const CaptureRow* end) noexcept {
    if (!chunk.counted) return;
    std::vector<std::uint32_t>& tally = chunk.tally;
    while (row != end) {
        const InstanceId id = row->instance;
        const CaptureRow* run_end = row + 1;
        while (run_end != end && run_end->instance == id) ++run_end;
        if (id >= tally.size()) [[unlikely]] {
            bool grown = false;
            const std::size_t registered = registry_.size();
            if (id < registered) {
                try {
                    tally.resize(registered);
                    grown = true;
                } catch (const std::bad_alloc&) {
                }
            }
            if (!grown) {
                // An id the registry never issued (or no memory to
                // track it): ProfileStore::adopt counts this chunk.
                chunk.counted = false;
                chunk.tally = {};
                return;
            }
        }
        tally[id] += static_cast<std::uint32_t>(run_end - row);
        row = run_end;
    }
}

void ProfilingSession::collector_loop(const std::stop_token& st) {
    unsigned idle_rounds = 0;
    while (!st.stop_requested()) {
        if (collect_round()) {
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
    // already covered by the drain_batch histogram.  stop() has sealed
    // every channel, so no count can rise any more and every seq no
    // channel holds is a gap that stays open.
    DSSPY_TRACE_SPAN_UNDER("capture.drain", trace_ctx_);
    while (collect_round()) {}
    deliver(/*final_flush=*/true);
}

bool ProfilingSession::collect_round() {
    bool any = false;
    for (Channel* chan = channels_head_.load(std::memory_order_acquire);
         chan != nullptr; chan = chan->next) {
        // The acquire pairs with the release in record(): every row below
        // the count, and its side-table slots, are written.
        const std::uint64_t published =
            chan->events.load(std::memory_order_acquire);
        const std::uint64_t from =
            chan->drained.load(std::memory_order_relaxed);
        if (from == published) continue;
        const std::uint64_t to = std::min(published, from + kDrainSlice);
        chan->drained.store(to, std::memory_order_relaxed);
        if (obs::enabled()) {
            auto& reg = obs::MetricsRegistry::global();
            reg.observe(capture_metrics().drain_batch, to - from);
            reg.gauge_max(capture_metrics().pending_hwm, to - chan->delivered);
        }
        any = true;
    }
    deliver(/*final_flush=*/false);
    return any;
}

void ProfilingSession::deliver(bool final_flush) {
    constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();
    for (;;) {
        Channel* holder = nullptr;
        std::uint64_t lowest = kNone;
        for (Channel* chan = channels_head_.load(std::memory_order_acquire);
             chan != nullptr; chan = chan->next) {
            const std::uint64_t acked =
                chan->drained.load(std::memory_order_relaxed);
            if (chan->delivered == acked) continue;
            const std::uint64_t seq = row_seq(*chan, chan->delivered);
            if (seq == next_seq_) {
                holder = chan;
                break;
            }
            lowest = std::min(lowest, seq);
        }
        if (holder == nullptr) {
            // Live, the row carrying next_seq_ is not acknowledged yet.
            // Sealed, it never will be: no record fills the rest of its
            // block, so the lowest seq still held comes next.
            if (!final_flush || lowest == kNone) return;
            next_seq_ = lowest;
            continue;
        }
        // The holder's run ends at its block end, chunk end or acknowledged
        // count, and goes on into its next block when that continues the
        // seqs.
        const std::uint64_t acked =
            holder->drained.load(std::memory_order_relaxed);
        std::uint64_t& k = holder->delivered;
        const std::uint64_t first_seq = next_seq_;
        std::size_t n = 0;
        while (k < acked && n < kDrainSlice &&
               row_seq(*holder, k) == next_seq_) {
            const CaptureView& view = holder->reading;
            const std::uint64_t end = std::min(
                {acked, std::uint64_t{view.first + view.capacity},
                 k - k % kSeqBlockSize + kSeqBlockSize,
                 k + kDrainSlice - n});
            copy_rows(view, k, end, *columns_, n);
            n += end - k;
            next_seq_ += end - k;
            k = end;
        }
        sink_(columns_->batch(holder->chain.thread, first_seq, n));
    }
}

std::uint64_t ProfilingSession::row_seq(Channel& chan, std::uint64_t k) {
    CaptureView& view = chan.reading;
    if (k == view.first + view.capacity) {
        // Every row of this chunk is delivered: step to the next, freeing
        // this one when nothing else will read it.
        const std::scoped_lock lock(chan.chain_mutex);
        std::vector<CaptureChunk>& chunks = chan.chain.chunks;
        if (analysis_ == AnalysisMode::Incremental && chan.next_chunk > 0)
            chunks[chan.next_chunk - 1].storage.reset();
        view = chunks[chan.next_chunk++];
    }
    return view.seq(k - view.first);
}

void ProfilingSession::stop() {
    bool expected = true;
    if (!capturing_.compare_exchange_strong(expected, false,
                                            std::memory_order_acq_rel))
        return;  // already stopped
    stop_ns_ = support::now_ns();
    DSSPY_TRACE_SPAN("capture.stop");

    for (Channel* chan = channels_head_.load(std::memory_order_acquire);
         chan != nullptr; chan = chan->next)
        chan->sealed.store(true, std::memory_order_release);
    if (collector_.joinable()) {
        collector_.request_stop();
        collector_.join();  // the collector delivers the rest on exit
    }
    // Each chain goes to the store as it is, or is dropped: no channel
    // keeps its chunks past stop().
    const bool retain = analysis_ == AnalysisMode::Postmortem;
    for (Channel* chan = channels_head_.load(std::memory_order_acquire);
         chan != nullptr; chan = chan->next) {
        // The acquire pairs with the release in record(): exactly the
        // events whose writes are fully published are handed on.
        std::vector<CaptureChunk>& chunks = chan->chain.chunks;
        seal_chain(chunks, chan->events.load(std::memory_order_acquire));
        if (retain && !chunks.empty()) {
            // Tally the tail: the rows since the last refill, which has
            // tallied every earlier chunk whole.  Refill runs before the
            // row it makes room for is published, so the tail starts at
            // or before the last chunk's sealed end.
            CaptureChunk& last = chunks.back();
            tally_rows(last, chan->tally_pos, last.rows + last.size);
        }
        if (retain) store_.adopt(std::move(chan->chain));
        chan->chain = CaptureChain();
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
