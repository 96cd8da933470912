// Self-telemetry metrics registry (DESIGN.md §9).
//
// The profiler's own health — event throughput, collector backpressure,
// trace I/O volume, analysis stage latency — must be observable online,
// not just in offline benches: a profiler is only trusted at production
// scale when it can account for its own overhead and data loss live.
// This registry is the process-wide home for those numbers.
//
// Design constraints, in priority order:
//   * Zero-cost when disabled: every instrumentation site guards on
//     `obs::enabled()` (one relaxed atomic bool load); nothing else runs.
//   * No contention when enabled: metrics are sharded per thread.  Each
//     recording thread owns a fixed block of cells (one per counter/gauge,
//     kHistogramBuckets+2 per histogram) and updates them with relaxed
//     single-writer atomics — no locks, no fetch_add contention, no false
//     sharing with other threads' shards.  `collect()` aggregates across
//     shards on read (counters/histograms sum, gauges take the max).
//   * Deterministic on quiesced reads: once writer threads are quiesced,
//     aggregate totals are exact and independent of how work was sharded.
//
// A MetricId is the metric's cell offset within a shard, so the hot-path
// update is a single indexed relaxed store — no name lookup, no
// indirection.  Registration (cold, mutex-protected) interns by name and
// is idempotent: re-registering a name of the same kind returns the same
// id, so call sites may register lazily via function-local statics.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dsspy::obs {

using MetricId = std::uint32_t;

/// Returned when registration fails (cell budget exhausted or a name is
/// re-registered with a different kind); every operation on it is a no-op.
inline constexpr MetricId kInvalidMetric = ~MetricId{0};

/// Histogram bucket count (a histogram occupies kHistogramBuckets + 2 =
/// 34 cells per shard: count, sum, then the buckets).  Bucket 0 counts
/// values in [0, 2); bucket i>0 counts [2^i, 2^(i+1)); the last bucket,
/// [2^31, inf), absorbs everything above.  Nanosecond observations thus
/// resolve distinctly from 1 ns up to 2^31 ns ≈ 2.1 s; anything slower
/// lands in the final catch-all bucket.
inline constexpr std::size_t kHistogramBuckets = 32;

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

namespace detail {
/// Process-wide enable flag for the global registry; read via enabled().
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True when self-telemetry is on.  Instrumentation sites check this (one
/// relaxed load) before touching the registry — the entire telemetry layer
/// costs one predictable branch per site when disabled.
[[nodiscard]] inline bool enabled() noexcept {
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/// One aggregated metric as returned by MetricsRegistry::collect().
struct MetricValue {
    std::string name;
    MetricKind kind = MetricKind::Counter;
    std::uint64_t value = 0;  ///< Counter: sum over shards.  Gauge: max.
    std::uint64_t count = 0;  ///< Histogram: total observations.
    std::uint64_t sum = 0;    ///< Histogram: sum of observed values.
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
};

/// Process-wide metrics registry; see the file comment for the design.
///
/// Threading contract: registration, updates, collect(), and reset() are
/// all safe from any thread.  collect() while writers are running yields a
/// consistent-enough live snapshot (each cell is atomic; cross-cell skew
/// is possible); after writers quiesce it is exact.  Destroying a
/// registry while another thread still updates it is a use-after-free —
/// join instrumented threads first (only tests construct registries;
/// production code uses the immortal global()).
class MetricsRegistry {
public:
    MetricsRegistry();
    ~MetricsRegistry();

    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /// The process-wide registry every DSSPY_TRACE_SPAN and pipeline
    /// instrumentation site reports into.
    static MetricsRegistry& global();

    /// Register (or look up) a metric.  Cold path; thread-safe.
    MetricId counter(std::string_view name);
    MetricId gauge(std::string_view name);
    MetricId histogram(std::string_view name);

    /// Increment a counter.  Hot path: one relaxed load+store on the
    /// calling thread's shard.
    void add(MetricId id, std::uint64_t delta = 1) noexcept;

    /// Set a gauge on this thread's shard (aggregated as max on read).
    void gauge_set(MetricId id, std::uint64_t value) noexcept;

    /// Raise a gauge to `value` if larger (high-water mark).
    void gauge_max(MetricId id, std::uint64_t value) noexcept;

    /// Record one observation into a histogram.
    void observe(MetricId id, std::uint64_t value) noexcept;

    /// Toggle telemetry.  On the global registry this also flips the flag
    /// behind obs::enabled().
    void set_enabled(bool on) noexcept;
    [[nodiscard]] bool is_enabled() const noexcept {
        return enabled_.load(std::memory_order_relaxed);
    }

    /// Aggregate every registered metric across all shards, sorted by
    /// name (deterministic export order).
    [[nodiscard]] std::vector<MetricValue> collect() const;

    /// Zero every cell in every shard; registrations are kept.  Callers
    /// must quiesce writers first (tests, CLI reuse).
    void reset() noexcept;

    /// Number of per-thread shards allocated so far.
    [[nodiscard]] std::size_t shard_count() const noexcept;

    /// Registrations refused because the cell budget was exhausted.
    [[nodiscard]] std::uint64_t dropped_registrations() const noexcept {
        return dropped_registrations_.load(std::memory_order_relaxed);
    }

    /// Bucket index a value lands in: 0 for [0,2), else bit_width-1,
    /// clamped to the last bucket.
    [[nodiscard]] static std::size_t bucket_index(
        std::uint64_t value) noexcept {
        if (value < 2) return 0;
        const std::size_t idx = static_cast<std::size_t>(
            std::bit_width(value)) - 1;
        return idx < kHistogramBuckets ? idx : kHistogramBuckets - 1;
    }

    /// Inclusive upper bound of bucket i (2^(i+1) - 1); the last bucket is
    /// unbounded.
    [[nodiscard]] static std::uint64_t bucket_upper_bound(
        std::size_t bucket) noexcept {
        return (std::uint64_t{2} << bucket) - 1;
    }

private:
    /// Fixed per-shard cell budget: 4096 u64 cells = 32 KiB per recording
    /// thread, room for ~hundreds of scalars plus dozens of histograms.
    static constexpr std::size_t kShardCells = 4096;

    /// Histogram cell layout at offset o: [o]=count, [o+1]=sum,
    /// [o+2..o+2+kHistogramBuckets) = buckets.
    static constexpr std::uint32_t kHistogramCells =
        static_cast<std::uint32_t>(kHistogramBuckets) + 2;

    struct Shard {
        std::array<std::atomic<std::uint64_t>, kShardCells> cells{};
        std::uint64_t owner = 0;  ///< this_thread_serial of the writer.
        Shard* next = nullptr;    ///< Lock-free registration list link.
    };

    struct Desc {
        std::string name;
        MetricKind kind;
        MetricId offset;
    };

    Shard& shard_for_current_thread() noexcept;
    MetricId register_metric(std::string_view name, MetricKind kind,
                             std::uint32_t cells);

    const std::uint64_t token_;  ///< Unique id for thread-local caching.
    std::atomic<bool> enabled_{false};
    std::atomic<Shard*> shards_head_{nullptr};
    std::atomic<std::uint64_t> dropped_registrations_{0};

    mutable std::mutex reg_mutex_;  ///< Guards descs_ / cells_used_.
    std::vector<Desc> descs_;
    std::uint32_t cells_used_ = 0;
};

}  // namespace dsspy::obs
