#include "obs/metrics.hpp"

#include <algorithm>

#include "obs/thread_slots.hpp"

namespace dsspy::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

std::uint64_t next_registry_token() noexcept {
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Thread-local cache resolving (registry token) -> shard without locking
/// on the hot path (obs/thread_slots.hpp).
thread_local detail::ThreadSlots t_shard_slots{};

}  // namespace

MetricsRegistry::MetricsRegistry() : token_(next_registry_token()) {}

MetricsRegistry::~MetricsRegistry() {
    Shard* shard = shards_head_.load(std::memory_order_acquire);
    while (shard != nullptr) {
        Shard* next = shard->next;
        delete shard;
        shard = next;
    }
}

MetricsRegistry& MetricsRegistry::global() {
    static MetricsRegistry registry;
    return registry;
}

void MetricsRegistry::set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
    if (this == &global())
        detail::g_enabled.store(on, std::memory_order_relaxed);
}

MetricsRegistry::Shard& MetricsRegistry::shard_for_current_thread() noexcept {
    return detail::thread_entry(t_shard_slots, token_, shards_head_,
                                [] { return new Shard(); });
}

MetricId MetricsRegistry::register_metric(std::string_view name,
                                          MetricKind kind,
                                          std::uint32_t cells) {
    const std::lock_guard<std::mutex> lock(reg_mutex_);
    for (const Desc& desc : descs_) {
        if (desc.name == name)
            return desc.kind == kind ? desc.offset : kInvalidMetric;
    }
    if (cells_used_ + cells > kShardCells) {
        dropped_registrations_.fetch_add(1, std::memory_order_relaxed);
        return kInvalidMetric;
    }
    const MetricId offset = cells_used_;
    cells_used_ += cells;
    descs_.push_back(Desc{std::string(name), kind, offset});
    return offset;
}

MetricId MetricsRegistry::counter(std::string_view name) {
    return register_metric(name, MetricKind::Counter, 1);
}

MetricId MetricsRegistry::gauge(std::string_view name) {
    return register_metric(name, MetricKind::Gauge, 1);
}

MetricId MetricsRegistry::histogram(std::string_view name) {
    return register_metric(name, MetricKind::Histogram, kHistogramCells);
}

void MetricsRegistry::add(MetricId id, std::uint64_t delta) noexcept {
    if (id >= kShardCells) return;
    // Single writer per cell (the owning thread): a relaxed load+store is
    // enough and avoids the lock prefix of fetch_add.
    std::atomic<std::uint64_t>& cell = shard_for_current_thread().cells[id];
    cell.store(cell.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
}

void MetricsRegistry::gauge_set(MetricId id, std::uint64_t value) noexcept {
    if (id >= kShardCells) return;
    shard_for_current_thread().cells[id].store(value,
                                               std::memory_order_relaxed);
}

void MetricsRegistry::gauge_max(MetricId id, std::uint64_t value) noexcept {
    if (id >= kShardCells) return;
    std::atomic<std::uint64_t>& cell = shard_for_current_thread().cells[id];
    if (cell.load(std::memory_order_relaxed) < value)
        cell.store(value, std::memory_order_relaxed);
}

void MetricsRegistry::observe(MetricId id, std::uint64_t value) noexcept {
    // 64-bit sum: id + kHistogramCells must not wrap for kInvalidMetric.
    if (std::uint64_t{id} + kHistogramCells > kShardCells) return;
    Shard& shard = shard_for_current_thread();
    const auto bump = [&shard](std::size_t cell, std::uint64_t delta) {
        std::atomic<std::uint64_t>& c = shard.cells[cell];
        c.store(c.load(std::memory_order_relaxed) + delta,
                std::memory_order_relaxed);
    };
    bump(id, 1);
    bump(id + 1, value);
    bump(id + 2 + bucket_index(value), 1);
}

std::vector<MetricValue> MetricsRegistry::collect() const {
    std::vector<Desc> descs;
    {
        const std::lock_guard<std::mutex> lock(reg_mutex_);
        descs = descs_;
    }
    std::vector<MetricValue> out;
    out.reserve(descs.size());
    for (const Desc& desc : descs) {
        MetricValue mv;
        mv.name = desc.name;
        mv.kind = desc.kind;
        for (const Shard* shard = shards_head_.load(std::memory_order_acquire);
             shard != nullptr; shard = shard->next) {
            const auto cell = [shard](std::size_t i) {
                return shard->cells[i].load(std::memory_order_relaxed);
            };
            switch (desc.kind) {
                case MetricKind::Counter:
                    mv.value += cell(desc.offset);
                    break;
                case MetricKind::Gauge:
                    mv.value = std::max(mv.value, cell(desc.offset));
                    break;
                case MetricKind::Histogram:
                    mv.count += cell(desc.offset);
                    mv.sum += cell(desc.offset + 1);
                    for (std::size_t b = 0; b < kHistogramBuckets; ++b)
                        mv.buckets[b] += cell(desc.offset + 2 + b);
                    break;
            }
        }
        out.push_back(std::move(mv));
    }
    std::sort(out.begin(), out.end(),
              [](const MetricValue& a, const MetricValue& b) {
                  return a.name < b.name;
              });
    return out;
}

void MetricsRegistry::reset() noexcept {
    for (Shard* shard = shards_head_.load(std::memory_order_acquire);
         shard != nullptr; shard = shard->next) {
        for (std::atomic<std::uint64_t>& cell : shard->cells)
            cell.store(0, std::memory_order_relaxed);
    }
}

std::size_t MetricsRegistry::shard_count() const noexcept {
    std::size_t n = 0;
    for (const Shard* shard = shards_head_.load(std::memory_order_acquire);
         shard != nullptr; shard = shard->next)
        ++n;
    return n;
}

}  // namespace dsspy::obs
