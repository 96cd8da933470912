#include "core/incremental.hpp"

#include <algorithm>
#include <utility>

#include "core/detector_kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/session.hpp"

namespace dsspy::core {

namespace {

/// Self-telemetry ids for the streaming engine (lazy-registered; call
/// sites guard on obs::enabled()).
struct IncrementalMetricIds {
    obs::MetricId events_folded;
    obs::MetricId fold_batch;  ///< Histogram of batch sizes.
    obs::MetricId bulk_events;     ///< Folded through the columnar path.
    obs::MetricId stepped_events;  ///< Folded one event at a time.
};

const IncrementalMetricIds& incremental_metrics() {
    static const IncrementalMetricIds ids = [] {
        auto& reg = obs::MetricsRegistry::global();
        return IncrementalMetricIds{
            reg.counter("incremental.events_folded"),
            reg.histogram("incremental.fold_batch_events"),
            reg.counter("incremental.bulk_events"),
            reg.counter("incremental.stepped_events"),
        };
    }();
    return ids;
}

/// Count one folded batch of `events`, `bulk` of them folded in bulk.
void note_batch(std::size_t events, std::size_t bulk) {
    if (!obs::enabled() || events == 0) return;
    auto& reg = obs::MetricsRegistry::global();
    const IncrementalMetricIds& m = incremental_metrics();
    reg.add(m.events_folded, events);
    reg.observe(m.fold_batch, events);
    reg.add(m.bulk_events, bulk);
    reg.add(m.stepped_events, events - bulk);
}

// The run loop reads either batch source through these.
runtime::InstanceId instance_at(const runtime::EventBatch& b,
                                std::size_t i) {
    return b.instances[i];
}
runtime::InstanceId instance_at(std::span<const runtime::AccessEvent> e,
                                std::size_t i) {
    return e[i].instance;
}
runtime::AccessEvent event_at(const runtime::EventBatch& b, std::size_t i) {
    return b.event(i);
}
const runtime::AccessEvent& event_at(std::span<const runtime::AccessEvent> e,
                                     std::size_t i) {
    return e[i];
}
std::size_t rows_in(const runtime::EventBatch& b) { return b.n; }
std::size_t rows_in(std::span<const runtime::AccessEvent> e) {
    return e.size();
}

}  // namespace

InstanceFold& IncrementalAnalyzer::state_for(runtime::InstanceId id) {
    while (states_.size() <= id) states_.emplace_back(config_);
    return states_[id];
}

void IncrementalAnalyzer::declare_instance(
    const runtime::InstanceInfo& info) {
    const std::lock_guard<std::mutex> lock(mutex_);
    state_for(info.id).patterns.set_kind(info.kind);
}

void IncrementalAnalyzer::fold(const runtime::AccessEvent& ev) {
    if (obs::enabled()) {
        auto& reg = obs::MetricsRegistry::global();
        const IncrementalMetricIds& m = incremental_metrics();
        reg.add(m.events_folded);
        reg.add(m.stepped_events);
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    fold_locked(ev);
}

void IncrementalAnalyzer::fold(const runtime::EventBatch& batch) {
    std::size_t bulk = 0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        bulk = fold_runs(batch);
    }
    note_batch(batch.n, bulk);
}

void IncrementalAnalyzer::fold(
    std::span<const runtime::AccessEvent> events) {
    std::size_t bulk = 0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        bulk = fold_runs(events);
    }
    note_batch(events.size(), bulk);
}

std::uint64_t IncrementalAnalyzer::events_folded() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return events_folded_;
}

void IncrementalAnalyzer::fold_locked(const runtime::AccessEvent& ev) {
    ++events_folded_;
    state_for(ev.instance).step(ev);
}

template <class Source>
std::size_t IncrementalAnalyzer::fold_runs(const Source& source) {
    const std::size_t count = rows_in(source);
    events_folded_ += count;
    std::size_t bulk = 0;
    for (std::size_t i = 0; i < count;) {
        // A run ends where the instance changes or kBatchRows rows in.
        const runtime::InstanceId id = instance_at(source, i);
        const std::size_t limit = std::min(count, i + kBatchRows);
        std::size_t end = i + 1;
        while (end < limit && instance_at(source, end) == id) ++end;
        InstanceFold& st = state_for(id);
        if (end - i < kMinBulkRun) {
            for (; i < end; ++i) st.step(event_at(source, i));
            continue;
        }
        st.fold(run_slice(source, i, end - i), phases_);
        bulk += end - i;
        i = end;
    }
    return bulk;
}

void IncrementalAnalyzer::allocate_scratch() {
    time_ns_ = std::make_unique_for_overwrite<std::uint64_t[]>(kBatchRows);
    positions_ = std::make_unique_for_overwrite<std::int64_t[]>(kBatchRows);
    sizes_ = std::make_unique_for_overwrite<std::uint32_t[]>(kBatchRows);
    ops_ = std::make_unique_for_overwrite<std::uint8_t[]>(kBatchRows);
    types_ = std::make_unique_for_overwrite<std::uint8_t[]>(kBatchRows);
    threads_ = std::make_unique_for_overwrite<std::uint16_t[]>(kBatchRows);
}

ColumnSlice IncrementalAnalyzer::run_slice(const runtime::EventBatch& b,
                                           std::size_t i, std::size_t n) {
    // The run is a view into the batch; only its access types and the
    // batch's one thread id need columns of their own.
    if (!types_) allocate_scratch();
    std::fill_n(threads_.get(), n, b.thread);
    kernels::derive_types(b.ops + i, n, types_.get());
    return {b.time_ns + i, b.positions + i, b.sizes + i, b.ops + i,
            types_.get(),  threads_.get(),  n};
}

ColumnSlice IncrementalAnalyzer::run_slice(
    std::span<const runtime::AccessEvent> events, std::size_t i,
    std::size_t n) {
    // Copied into the batch layout, with the thread of every row (a run of
    // struct events may come from several threads).
    if (!types_) allocate_scratch();
    for (std::size_t r = 0; r < n; ++r) {
        const runtime::AccessEvent& ev = events[i + r];
        time_ns_[r] = ev.time_ns;
        positions_[r] = ev.position;
        sizes_[r] = ev.size;
        ops_[r] = static_cast<std::uint8_t>(ev.op);
        threads_[r] = ev.thread;
    }
    kernels::derive_types(ops_.get(), n, types_.get());
    return {time_ns_.get(), positions_.get(), sizes_.get(),
            ops_.get(),     types_.get(),     threads_.get(), n};
}

AnalysisResult IncrementalAnalyzer::report_from(
    std::vector<InstanceFold> states,
    const std::vector<runtime::InstanceInfo>& instances) const {
    // Flush open runs as if the stream ended here.
    std::size_t total_events = 0;
    for (InstanceFold& st : states) {
        st.patterns.finish();
        total_events += st.aggregates.events();
    }
    std::vector<InstanceAnalysis> analyses(instances.size());
    for (std::size_t i = 0; i < instances.size(); ++i) {
        const runtime::InstanceInfo& info = instances[i];
        InstanceAnalysis& ia = analyses[i];
        // An instance that folded nothing has all-zero stats.
        if (info.id < states.size()) {
            ia.stats = states[info.id].to_stats(info);
        } else {
            ia.stats.info = info;
        }
        ia.use_cases = engine_.classify(ia.stats);
    }
    return AnalysisResult(std::move(analyses), total_events);
}

AnalysisResult IncrementalAnalyzer::snapshot(
    const std::vector<runtime::InstanceInfo>& instances) const {
    DSSPY_TRACE_SPAN("incremental.snapshot");
    std::vector<InstanceFold> copy;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        copy = states_;
    }
    return report_from(std::move(copy), instances);
}

AnalysisResult IncrementalAnalyzer::finish(
    const std::vector<runtime::InstanceInfo>& instances) {
    DSSPY_TRACE_SPAN("incremental.finish");
    const std::lock_guard<std::mutex> lock(mutex_);
    return report_from(std::move(states_), instances);
}

void attach_incremental(runtime::ProfilingSession& session,
                        IncrementalAnalyzer& analyzer) {
    for (const runtime::InstanceInfo& info : session.registry().snapshot())
        analyzer.declare_instance(info);
    session.set_instance_sink([&analyzer](const runtime::InstanceInfo& info) {
        analyzer.declare_instance(info);
    });
    session.set_event_sink([&analyzer](const runtime::EventBatch& batch) {
        analyzer.fold(batch);
    });
}

}  // namespace dsspy::core
