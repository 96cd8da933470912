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
    obs::MetricId fold_batch;  ///< Histogram of fold(span) batch sizes.
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

void IncrementalAnalyzer::fold(
    std::span<const runtime::AccessEvent> events) {
    std::size_t bulk = 0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        std::size_t i = 0;
        while (i < events.size()) {
            const runtime::InstanceId id = events[i].instance;
            std::size_t end = i + 1;
            while (end < events.size() && events[end].instance == id) ++end;
            if (end - i < kMinBulkRun) {
                for (; i < end; ++i) fold_locked(events[i]);
                continue;
            }
            fold_run(state_for(id), events.subspan(i, end - i));
            bulk += end - i;
            i = end;
        }
    }
    if (obs::enabled() && !events.empty()) {
        auto& reg = obs::MetricsRegistry::global();
        const IncrementalMetricIds& m = incremental_metrics();
        reg.add(m.events_folded, events.size());
        reg.observe(m.fold_batch, events.size());
        reg.add(m.bulk_events, bulk);
        reg.add(m.stepped_events, events.size() - bulk);
    }
}

std::uint64_t IncrementalAnalyzer::events_folded() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return events_folded_;
}

void IncrementalAnalyzer::fold_locked(const runtime::AccessEvent& ev) {
    ++events_folded_;
    state_for(ev.instance).step(ev);
}

void IncrementalAnalyzer::fold_run(
    InstanceFold& st, std::span<const runtime::AccessEvent> run) {
    events_folded_ += run.size();
    // Sized on the first bulk run: analyzers that only fold single events
    // never hold the ~100 KB of columns.
    if (tile_.ops.empty()) {
        tile_.time_ns.resize(kTileRows);
        tile_.positions.resize(kTileRows);
        tile_.sizes.resize(kTileRows);
        tile_.ops.resize(kTileRows);
        tile_.types.resize(kTileRows);
        tile_.threads.resize(kTileRows);
    }
    for (std::size_t begin = 0; begin < run.size(); begin += kTileRows)
        fold_tile(st, run.subspan(begin,
                                  std::min(kTileRows, run.size() - begin)));
}

// One tile of a same-instance run, transposed into the scratch columns
// and folded as one slice.
void IncrementalAnalyzer::fold_tile(
    InstanceFold& st, std::span<const runtime::AccessEvent> rows) {
    const std::size_t n = rows.size();
    Tile& t = tile_;
    for (std::size_t i = 0; i < n; ++i) {
        const runtime::AccessEvent& ev = rows[i];
        t.time_ns[i] = ev.time_ns;
        t.positions[i] = ev.position;
        t.sizes[i] = ev.size;
        t.ops[i] = static_cast<std::uint8_t>(ev.op);
        t.threads[i] = ev.thread;
    }
    kernels::derive_types(t.ops.data(), n, t.types.data());
    st.fold(ColumnSlice{t.time_ns.data(), t.positions.data(),
                        t.sizes.data(), t.ops.data(), t.types.data(),
                        t.threads.data(), n},
            t.phases);
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
    session.set_event_sink(
        [&analyzer](std::span<const runtime::AccessEvent> events) {
            analyzer.fold(events);
        });
}

}  // namespace dsspy::core
