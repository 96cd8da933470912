#include "core/dsspy.hpp"

#include <algorithm>
#include <utility>

#include "core/column_analysis.hpp"
#include "core/detector_kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "support/stopwatch.hpp"

namespace dsspy::core {

AnalysisResult Dsspy::analyze(const runtime::ProfilingSession& session,
                              par::ThreadPool* pool) const {
    return analyze(session.registry().snapshot(), session.store(), pool);
}

AnalysisResult Dsspy::analyze(
    const std::vector<runtime::InstanceInfo>& instances,
    const runtime::ProfileStore& store, par::ThreadPool* pool) const {
    return analyze_columns_impl(instances, store.columns(pool), &store, pool);
}

AnalysisResult Dsspy::analyze(
    const std::vector<runtime::InstanceInfo>& instances,
    const runtime::ColumnStore& columns, par::ThreadPool* pool) const {
    return analyze_columns_impl(instances, columns, nullptr, pool);
}

AnalysisResult Dsspy::analyze_columns_impl(
    const std::vector<runtime::InstanceInfo>& instances,
    const runtime::ColumnStore& columns,
    const runtime::ProfileStore* store, par::ThreadPool* pool) const {
    DSSPY_TRACE_SPAN("analyze.total");
    AnalysisResult result;
    result.reset(instances, columns.total_events());

    // Derived access types for the whole store, computed once and shared
    // read-only by every shard (one pshufb pass instead of a per-event
    // switch in every kernel downstream).
    std::vector<std::uint8_t> types(columns.total_events());
    kernels::derive_types(columns.op(), columns.total_events(), types.data());

    // Each instance is independent (stateless detector/engine, read-only
    // store) and writes only its pre-sized slot, so the parallel loop is
    // deterministic: same instances, same order, same bits.
    // Per-instance latency histogram, registered once (call sites guard on
    // obs::enabled(); threads observe into their own shards, so the
    // parallel loop stays contention-free).
    static const obs::MetricId instance_ns_metric =
        obs::MetricsRegistry::global().histogram("analyze.instance_ns");
    auto analyze_range = [&](std::size_t lo, std::size_t hi) {
        const bool telemetry = obs::enabled();
        for (std::size_t i = lo; i < hi; ++i) {
            const std::uint64_t begin_ns =
                telemetry ? support::now_ns() : 0;
            const runtime::InstanceInfo& info = instances[i];
            InstanceAnalysis& ia = result.instances_[i];
            const ColumnSlice slice =
                make_slice(columns, columns.range(info.id), types.data());
            ProfileAggregates agg = aggregates_from_columns(slice);
            ia.patterns = detect_patterns_columns(slice, config_);
            ia.stats = instance_stats_from_columns(info, slice, agg,
                                                   ia.patterns, config_);
            ia.profile = RuntimeProfile(info, store, std::move(agg));
            ia.use_cases = engine_.classify(ia.stats);
            if (telemetry)
                obs::MetricsRegistry::global().observe(
                    instance_ns_metric, support::now_ns() - begin_ns);
        }
    };
    if (pool != nullptr && instances.size() > 1) {
        // Shard by event count, not instance count: per-instance analysis
        // cost is proportional to the instance's rows, and real profiles
        // are skewed (a handful of hot containers own most events).
        // Contiguous instance blocks with roughly equal event totals keep
        // every worker busy; block boundaries come from the prefix event
        // counts, so the partition is deterministic.
        const std::size_t count = instances.size();
        std::vector<std::size_t> prefix(count + 1, 0);
        for (std::size_t i = 0; i < count; ++i)
            prefix[i + 1] = prefix[i] + columns.range(instances[i].id).size();
        const std::size_t shard_target = std::min<std::size_t>(
            count, static_cast<std::size_t>(pool->thread_count()) * 4);
        std::vector<std::size_t> bounds;
        bounds.reserve(shard_target + 1);
        bounds.push_back(0);
        for (std::size_t s = 1; s < shard_target; ++s) {
            const std::size_t goal = prefix[count] / shard_target * s;
            const auto it =
                std::upper_bound(prefix.begin(), prefix.end(), goal);
            const auto idx = static_cast<std::size_t>(
                std::distance(prefix.begin(), it)) - 1;
            bounds.push_back(std::clamp(idx, bounds.back(), count));
        }
        bounds.push_back(count);
        // Shard spans parent under analyze.total explicitly: pool threads
        // have no TLS context of their own.
        const obs::TraceContext analyze_ctx = obs::current_trace_context();
        par::parallel_for_chunks(
            *pool, 0, bounds.size() - 1,
            [&](std::size_t lo, std::size_t hi) {
                DSSPY_TRACE_SPAN_UNDER("analyze.shard", analyze_ctx);
                for (std::size_t s = lo; s < hi; ++s)
                    analyze_range(bounds[s], bounds[s + 1]);
            });
    } else {
        analyze_range(0, instances.size());
    }
    return result;
}

AnalysisResult Dsspy::analyze_reference(
    const std::vector<runtime::InstanceInfo>& instances,
    const runtime::ProfileStore& store, par::ThreadPool* pool) const {
    DSSPY_TRACE_SPAN("analyze.total");
    AnalysisResult result;
    result.reset(instances, store.total_events());
    static const obs::MetricId instance_ns_metric =
        obs::MetricsRegistry::global().histogram("analyze.instance_ns");
    auto analyze_range = [&](std::size_t lo, std::size_t hi) {
        const bool telemetry = obs::enabled();
        for (std::size_t i = lo; i < hi; ++i) {
            const std::uint64_t begin_ns =
                telemetry ? support::now_ns() : 0;
            const runtime::InstanceInfo& info = instances[i];
            InstanceAnalysis& ia = result.instances_[i];
            ia.profile = RuntimeProfile(info, store.events(info.id));
            ia.patterns = detector_.detect(ia.profile);
            ia.stats =
                compute_instance_stats(ia.profile, ia.patterns, config_);
            ia.use_cases = engine_.classify(ia.stats);
            if (telemetry)
                obs::MetricsRegistry::global().observe(
                    instance_ns_metric, support::now_ns() - begin_ns);
        }
    };
    if (pool != nullptr && instances.size() > 1) {
        const obs::TraceContext analyze_ctx = obs::current_trace_context();
        par::parallel_for_chunks(
            *pool, 0, instances.size(),
            [&](std::size_t lo, std::size_t hi) {
                DSSPY_TRACE_SPAN_UNDER("analyze.shard", analyze_ctx);
                analyze_range(lo, hi);
            });
    } else {
        analyze_range(0, instances.size());
    }
    return result;
}

}  // namespace dsspy::core
