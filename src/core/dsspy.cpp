#include "core/dsspy.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "core/column_analysis.hpp"
#include "core/detector_kernels.hpp"
#include "core/instance_fold.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "runtime/bulk_buffer.hpp"
#include "support/stopwatch.hpp"

namespace dsspy::core {

AnalysisResult Dsspy::analyze(const runtime::ProfilingSession& session,
                              par::ThreadPool* pool) const {
    return analyze(session.registry().snapshot(), session.store(), pool);
}

AnalysisResult Dsspy::analyze(
    const std::vector<runtime::InstanceInfo>& instances,
    const runtime::ProfileStore& store, par::ThreadPool* pool) const {
    return analyze(instances, store.columns(pool), pool);
}

AnalysisResult Dsspy::analyze(
    const std::vector<runtime::InstanceInfo>& instances,
    const runtime::ColumnStore& columns, par::ThreadPool* pool) const {
    DSSPY_TRACE_SPAN("analyze.total");

    // Derived access types for the whole store, computed once and shared
    // read-only by every shard (one pshufb pass instead of a per-event
    // switch in every kernel downstream).
    const runtime::BulkBuffer<std::uint8_t> types =
        runtime::make_bulk_buffer<std::uint8_t>(columns.total_events());
    kernels::derive_types(columns.op(), columns.total_events(), types.get());

    // Each instance's row range is folded in place by the two halves of
    // its InstanceFold — aggregates (phases, type histogram, end traffic)
    // and pattern detection — run as separate tasks 2i and 2i+1, so a
    // dominant instance's two scans run side by side on two workers.  The
    // halves write disjoint members; whichever finishes second reads both
    // into the stats and verdicts.  Every task writes only its instance's
    // slots (the engine is stateless), so the result is the same under
    // any schedule: same instances, same order, same bits.
    // Per-instance latency histogram, registered once (call sites guard on
    // obs::enabled(); threads observe into their own shards, so the
    // parallel loop stays contention-free).  An instance's latency is the
    // sum of its scans and its classification.
    static const obs::MetricId instance_ns_metric =
        obs::MetricsRegistry::global().histogram("analyze.instance_ns");
    const std::size_t count = instances.size();
    const bool telemetry = obs::enabled();
    std::vector<InstanceAnalysis> analyses(count);
    std::vector<InstanceFold> folds;
    folds.reserve(count);
    for (const runtime::InstanceInfo& info : instances)
        folds.emplace_back(config_, info.kind);
    std::vector<std::uint64_t> scan_ns(telemetry ? 2 * count : 0);
    const auto scans_done = std::make_unique<std::atomic<int>[]>(count);
    const auto run_task = [&](std::size_t task) {
        const std::uint64_t begin_ns = telemetry ? support::now_ns() : 0;
        const std::size_t i = task / 2;
        const runtime::InstanceInfo& info = instances[i];
        InstanceAnalysis& ia = analyses[i];
        InstanceFold& fold = folds[i];
        const ColumnSlice slice =
            make_slice(columns, columns.range(info.id), types.get());
        if (task % 2 == 0) {
            // A phase-dense instance's phase list is as large as a column;
            // it lives only as long as this scan.
            PhaseList phases;
            fold.aggregates.fold(slice, phases);
        } else {
            fold.patterns.fold(slice, 0, &ia.patterns);
            fold.patterns.finish(&ia.patterns);
            std::sort(ia.patterns.begin(), ia.patterns.end(),
                      [](const Pattern& a, const Pattern& b) {
                          return a.first < b.first;
                      });
        }
        if (telemetry) scan_ns[task] = support::now_ns() - begin_ns;
        // The acq_rel pairs the two scans: the second sees the first's
        // writes.
        if (scans_done[i].fetch_add(1, std::memory_order_acq_rel) == 0)
            return;
        const std::uint64_t classify_ns = telemetry ? support::now_ns() : 0;
        ia.stats = fold.to_stats(info);
        ia.use_cases = engine_.classify(ia.stats);
        if (telemetry)
            obs::MetricsRegistry::global().observe(
                instance_ns_metric, scan_ns[2 * i] + scan_ns[2 * i + 1] +
                                        support::now_ns() - classify_ns);
    };
    if (pool != nullptr && count > 0) {
        // Shard by event count, not task count: a scan's cost is
        // proportional to the instance's rows, and real profiles are
        // skewed (a handful of hot containers own most events).
        // Contiguous task blocks with roughly equal event totals keep
        // every worker busy; block boundaries come from the prefix event
        // counts, so the partition is deterministic.
        const std::size_t tasks = 2 * count;
        std::vector<std::size_t> prefix(tasks + 1, 0);
        for (std::size_t t = 0; t < tasks; ++t)
            prefix[t + 1] =
                prefix[t] + columns.range(instances[t / 2].id).size();
        const std::size_t shard_target = std::min<std::size_t>(
            tasks, static_cast<std::size_t>(pool->thread_count()) * 4);
        std::vector<std::size_t> bounds;
        bounds.reserve(shard_target + 1);
        bounds.push_back(0);
        for (std::size_t s = 1; s < shard_target; ++s) {
            const std::size_t goal = prefix[tasks] / shard_target * s;
            const auto it =
                std::upper_bound(prefix.begin(), prefix.end(), goal);
            const auto idx = static_cast<std::size_t>(
                std::distance(prefix.begin(), it)) - 1;
            bounds.push_back(std::clamp(idx, bounds.back(), tasks));
        }
        bounds.push_back(tasks);
        // Shard spans parent under analyze.total explicitly: pool threads
        // have no TLS context of their own.
        const obs::TraceContext analyze_ctx = obs::current_trace_context();
        par::parallel_for_chunks(
            *pool, 0, bounds.size() - 1,
            [&](std::size_t lo, std::size_t hi) {
                DSSPY_TRACE_SPAN_UNDER("analyze.shard", analyze_ctx);
                for (std::size_t s = lo; s < hi; ++s)
                    for (std::size_t t = bounds[s]; t < bounds[s + 1]; ++t)
                        run_task(t);
            });
    } else {
        for (std::size_t t = 0; t < 2 * count; ++t) run_task(t);
    }
    return AnalysisResult(std::move(analyses), columns.total_events(),
                          &columns);
}

}  // namespace dsspy::core
