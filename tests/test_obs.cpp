// Tests for the self-telemetry layer (src/obs): per-thread shard
// aggregation determinism, histogram bucket math, JSON / Prometheus
// exporters, the DSSPY_TRACE_SPAN histogram leg, the self-overhead
// estimate, orphan event surfacing, and the differential guarantee that
// enabling telemetry never changes an analysis result.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dsspy.hpp"
#include "core/export.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/self_overhead.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/profile_store.hpp"
#include "runtime/session.hpp"

namespace dsspy::obs {
namespace {

/// Enables the global registry for one test and restores the disabled
/// default (with zeroed cells) on exit, keeping tests order-independent.
class GlobalTelemetryGuard {
public:
    GlobalTelemetryGuard() {
        MetricsRegistry::global().reset();
        MetricsRegistry::global().set_enabled(true);
    }
    ~GlobalTelemetryGuard() {
        MetricsRegistry::global().set_enabled(false);
        MetricsRegistry::global().reset();
    }
};

const MetricValue* find_metric(const std::vector<MetricValue>& metrics,
                               std::string_view name) {
    for (const MetricValue& m : metrics)
        if (m.name == name) return &m;
    return nullptr;
}

TEST(ObsRegistry, RegistrationInternsByName) {
    MetricsRegistry reg;
    const MetricId a = reg.counter("test.hits");
    const MetricId b = reg.counter("test.hits");
    EXPECT_EQ(a, b);
    EXPECT_NE(a, kInvalidMetric);
    // Same name, different kind: refused.
    EXPECT_EQ(reg.gauge("test.hits"), kInvalidMetric);
}

TEST(ObsRegistry, CounterAggregatesExactlyAcrossThreads) {
    MetricsRegistry reg;
    reg.set_enabled(true);
    const MetricId hits = reg.counter("test.hits");
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&reg, hits] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) reg.add(hits);
        });
    for (std::thread& th : threads) th.join();

    const std::vector<MetricValue> metrics = reg.collect();
    const MetricValue* m = find_metric(metrics, "test.hits");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->kind, MetricKind::Counter);
    EXPECT_EQ(m->value, kThreads * kPerThread);
    EXPECT_GE(reg.shard_count(), 1u);
}

TEST(ObsRegistry, DeterministicUnderThreadPoolSharding) {
    // The same logical work sharded across different pool widths must
    // aggregate to identical totals — counters sum, shardings differ.
    constexpr std::uint64_t kItems = 50000;
    std::vector<std::uint64_t> totals;
    for (unsigned pool_threads : {1u, 2u, 4u}) {
        MetricsRegistry reg;
        reg.set_enabled(true);
        const MetricId items = reg.counter("test.items");
        const MetricId batch = reg.histogram("test.batch");
        par::ThreadPool pool(pool_threads);
        par::parallel_for_chunks(
            pool, 0, kItems, [&](std::size_t lo, std::size_t hi) {
                reg.add(items, hi - lo);
                reg.observe(batch, hi - lo);
            });
        pool.wait_idle();
        const std::vector<MetricValue> metrics = reg.collect();
        const MetricValue* m = find_metric(metrics, "test.items");
        ASSERT_NE(m, nullptr);
        totals.push_back(m->value);
        const MetricValue* h = find_metric(metrics, "test.batch");
        ASSERT_NE(h, nullptr);
        EXPECT_EQ(h->sum, kItems);
    }
    EXPECT_EQ(totals[0], kItems);
    EXPECT_EQ(totals[1], kItems);
    EXPECT_EQ(totals[2], kItems);
}

TEST(ObsRegistry, GaugesAggregateAsMax) {
    MetricsRegistry reg;
    reg.set_enabled(true);
    const MetricId depth = reg.gauge("test.depth");
    reg.gauge_set(depth, 5);
    reg.gauge_max(depth, 3);  // lower: ignored
    std::thread other([&reg, depth] { reg.gauge_max(depth, 9); });
    other.join();
    const std::vector<MetricValue> metrics = reg.collect();
    const MetricValue* m = find_metric(metrics, "test.depth");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->value, 9u);
}

// A thread whose cached slot was evicted by four other registries still
// writes into the shard it owns: a gauge it lowers reads the lower value,
// not the max over a stale shard and a second one.
TEST(ObsRegistry, EvictedThreadKeepsItsShard) {
    MetricsRegistry reg;
    reg.set_enabled(true);
    const MetricId level = reg.gauge("test.level");
    reg.gauge_set(level, 10);
    std::vector<std::unique_ptr<MetricsRegistry>> others;
    for (int i = 0; i < 4; ++i) {
        MetricsRegistry& other =
            *others.emplace_back(std::make_unique<MetricsRegistry>());
        other.set_enabled(true);
        other.add(other.counter("test.other"));
    }
    reg.gauge_set(level, 5);
    const std::vector<MetricValue> metrics = reg.collect();
    const MetricValue* m = find_metric(metrics, "test.level");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->value, 5u);
}

TEST(ObsRegistry, InvalidMetricUpdatesAreNoOps) {
    MetricsRegistry reg;
    reg.set_enabled(true);
    reg.counter("test.hits");
    reg.add(kInvalidMetric, 100);
    reg.observe(kInvalidMetric, 100);
    reg.gauge_set(kInvalidMetric, 100);
    reg.gauge_max(kInvalidMetric, 100);
    const std::vector<MetricValue> metrics = reg.collect();
    const MetricValue* m = find_metric(metrics, "test.hits");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->value, 0u);
}

TEST(ObsRegistry, ResetZeroesCellsButKeepsRegistrations) {
    MetricsRegistry reg;
    reg.set_enabled(true);
    const MetricId hits = reg.counter("test.hits");
    reg.add(hits, 7);
    reg.reset();
    const std::vector<MetricValue> metrics = reg.collect();
    const MetricValue* m = find_metric(metrics, "test.hits");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->value, 0u);
    EXPECT_EQ(reg.counter("test.hits"), hits);
}

TEST(ObsRegistry, ConcurrentRegistrationAndUpdateStress) {
    // Lock-free shard list + mutexed registration under contention; run
    // under DSSPY_SANITIZE=thread this is the TSan sweep of the registry.
    MetricsRegistry reg;
    reg.set_enabled(true);
    constexpr int kThreads = 8;
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&reg, &ready, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) std::this_thread::yield();
            const MetricId shared = reg.counter("stress.shared");
            const MetricId own =
                reg.counter("stress.own." + std::to_string(t));
            const MetricId hist = reg.histogram("stress.hist");
            for (int i = 0; i < 5000; ++i) {
                reg.add(shared);
                reg.add(own);
                reg.observe(hist, static_cast<std::uint64_t>(i));
                if (i % 1000 == 0) (void)reg.collect();
            }
        });
    for (std::thread& th : threads) th.join();
    const std::vector<MetricValue> metrics = reg.collect();
    const MetricValue* shared = find_metric(metrics, "stress.shared");
    ASSERT_NE(shared, nullptr);
    EXPECT_EQ(shared->value, kThreads * 5000u);
    const MetricValue* hist = find_metric(metrics, "stress.hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->count, kThreads * 5000u);
}

TEST(ObsHistogram, BucketBoundaries) {
    // Bucket 0 is [0,2); bucket i>0 is [2^i, 2^(i+1)); the last bucket
    // absorbs everything above.
    EXPECT_EQ(MetricsRegistry::bucket_index(0), 0u);
    EXPECT_EQ(MetricsRegistry::bucket_index(1), 0u);
    EXPECT_EQ(MetricsRegistry::bucket_index(2), 1u);
    EXPECT_EQ(MetricsRegistry::bucket_index(3), 1u);
    EXPECT_EQ(MetricsRegistry::bucket_index(4), 2u);
    EXPECT_EQ(MetricsRegistry::bucket_index(7), 2u);
    EXPECT_EQ(MetricsRegistry::bucket_index(8), 3u);
    EXPECT_EQ(MetricsRegistry::bucket_index((1ull << 31) - 1), 30u);
    EXPECT_EQ(MetricsRegistry::bucket_index(1ull << 31), 31u);
    EXPECT_EQ(MetricsRegistry::bucket_index(~std::uint64_t{0}),
              kHistogramBuckets - 1);

    EXPECT_EQ(MetricsRegistry::bucket_upper_bound(0), 1u);
    EXPECT_EQ(MetricsRegistry::bucket_upper_bound(1), 3u);
    EXPECT_EQ(MetricsRegistry::bucket_upper_bound(2), 7u);

    // Observations land where bucket_index says, and count/sum track.
    MetricsRegistry reg;
    reg.set_enabled(true);
    const MetricId h = reg.histogram("test.hist");
    for (const std::uint64_t v : {0ull, 1ull, 2ull, 1024ull})
        reg.observe(h, v);
    const std::vector<MetricValue> metrics = reg.collect();
    const MetricValue* m = find_metric(metrics, "test.hist");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->count, 4u);
    EXPECT_EQ(m->sum, 1027u);
    EXPECT_EQ(m->buckets[0], 2u);
    EXPECT_EQ(m->buckets[1], 1u);
    EXPECT_EQ(m->buckets[10], 1u);
}

TEST(ObsExport, JsonAndPrometheusCarryTheSameSnapshot) {
    MetricsRegistry reg;
    reg.set_enabled(true);
    reg.add(reg.counter("test.count"), 42);
    reg.gauge_set(reg.gauge("test.gauge"), 7);
    const MetricId h = reg.histogram("test.lat");
    reg.observe(h, 1);
    reg.observe(h, 1000);
    const std::vector<MetricValue> metrics = reg.collect();

    std::ostringstream json;
    write_metrics_json(json, metrics);
    const std::string j = json.str();
    EXPECT_NE(j.find("\"test.count\""), std::string::npos);
    EXPECT_NE(j.find("\"value\": 42"), std::string::npos);
    EXPECT_NE(j.find("\"test.gauge\""), std::string::npos);
    EXPECT_NE(j.find("\"test.lat\""), std::string::npos);
    EXPECT_NE(j.find("\"count\": 2"), std::string::npos);
    EXPECT_NE(j.find("\"sum\": 1001"), std::string::npos);

    std::ostringstream prom;
    write_metrics_prometheus(prom, metrics);
    const std::string p = prom.str();
    EXPECT_NE(p.find("dsspy_test_count 42"), std::string::npos);
    EXPECT_NE(p.find("dsspy_test_gauge 7"), std::string::npos);
    EXPECT_NE(p.find("dsspy_test_lat_count 2"), std::string::npos);
    EXPECT_NE(p.find("dsspy_test_lat_sum 1001"), std::string::npos);
    EXPECT_NE(p.find("dsspy_test_lat_bucket{le=\"+Inf\"} 2"),
              std::string::npos);
    // Cumulative buckets: the le="1" bucket holds only the observe(1).
    EXPECT_NE(p.find("dsspy_test_lat_bucket{le=\"1\"} 1"),
              std::string::npos);

    // Equal registry states export byte-identical documents.
    std::ostringstream json2;
    write_metrics_json(json2, reg.collect());
    EXPECT_EQ(j, json2.str());
}

TEST(ObsExport, SelfOverheadAppearsWhenGiven) {
    MetricsRegistry reg;
    SelfOverhead overhead;
    overhead.events = 1000;
    overhead.capture_wall_ns = 5000000;
    overhead.estimated_slowdown = 1.25;
    std::ostringstream json;
    write_metrics_json(json, reg.collect(), &overhead);
    EXPECT_NE(json.str().find("\"self_overhead\""), std::string::npos);
    EXPECT_NE(json.str().find("\"estimated_slowdown\""), std::string::npos);
    std::ostringstream prom;
    write_metrics_prometheus(prom, reg.collect(), &overhead);
    EXPECT_NE(prom.str().find("dsspy_self_overhead_estimated_slowdown"),
              std::string::npos);
}

TEST(ObsSpan, MacroTimesScopeIntoGlobalHistogram) {
    const GlobalTelemetryGuard guard;
    {
        DSSPY_TRACE_SPAN("test.scope");
        std::this_thread::yield();
    }
    const std::vector<MetricValue> metrics =
        MetricsRegistry::global().collect();
    const MetricValue* m = find_metric(metrics, "span.test.scope");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->kind, MetricKind::Histogram);
    EXPECT_EQ(m->count, 1u);
}

TEST(ObsSelfOverhead, EstimateIsSaneAndClamped) {
    const SelfOverhead est = estimate_self_overhead(
        100000, 10'000'000,
        runtime::ProfilingSession::kTimestampStride);
    EXPECT_EQ(est.events, 100000u);
    EXPECT_GT(est.instrumented_ns_per_event, 0.0);
    EXPECT_GT(est.amortized_ns_per_event, 0.0);
    EXPECT_GE(est.overhead_fraction, 0.0);
    EXPECT_GE(est.estimated_slowdown, 1.0);
    // The amortized path reads the clock 1/stride as often; it must not
    // cost more than the clock-every-event loop by any real margin.
    EXPECT_LT(est.amortized_ns_per_event,
              est.instrumented_ns_per_event * 1.5);

    const SelfOverhead zero = estimate_self_overhead(0, 10'000'000, 64);
    EXPECT_DOUBLE_EQ(zero.estimated_slowdown, 1.0);
}

// The capture window and finalize each report their minor page faults:
// a session past the huge-page threshold maps fresh chunks while
// recording and fresh columns while finalizing, so both fault.
TEST(ObsPageFaults, SessionReportsCaptureAndFinalizeFaults) {
#if !defined(__linux__)
    GTEST_SKIP() << "minor faults come from getrusage";
#endif
    GlobalTelemetryGuard guard;
    {
        runtime::ProfilingSession session;
        const runtime::InstanceId id = session.register_instance(
            runtime::DsKind::List, "List<Int32>", {"C", "M", 1});
        for (int i = 0; i < 200'000; ++i)
            session.record(id, runtime::OpKind::Add, i,
                           static_cast<std::uint32_t>(i + 1));
        session.stop();
    }
    const std::vector<MetricValue> metrics =
        MetricsRegistry::global().collect();
    const MetricValue* capture = find_metric(metrics, "capture.minor_faults");
    const MetricValue* finalize =
        find_metric(metrics, "store.finalize_minor_faults");
    ASSERT_NE(capture, nullptr);
    ASSERT_NE(finalize, nullptr);
    EXPECT_GT(capture->value, 0u);
    EXPECT_GT(finalize->value, 0u);
}

TEST(ObsOrphans, StoreCountsEventsPastTheRegisteredRange) {
    runtime::ProfileStore store;
    std::vector<runtime::AccessEvent> events(7);
    for (std::size_t i = 0; i < events.size(); ++i) {
        events[i].seq = i;
        events[i].instance = i < 3 ? 0u : 5u;  // 4 events on id 5
    }
    store.append(events);
    EXPECT_EQ(store.orphan_events(6), 0u);
    EXPECT_EQ(store.orphan_events(5), 4u);
    EXPECT_EQ(store.orphan_events(0), 7u);
}

TEST(ObsOrphans, SessionSurfacesStoreOnlyEvents) {
    runtime::ProfilingSession session;
    // Record against an instance id the registry never issued.
    for (int i = 0; i < 5; ++i)
        session.record(7, runtime::OpKind::Add, i, 1);
    session.stop();
    EXPECT_EQ(session.orphan_events(), 5u);
    EXPECT_EQ(session.store().total_events(), 5u);
}

TEST(ObsDifferential, TelemetryDoesNotChangeAnalysisResults) {
    // Fixed synthetic input (hand-built store, deterministic timestamps):
    // the exported analysis JSON must be bit-identical with telemetry on
    // and off.
    const auto build_input = [](std::vector<runtime::InstanceInfo>& instances,
                                runtime::ProfileStore& store) {
        runtime::InstanceInfo info;
        info.id = 0;
        info.kind = runtime::DsKind::List;
        info.type_name = "List<Int32>";
        info.location.class_name = "Obs.Test";
        info.location.method = "Main";
        info.location.position = 1;
        instances.push_back(info);
        std::vector<runtime::AccessEvent> events;
        events.reserve(300);
        for (std::uint64_t i = 0; i < 300; ++i) {
            runtime::AccessEvent ev;
            ev.seq = i;
            ev.time_ns = 1000 + 10 * i;
            ev.instance = 0;
            ev.op = i < 150 ? runtime::OpKind::Add : runtime::OpKind::Get;
            ev.position = i < 150 ? static_cast<std::int64_t>(i)
                                  : static_cast<std::int64_t>(i - 150);
            ev.size = i < 150 ? static_cast<std::uint32_t>(i + 1) : 150u;
            ev.thread = 0;
            events.push_back(ev);
        }
        store.append(events);
        store.finalize();
    };

    const auto analyze_to_json = [&] {
        std::vector<runtime::InstanceInfo> instances;
        runtime::ProfileStore store;
        build_input(instances, store);
        const core::Dsspy analyzer;
        const core::AnalysisResult result =
            analyzer.analyze(instances, store,
                             &par::ThreadPool::default_pool());
        std::ostringstream os;
        core::write_analysis_json(os, result);
        return os.str();
    };

    const std::string off = analyze_to_json();
    std::string on;
    {
        const GlobalTelemetryGuard guard;
        on = analyze_to_json();
    }
    EXPECT_EQ(off, on);

    // And the telemetry actually ran during the "on" pass: the analyze
    // span must have fired at least once (the guard reset the registry
    // afterwards, so re-run and inspect inside a guard).
    {
        const GlobalTelemetryGuard guard;
        (void)analyze_to_json();
        const std::vector<MetricValue> metrics =
            MetricsRegistry::global().collect();
        const MetricValue* span = find_metric(metrics, "span.analyze.total");
        ASSERT_NE(span, nullptr);
        EXPECT_GE(span->count, 1u);
    }
}

}  // namespace
}  // namespace dsspy::obs
