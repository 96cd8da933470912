// Micro benchmarks (google-benchmark): instrumentation overhead per
// operation with and without a live sink, analysis throughput, and the
// parallel primitives behind the recommended actions.
#include <benchmark/benchmark.h>

#include <memory>
#include <span>
#include <vector>

#include "core/column_analysis.hpp"
#include "core/detector_kernels.hpp"
#include "core/dsspy.hpp"
#include "core/instance_fold.hpp"
#include "ds/ds.hpp"
#include "parallel/algorithms.hpp"
#include "runtime/session.hpp"
#include "support/rng.hpp"

namespace {

using namespace dsspy;

// --- instrumentation overhead ----------------------------------------------

void BM_ListAdd_Plain(benchmark::State& state) {
    for (auto _ : state) {
        ds::List<std::int64_t> list;
        for (int i = 0; i < 1024; ++i) list.add(i);
        benchmark::DoNotOptimize(list.data());
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ListAdd_Plain);

void BM_ListAdd_ProfiledNullSession(benchmark::State& state) {
    for (auto _ : state) {
        ds::ProfiledList<std::int64_t> list(nullptr, {"B", "M", 1});
        for (int i = 0; i < 1024; ++i) list.add(i);
        benchmark::DoNotOptimize(list.raw().data());
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ListAdd_ProfiledNullSession);

void BM_ListAdd_Buffered(benchmark::State& state) {
    runtime::ProfilingSession session(runtime::CaptureMode::Buffered);
    for (auto _ : state) {
        ds::ProfiledList<std::int64_t> list(&session, {"B", "M", 1});
        for (int i = 0; i < 1024; ++i) list.add(i);
        benchmark::DoNotOptimize(list.raw().data());
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ListAdd_Buffered);

/// An Incremental session whose collector drains the chains live into a
/// sink that only counts (the `dsspy watch` path minus the analyzer).
std::unique_ptr<runtime::ProfilingSession> live_sink_session(
    std::size_t& delivered) {
    auto session = std::make_unique<runtime::ProfilingSession>(
        runtime::CaptureMode::Buffered, 64 * 1024,
        runtime::AnalysisMode::Incremental);
    session->set_event_sink(
        [&delivered](const runtime::EventBatch& batch) {
            delivered += batch.n;
        });
    return session;
}

void BM_ListAdd_LiveSink(benchmark::State& state) {
    std::size_t delivered = 0;
    const auto session = live_sink_session(delivered);
    for (auto _ : state) {
        ds::ProfiledList<std::int64_t> list(session.get(), {"B", "M", 1});
        for (int i = 0; i < 1024; ++i) list.add(i);
        benchmark::DoNotOptimize(list.raw().data());
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ListAdd_LiveSink);

// Raw record() hot path, without the container proxy around it.
void BM_Record_Buffered(benchmark::State& state) {
    runtime::ProfilingSession session(runtime::CaptureMode::Buffered);
    const runtime::InstanceId id = session.register_instance(
        runtime::DsKind::List, "List<Int64>", {"B", "M", 1});
    for (auto _ : state) {
        for (int i = 0; i < 1024; ++i)
            session.record(id, runtime::OpKind::Add, i,
                           static_cast<std::uint32_t>(i + 1));
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_Record_Buffered);

void BM_Record_LiveSink(benchmark::State& state) {
    std::size_t delivered = 0;
    const auto session = live_sink_session(delivered);
    const runtime::InstanceId id = session->register_instance(
        runtime::DsKind::List, "List<Int64>", {"B", "M", 1});
    for (auto _ : state) {
        for (int i = 0; i < 1024; ++i)
            session->record(id, runtime::OpKind::Add, i,
                            static_cast<std::uint32_t>(i + 1));
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_Record_LiveSink);

void BM_ListGet_Buffered(benchmark::State& state) {
    runtime::ProfilingSession session(runtime::CaptureMode::Buffered);
    ds::ProfiledList<std::int64_t> list(&session, {"B", "M", 1});
    for (int i = 0; i < 1024; ++i) list.add(i);
    for (auto _ : state) {
        std::int64_t sum = 0;
        for (std::size_t i = 0; i < list.count(); ++i) sum += list.get(i);
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ListGet_Buffered);

// --- analysis throughput -----------------------------------------------------

void BM_PatternDetection(benchmark::State& state) {
    const auto n = static_cast<int>(state.range(0));
    runtime::ProfilingSession session;
    runtime::InstanceId id;
    {
        ds::ProfiledList<int> list(&session, {"B", "M", 1});
        for (int round = 0; round < 4; ++round) {
            for (int i = 0; i < n / 8; ++i) list.add(i);
            for (std::size_t i = 0; i < list.count(); ++i)
                benchmark::DoNotOptimize(list.get(i));
            list.clear();
        }
        id = list.instance_id();
    }
    session.stop();
    const runtime::ColumnStore& columns = session.store().columns();
    std::vector<std::uint8_t> types(columns.total_events());
    core::kernels::derive_types(columns.op(), columns.total_events(),
                                types.data());
    const core::ColumnSlice profile =
        core::make_slice(columns, columns.range(id), types.data());
    const core::DetectorConfig config;
    for (auto _ : state) {
        std::vector<core::Pattern> patterns;
        core::PatternFold fold(config, runtime::DsKind::List);
        fold.fold(profile, 0, &patterns);
        fold.finish(&patterns);
        benchmark::DoNotOptimize(patterns.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(profile.n));
}
BENCHMARK(BM_PatternDetection)->Arg(1 << 12)->Arg(1 << 16);

void BM_FullAnalysis(benchmark::State& state) {
    runtime::ProfilingSession session;
    {
        for (int inst = 0; inst < 16; ++inst) {
            ds::ProfiledList<int> list(
                &session, {"B", "M", static_cast<std::uint32_t>(inst)});
            for (int i = 0; i < 2000; ++i) list.add(i);
            for (std::size_t i = 0; i < list.count(); ++i)
                benchmark::DoNotOptimize(list.get(i));
        }
    }
    session.stop();
    const core::Dsspy analyzer;
    for (auto _ : state) {
        auto result = analyzer.analyze(session);
        benchmark::DoNotOptimize(result.total_instances());
    }
}
BENCHMARK(BM_FullAnalysis);

// Parallel post-mortem analysis over a shared session; Arg = pool threads
// (0 = sequential baseline).
void BM_FullAnalysis_Pool(benchmark::State& state) {
    static runtime::ProfilingSession* session = [] {
        auto* s = new runtime::ProfilingSession();
        for (int inst = 0; inst < 64; ++inst) {
            ds::ProfiledList<int> list(
                s, {"B", "M", static_cast<std::uint32_t>(inst)});
            for (int i = 0; i < 2000; ++i) list.add(i);
            for (std::size_t i = 0; i < list.count(); ++i)
                benchmark::DoNotOptimize(list.get(i));
        }
        s->stop();
        return s;
    }();
    const core::Dsspy analyzer;
    const auto threads = static_cast<unsigned>(state.range(0));
    std::unique_ptr<par::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<par::ThreadPool>(threads);
    for (auto _ : state) {
        auto result = analyzer.analyze(*session, pool.get());
        benchmark::DoNotOptimize(result.total_instances());
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(session->store().total_events()));
}
BENCHMARK(BM_FullAnalysis_Pool)->Arg(0)->Arg(1)->Arg(2)->Arg(4);

// --- parallel primitives (the recommended actions) ---------------------------

void BM_SequentialMaxScan(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<double> data(n);
    support::Rng rng(1);
    for (auto& v : data) v = rng.next_double();
    for (auto _ : state) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < data.size(); ++i)
            if (data[best] < data[i]) best = i;
        benchmark::DoNotOptimize(best);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SequentialMaxScan)->Arg(100'000)->Arg(1'000'000);

void BM_ParallelMaxIndex(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<double> data(n);
    support::Rng rng(1);
    for (auto& v : data) v = rng.next_double();
    par::ThreadPool& pool = par::ThreadPool::default_pool();
    for (auto _ : state) {
        benchmark::DoNotOptimize(par::parallel_max_index<double>(pool, data));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ParallelMaxIndex)->Arg(100'000)->Arg(1'000'000);

void BM_SequentialSort(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    support::Rng rng(3);
    std::vector<std::int64_t> base(n);
    for (auto& v : base) v = static_cast<std::int64_t>(rng.next());
    for (auto _ : state) {
        state.PauseTiming();
        std::vector<std::int64_t> data = base;
        state.ResumeTiming();
        ds::detail::introsort(data.data(), data.data() + data.size());
        benchmark::DoNotOptimize(data.data());
    }
}
BENCHMARK(BM_SequentialSort)->Arg(1 << 18);

// --- data-structure choice (the Frequent-Search recommendation) -------------
// "it might be useful to change the data structure to one that is
// optimized for searches.  Binary trees might be better suited."

void BM_Search_ListIndexOf(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    ds::List<std::int64_t> list;
    for (std::size_t i = 0; i < n; ++i)
        list.add(static_cast<std::int64_t>(i) * 3);
    support::Rng rng(1);
    for (auto _ : state) {
        const auto needle =
            static_cast<std::int64_t>(rng.next_below(n)) * 3;
        benchmark::DoNotOptimize(list.index_of(needle));
    }
}
BENCHMARK(BM_Search_ListIndexOf)->Arg(1 << 10)->Arg(1 << 14);

void BM_Search_SortedListBinarySearch(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    ds::SortedList<std::int64_t, std::int64_t> sorted;
    for (std::size_t i = 0; i < n; ++i)
        sorted.add(static_cast<std::int64_t>(i) * 3,
                   static_cast<std::int64_t>(i));
    support::Rng rng(1);
    for (auto _ : state) {
        const auto needle =
            static_cast<std::int64_t>(rng.next_below(n)) * 3;
        benchmark::DoNotOptimize(sorted.index_of_key(needle));
    }
}
BENCHMARK(BM_Search_SortedListBinarySearch)->Arg(1 << 10)->Arg(1 << 14);

void BM_Search_SortedSetAvl(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    ds::SortedSet<std::int64_t> set;
    for (std::size_t i = 0; i < n; ++i)
        set.add(static_cast<std::int64_t>(i) * 3);
    support::Rng rng(1);
    for (auto _ : state) {
        const auto needle =
            static_cast<std::int64_t>(rng.next_below(n)) * 3;
        benchmark::DoNotOptimize(set.contains(needle));
    }
}
BENCHMARK(BM_Search_SortedSetAvl)->Arg(1 << 10)->Arg(1 << 14);

void BM_Search_DictionaryHash(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    ds::Dictionary<std::int64_t, std::int64_t> dict;
    for (std::size_t i = 0; i < n; ++i)
        dict.set(static_cast<std::int64_t>(i) * 3,
                 static_cast<std::int64_t>(i));
    support::Rng rng(1);
    for (auto _ : state) {
        const auto needle =
            static_cast<std::int64_t>(rng.next_below(n)) * 3;
        benchmark::DoNotOptimize(dict.contains_key(needle));
    }
}
BENCHMARK(BM_Search_DictionaryHash)->Arg(1 << 10)->Arg(1 << 14);

void BM_ParallelSort(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    support::Rng rng(3);
    std::vector<std::int64_t> base(n);
    for (auto& v : base) v = static_cast<std::int64_t>(rng.next());
    par::ThreadPool& pool = par::ThreadPool::default_pool();
    for (auto _ : state) {
        state.PauseTiming();
        std::vector<std::int64_t> data = base;
        state.ResumeTiming();
        par::parallel_sort<std::int64_t>(pool, data);
        benchmark::DoNotOptimize(data.data());
    }
}
BENCHMARK(BM_ParallelSort)->Arg(1 << 18);

}  // namespace
