// Tests for the parallel runtime: pool, loops, algorithms, queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <latch>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <set>
#include <thread>
#include <vector>

#include "parallel/algorithms.hpp"
#include "parallel/concurrent_queue.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "support/rng.hpp"

namespace dsspy::par {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { counter.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
    std::atomic<int> counter{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&counter] { counter.fetch_add(1); });
    }
    EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ThreadCountDefaultsToHardware) {
    ThreadPool pool;
    EXPECT_GE(pool.thread_count(), 1u);
    ThreadPool pool3(3);
    EXPECT_EQ(pool3.thread_count(), 3u);
}

TEST(ThreadPool, WaitIdleBlocksUntilDone) {
    ThreadPool pool(2);
    std::atomic<bool> done{false};
    pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        done.store(true);
    });
    pool.wait_idle();
    EXPECT_TRUE(done.load());
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(10'000);
    parallel_for(pool, 0, hits.size(),
                 [&hits](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndSingletonRanges) {
    ThreadPool pool(4);
    std::atomic<int> count{0};
    parallel_for(pool, 5, 5, [&count](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 0);
    parallel_for(pool, 5, 6, [&count](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 1);
}

TEST(ParallelForChunks, ChunksAreDisjointAndCoverRange) {
    ThreadPool pool(4);
    std::mutex mutex;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    parallel_for_chunks(pool, 10, 1010,
                        [&](std::size_t lo, std::size_t hi) {
                            std::scoped_lock lock(mutex);
                            chunks.emplace_back(lo, hi);
                        });
    std::sort(chunks.begin(), chunks.end());
    EXPECT_EQ(chunks.front().first, 10u);
    EXPECT_EQ(chunks.back().second, 1010u);
    for (std::size_t i = 1; i < chunks.size(); ++i)
        EXPECT_EQ(chunks[i - 1].second, chunks[i].first);
}

TEST(ParallelForChunks, BoundariesFollowChunkPlan) {
    ThreadPool pool(3);
    std::mutex mutex;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    parallel_for_chunks(pool, 5, 105, [&](std::size_t lo, std::size_t hi) {
        std::scoped_lock lock(mutex);
        chunks.emplace_back(lo, hi);
    });
    std::sort(chunks.begin(), chunks.end());
    const ChunkPlan plan = chunk_plan(pool, 100);
    EXPECT_EQ(plan.count, 12u);  // 3 workers * 4
    EXPECT_EQ(plan.size, 9u);
    ASSERT_EQ(chunks.size(), plan.count);
    for (std::size_t c = 0; c < chunks.size(); ++c) {
        EXPECT_EQ(chunks[c].first, 5 + c * plan.size);
        EXPECT_EQ(chunks[c].second, std::min<std::size_t>(105, 5 + (c + 1) * plan.size));
    }
}

TEST(ChunkPlan, CoversEveryIndexWithNoEmptyChunk) {
    EXPECT_EQ(chunk_plan(0, 16).count, 0u);
    for (std::size_t n = 1; n < 200; ++n) {
        for (std::size_t max_chunks : {1u, 2u, 4u, 16u, 64u}) {
            const ChunkPlan plan = chunk_plan(n, max_chunks);
            EXPECT_LE(plan.count, std::min(n, max_chunks));
            EXPECT_GE(plan.count * plan.size, n);
            EXPECT_LT((plan.count - 1) * plan.size, n);  // last is non-empty
        }
    }
}

// A region started from inside a pool task must not depend on a free
// worker: the caller runs every chunk nobody else claims.  With a
// single-worker pool the only worker is the caller itself.
TEST(ForkJoin, NestedRegionOnSingleWorkerPoolCompletes) {
    ThreadPool pool(1);
    std::atomic<std::size_t> sum{0};
    std::atomic<bool> done{false};
    pool.submit([&] {
        parallel_for(pool, 0, 1000, [&sum](std::size_t i) {
            sum.fetch_add(i, std::memory_order_relaxed);
        });
        done.store(true);
    });
    pool.wait_idle();
    EXPECT_TRUE(done.load());
    EXPECT_EQ(sum.load(), 1000u * 999 / 2);
}

// Many tiny back-to-back regions whose body and data live in a loop-local
// scope: a helper that woke after its region returned and touched `body`
// would read a dead stack frame (caught under ASan/TSan).
TEST(ForkJoin, BackToBackTinyRegionsWithStackBodies) {
    ThreadPool pool(4);
    std::uint64_t total = 0;
    for (int region = 0; region < 20'000; ++region) {
        std::array<std::atomic<int>, 8> hits{};
        const int weight = region % 3 + 1;
        parallel_for_chunks(pool, 0, hits.size(),
                            [&hits, weight](std::size_t lo, std::size_t hi) {
                                for (std::size_t i = lo; i < hi; ++i)
                                    hits[i].fetch_add(weight);
                            });
        for (const auto& h : hits) total += static_cast<std::uint64_t>(h.load());
    }
    std::uint64_t expected = 0;
    for (int region = 0; region < 20'000; ++region)
        expected += 8u * static_cast<std::uint64_t>(region % 3 + 1);
    EXPECT_EQ(total, expected);
}

// A helper that starts only after its region returned must not touch the
// region's body: the single worker is held busy until the caller has run
// every chunk alone and the body's frame is gone.
TEST(ForkJoin, LateHelperStartsAfterRegionReturned) {
    ThreadPool pool(1);
    std::latch worker_busy(1);
    std::latch release_worker(1);
    pool.submit([&] {
        worker_busy.count_down();
        release_worker.wait();
    });
    worker_busy.wait();
    std::size_t sum = 0;
    {
        const std::vector<std::size_t> data(64, 1);
        std::atomic<std::size_t> local{0};
        parallel_for_chunks(pool, 0, data.size(),
                            [&](std::size_t lo, std::size_t hi) {
                                for (std::size_t i = lo; i < hi; ++i)
                                    local.fetch_add(data[i]);
                            });
        sum = local.load();
    }
    release_worker.count_down();
    pool.wait_idle();  // the queued helper runs now and finds nothing
    EXPECT_EQ(sum, 64u);
}

// An exception thrown on the caller's thread reaches the caller only after
// the chunks helpers had already claimed have finished.
TEST(ForkJoin, CallerExceptionWaitsForClaimedHelperChunks) {
    ThreadPool pool(4);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> helper_started{0};
    std::atomic<int> helper_finished{0};
    bool caught = false;
    try {
        parallel_for_chunks(pool, 0, 64, [&](std::size_t, std::size_t) {
            if (std::this_thread::get_id() == caller) {
                const auto deadline =
                    std::chrono::steady_clock::now() + std::chrono::seconds(10);
                while (helper_started.load() == 0 &&
                       std::chrono::steady_clock::now() < deadline)
                    std::this_thread::yield();
                throw std::runtime_error("caller chunk failed");
            }
            helper_started.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            helper_finished.fetch_add(1);
        });
    } catch (const std::runtime_error& e) {
        caught = true;
        EXPECT_STREQ(e.what(), "caller chunk failed");
        EXPECT_GT(helper_started.load(), 0);
        EXPECT_EQ(helper_finished.load(), helper_started.load());
    }
    EXPECT_TRUE(caught);
    // The caller's failure cancelled the chunks nobody had claimed.
    EXPECT_LT(static_cast<std::size_t>(helper_started.load()),
              chunk_plan(pool, 64).count);
}

// A helper's exception is not lost on the worker: it reaches the caller.
TEST(ForkJoin, HelperExceptionReachesCaller) {
    ThreadPool pool(2);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> helper_threw{false};
    const auto body = [&](std::size_t, std::size_t) {
        if (std::this_thread::get_id() != caller) {
            if (!helper_threw.exchange(true))
                throw std::logic_error("helper failed");
            return;
        }
        // Hold the caller's chunk until a helper has arrived and thrown.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!helper_threw.load() &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
    };
    EXPECT_THROW(parallel_for_chunks(pool, 0, 64, body), std::logic_error);
    EXPECT_TRUE(helper_threw.load());
}

// One helper that starts 100 ms late (every worker busy at the submit)
// moves the wake estimate by a bounded step: the first sample is capped,
// later ones at twice the mean, so the estimate grows by at most a quarter.
TEST(ForkJoin, SlowWakeSampleIsClamped) {
    const std::uint64_t before = detail::wake_estimate_ns();
    detail::record_wake(100'000'000);
    EXPECT_LE(detail::wake_estimate_ns(),
              std::max(detail::kFirstWakeCapNs, before + before / 4));
}

// A site the caller is predicted to outrun runs inline, but after a large
// wake sample it still forks within kReprobeRegions regions, and again in
// every later window, so its helpers can re-measure the wake latency.
TEST(ForkJoin, InlineSiteReprobesAfterSlowWake) {
    detail::record_wake(100'000'000);
    ASSERT_GT(detail::wake_estimate_ns(), 0u);
    detail::SiteCost site;
    site.ps_per_index.store(1);  // 1,000 indices cost ~1 ns: always inline
    for (int window = 0; window < 3; ++window) {
        std::uint32_t forks = 0;
        for (std::uint32_t region = 0; region < detail::kReprobeRegions;
             ++region)
            if (!detail::run_inline(site, 1000)) ++forks;
        EXPECT_EQ(forks, 1u) << "window " << window;
    }
}

TEST(ParallelBuild, MatchesSequentialConstruction) {
    ThreadPool pool(4);
    const auto list = parallel_build<std::int64_t>(
        pool, 10'000, [](std::size_t i) {
            return static_cast<std::int64_t>(i * i % 9973);
        });
    ASSERT_EQ(list.count(), 10'000u);
    for (std::size_t i = 0; i < list.count(); ++i)
        EXPECT_EQ(list[i], static_cast<std::int64_t>(i * i % 9973));
}

TEST(ParallelBuild, ZeroElements) {
    ThreadPool pool(2);
    const auto list =
        parallel_build<int>(pool, 0, [](std::size_t) { return 1; });
    EXPECT_EQ(list.count(), 0u);
}

TEST(ParallelAppend, AppendsAfterExistingElements) {
    ThreadPool pool(4);
    ds::List<int> list;
    list.add(-1);
    list.add(-2);
    parallel_append(pool, list, 1000,
                    [](std::size_t i) { return static_cast<int>(i); });
    ASSERT_EQ(list.count(), 1002u);
    EXPECT_EQ(list[0], -1);
    EXPECT_EQ(list[1], -2);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(list[static_cast<std::size_t>(i) + 2], i);
}

TEST(ParallelFindIndex, FindsFirstMatch) {
    ThreadPool pool(4);
    std::vector<int> data(100'000, 0);
    data[70'000] = 1;
    data[90'000] = 1;
    const auto idx = parallel_find_index<int>(
        pool, data, [](int v) { return v == 1; });
    EXPECT_EQ(idx, 70'000);
}

TEST(ParallelFindIndex, ReturnsMinusOneWhenAbsent) {
    ThreadPool pool(4);
    std::vector<int> data(10'000, 0);
    EXPECT_EQ(parallel_index_of<int>(pool, data, 42), -1);
}

TEST(ParallelFindIndex, AgreesWithSequentialOnRandomData) {
    ThreadPool pool(4);
    support::Rng rng(5);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<std::int64_t> data(5000);
        for (auto& v : data)
            v = static_cast<std::int64_t>(rng.next_below(300));
        const std::int64_t needle =
            static_cast<std::int64_t>(rng.next_below(300));
        const auto seq =
            std::find(data.begin(), data.end(), needle) - data.begin();
        const auto expected =
            seq == static_cast<std::ptrdiff_t>(data.size()) ? -1 : seq;
        EXPECT_EQ(parallel_index_of<std::int64_t>(pool, data, needle),
                  expected);
    }
}

TEST(ParallelReduce, SumsCorrectly) {
    ThreadPool pool(4);
    std::vector<std::int64_t> data(100'000);
    std::iota(data.begin(), data.end(), 0);
    const auto sum = parallel_reduce<std::int64_t, std::int64_t>(
        pool, data, 0, [](std::int64_t v) { return v; },
        [](std::int64_t a, std::int64_t b) { return a + b; });
    EXPECT_EQ(sum, 100'000LL * 99'999 / 2);
}

TEST(ParallelReduce, FloatingPointSumIsDeterministicInChunkOrder) {
    ThreadPool pool(4);
    support::Rng rng(11);
    std::vector<double> data(1'000'000);
    for (auto& v : data)
        v = static_cast<double>(rng.next_below(1'000'000)) * 1e-3 /
            static_cast<double>(rng.next_below(97) + 1);
    const auto sum = [&pool, &data] {
        return parallel_reduce<double, double>(
            pool, data, 0.0, [](double v) { return v; },
            [](double a, double b) { return a + b; });
    };
    // Sequential fold in chunk order: each chunk from the identity, then
    // the partials left to right.
    const ChunkPlan plan = chunk_plan(pool, data.size());
    double expected = 0.0;
    for (std::size_t c = 0; c < plan.count; ++c) {
        double acc = 0.0;
        const std::size_t hi = std::min(data.size(), (c + 1) * plan.size);
        for (std::size_t i = c * plan.size; i < hi; ++i) acc += data[i];
        expected += acc;
    }
    for (int call = 0; call < 100; ++call) {
        const double got = sum();
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(expected))
            << "call " << call;
    }
}

TEST(ParallelReduce, EmptyInputReturnsIdentity) {
    ThreadPool pool(4);
    const std::vector<int> empty;
    EXPECT_EQ((parallel_reduce<int, int>(
                  pool, empty, 7, [](int v) { return v; },
                  [](int a, int b) { return a + b; })),
              7);
}

TEST(ParallelMaxIndex, MatchesSequentialArgmaxIncludingTies) {
    ThreadPool pool(4);
    support::Rng rng(17);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<int> data(3000);
        for (auto& v : data) v = static_cast<int>(rng.next_below(50));
        std::size_t expected = 0;
        for (std::size_t i = 1; i < data.size(); ++i)
            if (data[expected] < data[i]) expected = i;
        EXPECT_EQ(parallel_max_index<int>(pool, data),
                  static_cast<std::ptrdiff_t>(expected));
    }
}

TEST(ParallelMaxIndex, EmptyReturnsMinusOne) {
    ThreadPool pool(2);
    EXPECT_EQ(parallel_max_index<int>(pool, {}), -1);
}

TEST(ParallelSort, SortsLargeRandomInput) {
    ThreadPool pool(4);
    support::Rng rng(31);
    std::vector<std::int64_t> data(200'000);
    for (auto& v : data) v = static_cast<std::int64_t>(rng.next());
    std::vector<std::int64_t> expected = data;
    std::sort(expected.begin(), expected.end());
    parallel_sort<std::int64_t>(pool, data);
    EXPECT_EQ(data, expected);
}

TEST(ParallelSort, SortsOnSingleWorkerPool) {
    ThreadPool pool(1);
    support::Rng rng(37);
    std::vector<std::int64_t> data(50'000);
    for (auto& v : data) v = static_cast<std::int64_t>(rng.next());
    std::vector<std::int64_t> expected = data;
    std::sort(expected.begin(), expected.end());
    parallel_sort<std::int64_t>(pool, data);
    EXPECT_EQ(data, expected);
}

TEST(ParallelSort, HandlesSmallAndEdgeInputs) {
    ThreadPool pool(4);
    std::vector<int> empty;
    parallel_sort<int>(pool, empty);
    std::vector<int> one{5};
    parallel_sort<int>(pool, one);
    EXPECT_EQ(one[0], 5);
    std::vector<int> sorted{1, 2, 3, 4};
    parallel_sort<int>(pool, sorted);
    EXPECT_EQ(sorted, (std::vector<int>{1, 2, 3, 4}));
    std::vector<int> reversed{4, 3, 2, 1};
    parallel_sort<int>(pool, reversed);
    EXPECT_EQ(reversed, (std::vector<int>{1, 2, 3, 4}));
}

TEST(ParallelSort, CustomComparator) {
    ThreadPool pool(2);
    std::vector<int> data{1, 5, 3};
    parallel_sort<int>(pool, data, std::greater<int>{});
    EXPECT_EQ(data, (std::vector<int>{5, 3, 1}));
}

TEST(ConcurrentQueue, FifoSingleThread) {
    ConcurrentQueue<int> queue;
    queue.push(1);
    queue.push(2);
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.try_pop().value(), 1);
    EXPECT_EQ(queue.pop().value(), 2);
    EXPECT_FALSE(queue.try_pop().has_value());
}

TEST(ConcurrentQueue, CloseWakesConsumers) {
    ConcurrentQueue<int> queue;
    std::thread consumer([&queue] {
        const auto v = queue.pop();
        EXPECT_FALSE(v.has_value());  // closed and drained
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.close();
    consumer.join();
    EXPECT_TRUE(queue.closed());
}

TEST(ConcurrentQueue, MpmcDeliversEveryElementExactlyOnce) {
    ConcurrentQueue<std::uint64_t> queue;
    constexpr int kProducers = 3;
    constexpr int kConsumers = 3;
    constexpr std::uint64_t kPerProducer = 20'000;

    std::atomic<std::uint64_t> consumed_sum{0};
    std::atomic<std::uint64_t> consumed_count{0};

    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
        consumers.emplace_back([&] {
            while (const auto v = queue.pop()) {
                consumed_sum.fetch_add(*v);
                consumed_count.fetch_add(1);
            }
        });
    }
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&queue, p] {
            for (std::uint64_t i = 0; i < kPerProducer; ++i)
                queue.push(static_cast<std::uint64_t>(p) * kPerProducer + i);
        });
    }
    for (auto& t : producers) t.join();
    queue.close();
    for (auto& t : consumers) t.join();

    constexpr std::uint64_t kTotal = kProducers * kPerProducer;
    EXPECT_EQ(consumed_count.load(), kTotal);
    EXPECT_EQ(consumed_sum.load(), kTotal * (kTotal - 1) / 2);
}

}  // namespace
}  // namespace dsspy::par
