#include "apps/algorithmia.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "ds/ds.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace dsspy::apps {

namespace {

using support::Rng;
using support::SourceLoc;
using support::Stopwatch;

constexpr std::size_t kPriorityElements = 120'000;
constexpr std::size_t kPrioritySweeps = 30;
constexpr std::size_t kHeavyInitElements = 200'000;

/// CPU-heavy deterministic value (stands in for the random-value
/// construction of the paper's initialization test).
double heavy_value(std::uint64_t seed) {
    std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + 1;
    for (int round = 0; round < 24; ++round) {
        x ^= x >> 27;
        x *= 0x3C79AC492BA7B653ULL;
        x ^= x >> 33;
    }
    return static_cast<double>(x >> 11) * 0x1.0p-53;
}

SourceLoc loc(const char* method, std::uint32_t position) {
    return SourceLoc{"Algorithmia.Tests", method, position};
}

/// The 14 auxiliary unit tests shared verbatim by the sequential and the
/// parallel variant (the recommendations do not touch them).
double run_auxiliary_tests(runtime::ProfilingSession* session, Rng& rng) {
    double checksum = 0.0;

    // Test 3/4: two small list initializations.  These trip the
    // Long-Insert rule but are too cheap for parallelization to pay off —
    // the paper's two false positives ("initializations without speedup").
    for (int t = 0; t < 2; ++t) {
        ds::ProfiledList<std::int64_t> init_list(
            session, loc("SmallInitTest", 10 + static_cast<std::uint32_t>(t)));
        for (std::size_t i = 0; i < 3000; ++i)
            init_list.add(static_cast<std::int64_t>(rng.next_below(100000)));
        checksum += static_cast<double>(init_list.get(init_list.count() / 2));
    }

    // Test 5: sorting (insert phase kept below the Long-Insert threshold).
    {
        ds::ProfiledList<std::int64_t> sort_list(session, loc("SortTest", 20));
        for (std::size_t i = 0; i < 80; ++i)
            sort_list.add(static_cast<std::int64_t>(rng.next_below(10000)));
        sort_list.sort();
        checksum += static_cast<double>(sort_list.get(0)) +
                    static_cast<double>(sort_list.get(sort_list.count() - 1));
    }

    // Test 6: hand-rolled binary search on a sorted list.
    {
        ds::ProfiledList<std::int64_t> bs_list(session, loc("BinarySearchTest", 30));
        for (std::size_t i = 0; i < 90; ++i)
            bs_list.add(static_cast<std::int64_t>(i) * 7);
        for (int q = 0; q < 40; ++q) {
            const std::int64_t needle =
                static_cast<std::int64_t>(rng.next_below(90)) * 7;
            std::size_t lo = 0;
            std::size_t hi = bs_list.count();
            while (lo < hi) {
                const std::size_t mid = lo + (hi - lo) / 2;
                if (bs_list.get(mid) < needle) {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            checksum += static_cast<double>(lo);
        }
    }

    // Test 7: reversal.
    {
        ds::ProfiledList<std::int64_t> rev_list(session, loc("ReverseTest", 40));
        for (std::size_t i = 0; i < 60; ++i)
            rev_list.add(static_cast<std::int64_t>(i * i));
        rev_list.reverse();
        checksum += static_cast<double>(rev_list.get(0));
    }

    // Test 8: a list used as a stack (the Stack-Implementation use case).
    {
        ds::ProfiledList<std::int64_t> stack_list(session, loc("StackTest", 50));
        for (int round = 0; round < 30; ++round) {
            stack_list.add(static_cast<std::int64_t>(rng.next_below(100)));
            stack_list.add(static_cast<std::int64_t>(rng.next_below(100)));
            checksum += static_cast<double>(
                stack_list.get(stack_list.count() - 1));
            stack_list.remove_at(stack_list.count() - 1);
        }
        while (stack_list.count() > 0)
            stack_list.remove_at(stack_list.count() - 1);
    }

    // Tests 9/10: merge of two sorted lists (output kept short).
    {
        ds::ProfiledList<std::int64_t> left(session, loc("MergeTest", 60));
        ds::ProfiledList<std::int64_t> right(session, loc("MergeTest", 61));
        for (std::size_t i = 0; i < 45; ++i) {
            left.add(static_cast<std::int64_t>(i) * 2);
            right.add(static_cast<std::int64_t>(i) * 2 + 1);
        }
        std::size_t li = 0;
        std::size_t ri = 0;
        std::int64_t last = 0;
        while (li < left.count() && ri < right.count()) {
            if (left.get(li) <= right.get(ri)) {
                last = left.get(li++);
            } else {
                last = right.get(ri++);
            }
        }
        checksum += static_cast<double>(last);
    }

    // Test 11: Fibonacci memoization on a fixed-size array.
    {
        ds::ProfiledArray<std::int64_t> memo(session, loc("FibTest", 70), 40);
        memo.set(0, 0);
        memo.set(1, 1);
        for (std::size_t i = 2; i < 40; ++i)
            memo.set(i, memo.get(i - 1) + memo.get(i - 2));
        checksum += static_cast<double>(memo.get(39) % 1000003);
    }

    // Test 12: matrix row sums on a flattened array.
    {
        ds::ProfiledArray<double> row(session, loc("MatrixRowTest", 80), 64);
        for (std::size_t i = 0; i < 64; ++i)
            row.set(i, rng.next_double());
        double sum = 0.0;
        std::size_t pos = 0;
        for (int i = 0; i < 32; ++i) {
            sum += row.get(pos);
            pos = (pos + 7) % 64;
        }
        checksum += sum;
    }

    // Test 13: histogram with data-dependent write positions.
    {
        ds::ProfiledArray<std::int64_t> hist(session, loc("HistogramTest", 90), 32);
        for (int i = 0; i < 200; ++i) {
            const std::size_t bucket = rng.next_below(32);
            hist.set(bucket, hist.get(bucket) + 1);
        }
        checksum += static_cast<double>(hist.get(0) + hist.get(31));
    }

    // Test 14: string list with membership queries.
    {
        ds::ProfiledList<std::string> words(session, loc("StringTest", 100));
        for (int i = 0; i < 50; ++i)
            words.add("word" + std::to_string(rng.next_below(80)));
        int hits = 0;
        for (int i = 0; i < 20; ++i)
            if (words.contains("word" + std::to_string(i))) ++hits;
        checksum += hits;
    }

    // Test 15: repeated median removal.
    {
        ds::ProfiledList<std::int64_t> med(session, loc("MedianTest", 110));
        for (std::size_t i = 0; i < 70; ++i)
            med.add(static_cast<std::int64_t>(rng.next_below(1000)));
        for (int i = 0; i < 20; ++i) {
            checksum += static_cast<double>(med.get(med.count() / 2));
            med.remove_at(med.count() / 2);
        }
    }

    // Test 16: running sum over a short list.
    {
        ds::ProfiledList<std::int64_t> run(session, loc("RunningSumTest", 120));
        for (std::size_t i = 0; i < 60; ++i)
            run.add(static_cast<std::int64_t>(rng.next_below(500)));
        double sum = 0.0;
        for (std::size_t i = 0; i < run.count(); ++i)
            sum += static_cast<double>(run.get(i));
        checksum += sum;
    }

    // Extra non-list containers (outside the list/array search space).
    {
        ds::ProfiledQueue<std::int64_t> jobs(session, loc("QueueTest", 130));
        for (int i = 0; i < 40; ++i) jobs.enqueue(i);
        while (!jobs.empty()) checksum += 0.001 * static_cast<double>(jobs.dequeue());

        ds::ProfiledDictionary<std::int64_t, std::int64_t> cache(
            session, loc("DictionaryTest", 140));
        for (int i = 0; i < 30; ++i) cache.set(i, i * i);
        std::int64_t v = 0;
        if (cache.try_get(17, v)) checksum += static_cast<double>(v);
    }

    return checksum;
}

}  // namespace

RunResult run_algorithmia(runtime::ProfilingSession* session) {
    RunResult result;
    Stopwatch total;
    Rng rng(2014);
    std::uint64_t parallelizable = 0;

    // Test 1: priority queue on a list — every extract-max is a full
    // sequential scan (Frequent-Long-Read).
    {
        ds::ProfiledList<double> queue(session, loc("PriorityQueueTest", 1),
                                       kPriorityElements);
        for (std::size_t i = 0; i < kPriorityElements; ++i)
            queue.add(heavy_value(i));

        Stopwatch region;
        for (std::size_t sweep = 0; sweep < kPrioritySweeps; ++sweep) {
            std::size_t best = 0;
            double best_value = queue.get(0);
            for (std::size_t i = 1; i < queue.count(); ++i) {
                const double value = queue.get(i);
                if (best_value < value) {
                    best_value = value;
                    best = i;
                }
            }
            result.checksum += best_value;
            queue.set(best, -1.0);  // consume the highest-priority element
        }
        parallelizable += region.elapsed_ns();
    }

    // Test 2: list initialization with (expensive) random values — the
    // Long-Insert location the paper parallelized for a 1.35x speedup.
    {
        ds::ProfiledList<double> values(session, loc("RandomInitTest", 2),
                                        kHeavyInitElements);
        Stopwatch region;
        for (std::size_t i = 0; i < kHeavyInitElements; ++i)
            values.add(heavy_value(0xABCD0000 + i));
        parallelizable += region.elapsed_ns();
        result.checksum += values.get(0) + values.get(values.count() - 1);
    }

    result.checksum += run_auxiliary_tests(session, rng);
    result.total_ns = total.elapsed_ns();
    result.parallelizable_ns = parallelizable;
    return result;
}

namespace {

/// Tests 1 and 2 with the recommendations applied, then the unchanged
/// auxiliary tests; `regions` runs the parallel regions.
template <typename Regions>
RunResult parallel_program(Regions& regions) {
    RunResult result;
    Stopwatch total;
    Rng rng(2014);

    // Test 1: parallel max-search — a local max per chunk, merged under a
    // lock, ties broken toward the lower index as in the sequential scan.
    {
        ds::List<double> queue(kPriorityElements);
        for (std::size_t i = 0; i < kPriorityElements; ++i)
            queue.add(heavy_value(i));
        const double* data = queue.data();
        for (std::size_t sweep = 0; sweep < kPrioritySweeps; ++sweep) {
            std::mutex merge_mutex;
            std::optional<std::size_t> best;
            regions(0, queue.count(), [&](std::size_t lo, std::size_t hi) {
                std::size_t local = lo;
                for (std::size_t i = lo + 1; i < hi; ++i)
                    if (data[local] < data[i]) local = i;
                std::scoped_lock lock(merge_mutex);
                if (!best || data[*best] < data[local] ||
                    (!(data[local] < data[*best]) && local < *best)) {
                    best = local;
                }
            });
            result.checksum += queue[*best];
            queue.set(*best, -1.0);
        }
    }

    // Test 2: parallel build — elements land directly at their index.
    {
        ds::List<double> values(kHeavyInitElements);
        double* dest = values.data();
        regions(0, kHeavyInitElements, [dest](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                std::construct_at(dest + i, heavy_value(0xABCD0000 + i));
        });
        values.set_count_after_parallel_build(kHeavyInitElements);
        result.checksum += values[0] + values[values.count() - 1];
    }

    result.checksum += run_auxiliary_tests(nullptr, rng);
    result.total_ns = total.elapsed_ns();
    return result;
}

}  // namespace

RunResult run_algorithmia_parallel(par::ThreadPool& pool) {
    return run_on_pool(pool, parallel_program<par::PoolExecutor>);
}

SimulatedRunResult run_algorithmia_simulated(unsigned workers) {
    return run_on_simulator(workers, parallel_program<par::SimulationExecutor>);
}

}  // namespace dsspy::apps
