// Parallel data-structure operations — the recommended actions as code.
//
// Each of the paper's five parallel use cases comes with a recommended
// action; this header is the library form of those actions:
//   * Long-Insert          -> parallel_build / parallel_append
//   * Frequent-Search      -> parallel_index_of (chunked search)
//   * Frequent-Long-Read   -> parallel_reduce / parallel_min_index
//   * Sort-After-Insert    -> parallel_sort (+ parallel_build)
//   * Implement-Queue      -> ConcurrentQueue (concurrent_queue.hpp)
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "ds/detail/sort.hpp"
#include "ds/list.hpp"
#include "parallel/parallel_for.hpp"

namespace dsspy::par {

// ---------------------------------------------------------------------------
// Long-Insert: "Parallelize the insert operation."
// ---------------------------------------------------------------------------

/// Build a list of `n` elements where element i is `make(i)`, computing the
/// elements in parallel and appending them in index order.  Replaces a
/// sequential `for (i) list.add(make(i))` loop when `make` dominates.
template <typename T, typename Make>
[[nodiscard]] ds::List<T> parallel_build(ThreadPool& pool, std::size_t n,
                                         Make make) {
    ds::List<T> out(n);
    T* dest = out.data();
    // Elements land directly at their final index; disjoint ranges per task.
    parallel_for_chunks(pool, 0, n, [dest, &make](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            std::construct_at(dest + i, make(i));
    });
    out.set_count_after_parallel_build(n);
    return out;
}

/// Append `n` generated elements to an existing list in parallel.
template <typename T, typename Make>
void parallel_append(ThreadPool& pool, ds::List<T>& list, std::size_t n,
                     Make make) {
    const std::size_t base = list.count();
    list.reserve(base + n);
    T* dest = list.data();
    parallel_for_chunks(pool, 0, n,
                        [dest, base, &make](std::size_t lo, std::size_t hi) {
                            for (std::size_t i = lo; i < hi; ++i)
                                std::construct_at(dest + base + i, make(i));
                        });
    list.set_count_after_parallel_build(base + n);
}

// ---------------------------------------------------------------------------
// Frequent-Search: "split the list into smaller chunks and search them in
// parallel."
// ---------------------------------------------------------------------------

/// Parallel first-index-of: chunked scan with early exit.  Returns the
/// smallest index whose element satisfies `pred`, or -1.
template <typename T, typename Pred>
[[nodiscard]] std::ptrdiff_t parallel_find_index(ThreadPool& pool,
                                                 std::span<const T> data,
                                                 Pred pred) {
    std::atomic<std::size_t> best{std::numeric_limits<std::size_t>::max()};
    parallel_for_chunks(pool, 0, data.size(),
                        [&](std::size_t lo, std::size_t hi) {
        // Skip chunks entirely above an already-found hit.
        if (lo >= best.load(std::memory_order_relaxed)) return;
        for (std::size_t i = lo; i < hi; ++i) {
            if (i >= best.load(std::memory_order_relaxed)) return;
            if (pred(data[i])) {
                std::size_t cur = best.load(std::memory_order_relaxed);
                while (i < cur && !best.compare_exchange_weak(
                                      cur, i, std::memory_order_relaxed)) {
                }
                return;
            }
        }
    });
    const std::size_t found = best.load(std::memory_order_relaxed);
    return found == std::numeric_limits<std::size_t>::max()
               ? -1
               : static_cast<std::ptrdiff_t>(found);
}

/// Parallel IndexOf for a concrete value.
template <typename T>
[[nodiscard]] std::ptrdiff_t parallel_index_of(ThreadPool& pool,
                                               std::span<const T> data,
                                               const T& value) {
    return parallel_find_index(pool, data,
                               [&value](const T& x) { return x == value; });
}

// ---------------------------------------------------------------------------
// Frequent-Long-Read: "transform this operation into a parallel search
// operation" — parallel reductions over the whole structure.
// ---------------------------------------------------------------------------

/// Parallel reduction: combine(map(e0), map(e1), ...) with `identity` as
/// the neutral element.  `combine` must be associative.  Each chunk folds
/// its range into its own slot and the slots combine in chunk order, so the
/// result depends only on the pool width, never on which chunk finishes
/// first (floating-point sums are bit-identical from call to call).
template <typename T, typename R, typename Map, typename Combine>
[[nodiscard]] R parallel_reduce(ThreadPool& pool, std::span<const T> data,
                                R identity, Map map, Combine combine) {
    const ChunkPlan plan = chunk_plan(pool, data.size());
    std::vector<R> partial(plan.count, identity);
    parallel_for_chunks(pool, 0, data.size(),
                        [&](std::size_t lo, std::size_t hi) {
        R acc = identity;
        for (std::size_t i = lo; i < hi; ++i) acc = combine(acc, map(data[i]));
        partial[lo / plan.size] = acc;
    });
    R out = identity;
    for (const R& p : partial) out = combine(out, p);
    return out;
}

/// Index of the maximum element under `less` (priority-queue extraction —
/// the Algorithmia use case the paper parallelized for a 2.30x speedup).
template <typename T, typename Less = std::less<T>>
[[nodiscard]] std::ptrdiff_t parallel_max_index(ThreadPool& pool,
                                                std::span<const T> data,
                                                Less less = {}) {
    if (data.empty()) return -1;
    std::mutex merge_mutex;
    std::optional<std::size_t> best;
    parallel_for_chunks(pool, 0, data.size(),
                        [&](std::size_t lo, std::size_t hi) {
        std::size_t local = lo;
        for (std::size_t i = lo + 1; i < hi; ++i)
            if (less(data[local], data[i])) local = i;
        // Prefer the larger element; break ties toward the lower index so
        // the result matches the sequential scan.
        std::scoped_lock lock(merge_mutex);
        if (!best || less(data[*best], data[local]) ||
            (!less(data[local], data[*best]) && local < *best)) {
            best = local;
        }
    });
    return static_cast<std::ptrdiff_t>(*best);
}

// ---------------------------------------------------------------------------
// Sort-After-Insert: "Parallelize both insert and search phases."
// ---------------------------------------------------------------------------

/// Parallel merge sort: chunk-sort on the pool, then pairwise merges.
template <typename T, typename Less = std::less<T>>
void parallel_sort(ThreadPool& pool, std::span<T> data, Less less = {}) {
    const std::size_t n = data.size();
    if (n < 2) return;
    std::size_t chunks = pool.thread_count();
    if (chunks < 2) chunks = 2;
    if (chunks > n / 1024 + 1) chunks = n / 1024 + 1;  // avoid tiny chunks
    const std::size_t chunk_size = (n + chunks - 1) / chunks;

    std::vector<std::pair<std::size_t, std::size_t>> runs;
    for (std::size_t lo = 0; lo < n; lo += chunk_size)
        runs.emplace_back(lo, std::min(n, lo + chunk_size));

    // Sort each run in parallel.
    parallel_for(pool, 0, runs.size(), [&](std::size_t r) {
        dsspy::ds::detail::introsort(data.data() + runs[r].first,
                                     data.data() + runs[r].second, less);
    });

    // Pairwise merge rounds (log(chunks) rounds), merging into a scratch
    // buffer and swapping roles each round.
    std::vector<T> scratch(data.begin(), data.end());
    T* src = data.data();
    T* dst = scratch.data();
    while (runs.size() > 1) {
        std::vector<std::pair<std::size_t, std::size_t>> next_runs;
        const std::size_t pairs = runs.size() / 2;
        for (std::size_t p = 0; p < pairs; ++p)
            next_runs.emplace_back(runs[2 * p].first, runs[2 * p + 1].second);
        if (runs.size() % 2 == 1) {
            const auto [lo, hi] = runs.back();
            for (std::size_t i = lo; i < hi; ++i) dst[i] = std::move(src[i]);
            next_runs.push_back(runs.back());
        }
        parallel_for(pool, 0, pairs, [&](std::size_t p) {
            const auto [alo, ahi] = runs[2 * p];
            const auto [blo, bhi] = runs[2 * p + 1];
            std::size_t i = alo;
            std::size_t j = blo;
            std::size_t o = alo;
            while (i < ahi && j < bhi)
                dst[o++] = less(src[j], src[i]) ? std::move(src[j++])
                                                : std::move(src[i++]);
            while (i < ahi) dst[o++] = std::move(src[i++]);
            while (j < bhi) dst[o++] = std::move(src[j++]);
        });
        runs = std::move(next_runs);
        std::swap(src, dst);
    }
    if (src != data.data()) {
        for (std::size_t i = 0; i < n; ++i) data[i] = std::move(src[i]);
    }
}

/// Default-pool conveniences.
template <typename T, typename Pred>
[[nodiscard]] std::ptrdiff_t parallel_find_index(std::span<const T> data,
                                                 Pred pred) {
    return parallel_find_index(ThreadPool::default_pool(), data,
                               std::move(pred));
}

template <typename T, typename Less = std::less<T>>
void parallel_sort(std::span<T> data, Less less = {}) {
    parallel_sort(ThreadPool::default_pool(), data, less);
}

}  // namespace dsspy::par
