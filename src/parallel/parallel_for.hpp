// Blocking data-parallel loops over index ranges.
//
// parallel_for_chunks is the one fork-join primitive of the parallel
// runtime (DESIGN.md §17).  A region splits [begin, end) into at most
// thread_count() * 4 contiguous chunks (chunk_plan, the decomposition
// simulate_chunks replays) and runs them as follows:
//   * the calling thread claims chunks from one shared atomic counter and
//     runs them itself; it returns as soon as every chunk has completed,
//     never waiting for a helper that has not claimed one;
//   * helpers wake on demand: the caller submits one pool task, and each
//     helper whose first claim leaves chunks unclaimed submits the next, up
//     to the pool width — one submission per helper, none per chunk;
//   * a helper that runs after the region returned touches only the
//     region's reference-counted block, never the caller's `body`;
//   * the first exception `body` throws, on any thread, cancels the
//     unclaimed chunks and is rethrown on the caller once every claimed
//     chunk has finished.
// There is no grain-size knob.  The runtime measures how long a woken
// helper takes to start and what one index of each call site costs; a
// region the caller is predicted to finish before a helper could start
// runs on the caller, chunk by chunk, without waking one — except that a
// site forks at least once every kReprobeRegions regions, so the wake
// estimate is re-measured and cannot latch a site inline.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "parallel/thread_pool.hpp"

namespace dsspy::par {

/// How a region of `n` indices splits into contiguous chunks.
struct ChunkPlan {
    std::size_t count = 0;  ///< Non-empty chunks.
    std::size_t size = 0;   ///< Indices per chunk; the last may be shorter.
};

/// Split `n` indices into at most `max_chunks` chunks of equal size (the
/// last may be shorter).  `n == 0` yields no chunks.
[[nodiscard]] constexpr ChunkPlan chunk_plan(std::size_t n,
                                             std::size_t max_chunks) noexcept {
    if (n == 0) return {};
    const std::size_t chunks = std::clamp<std::size_t>(max_chunks, 1, n);
    const std::size_t size = (n + chunks - 1) / chunks;
    return {(n + size - 1) / size, size};
}

/// The plan parallel_for_chunks uses for `n` indices on `pool`: chunk
/// `(i - begin) / size` holds index i.
[[nodiscard]] inline ChunkPlan chunk_plan(const ThreadPool& pool,
                                          std::size_t n) noexcept {
    return chunk_plan(n, std::size_t{pool.thread_count()} * 4);
}

namespace detail {

using ChunkFn = void (*)(void* body, std::size_t lo, std::size_t hi);

/// Measured cost per index of one call site (one `Body` type) of
/// parallel_for_chunks, in picoseconds; 0 until first measured.
struct SiteCost {
    std::atomic<std::uint64_t> ps_per_index{0};
    /// Regions of this site run inline in a row (see run_inline).
    std::atomic<std::uint32_t> inline_streak{0};
};

/// A site forks at least once every this many regions, even when the wake
/// estimate says the caller would finish first: the forked region's
/// helper re-measures the wake latency, so one slow wake (a starved phase
/// of a shared host) cannot leave a long-lived process inline for good.
inline constexpr std::uint32_t kReprobeRegions = 16;

/// Ceiling on the first wake-latency sample; later samples are capped at
/// twice the running mean.
inline constexpr std::uint64_t kFirstWakeCapNs = 250'000;

/// True when the next region of `n` indices at `site` should run on the
/// caller alone: the caller is predicted to finish before a woken helper
/// would start, and the site is not due for its re-probe.
[[nodiscard]] bool run_inline(SiteCost& site, std::size_t n) noexcept;

/// Feed one helper wake-latency sample into the process-wide estimate.
void record_wake(std::uint64_t ns) noexcept;

/// The process-wide helper wake-latency estimate; 0 before any sample.
[[nodiscard]] std::uint64_t wake_estimate_ns() noexcept;

/// Run `fn(body, lo, hi)` over every chunk of `plan` laid from `begin` to
/// `end`, with the calling thread participating (see the header comment).
void fork_join(ThreadPool& pool, std::size_t begin, std::size_t end,
               ChunkPlan plan, ChunkFn fn, void* body, SiteCost& site);

}  // namespace detail

/// Invoke `body(begin, end)` over contiguous chunks of [begin, end) on the
/// calling thread and the pool; blocks until all chunks are done.  `body`
/// must be safe to run concurrently on disjoint ranges.
template <typename Body>
void parallel_for_chunks(ThreadPool& pool, std::size_t begin, std::size_t end,
                         Body body) {
    if (begin >= end) return;
    const ChunkPlan plan = chunk_plan(pool, end - begin);
    if (plan.count <= 1) {
        body(begin, end);
        return;
    }
    static detail::SiteCost site;
    detail::fork_join(
        pool, begin, end, plan,
        [](void* b, std::size_t lo, std::size_t hi) {
            (*static_cast<Body*>(b))(lo, hi);
        },
        &body, site);
}

/// Invoke `body(i)` for every i in [begin, end) in parallel.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  Body body) {
    parallel_for_chunks(pool, begin, end,
                        [&body](std::size_t lo, std::size_t hi) {
                            for (std::size_t i = lo; i < hi; ++i) body(i);
                        });
}

/// Convenience overloads on the default pool.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, Body body) {
    parallel_for(ThreadPool::default_pool(), begin, end, std::move(body));
}

template <typename Body>
void parallel_for_chunks(std::size_t begin, std::size_t end, Body body) {
    parallel_for_chunks(ThreadPool::default_pool(), begin, end,
                        std::move(body));
}

}  // namespace dsspy::par
