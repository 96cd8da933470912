// Virtual-time simulation of parallel execution on a P-worker machine.
//
// This host may have fewer cores than the paper's 8-core testbed.  Rather
// than projecting speedups with plain Amdahl (which ignores load
// imbalance), this component executes a chunked parallel region
// *sequentially*, measures each chunk, and replays the chunk durations
// through a greedy list scheduler with P virtual workers — the same
// earliest-available-worker policy a dynamic thread pool implements.  The
// resulting makespan is the region's wall-clock on the simulated machine,
// including the imbalance tail (e.g. Mandelbrot's expensive interior
// rows), without any oversubscription noise.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "support/stopwatch.hpp"

namespace dsspy::par {

/// Measured chunk durations of one parallel region.
class SimulatedSchedule {
public:
    SimulatedSchedule() = default;
    explicit SimulatedSchedule(std::vector<std::uint64_t> chunk_ns)
        : chunk_ns_(std::move(chunk_ns)) {}

    void record_chunk(std::uint64_t ns) { chunk_ns_.push_back(ns); }

    [[nodiscard]] std::size_t chunk_count() const noexcept {
        return chunk_ns_.size();
    }

    [[nodiscard]] const std::vector<std::uint64_t>& chunks() const noexcept {
        return chunk_ns_;
    }

    /// Total sequential work (sum of all chunks).
    [[nodiscard]] std::uint64_t total_work_ns() const noexcept {
        std::uint64_t sum = 0;
        for (const std::uint64_t ns : chunk_ns_) sum += ns;
        return sum;
    }

    /// Longest single chunk — the lower bound no worker count can beat.
    [[nodiscard]] std::uint64_t critical_chunk_ns() const noexcept {
        std::uint64_t best = 0;
        for (const std::uint64_t ns : chunk_ns_) best = std::max(best, ns);
        return best;
    }

    /// Wall-clock of the region on `workers` virtual workers under greedy
    /// list scheduling in submission order (what a work queue does).
    [[nodiscard]] std::uint64_t makespan_ns(unsigned workers) const {
        if (workers == 0) return total_work_ns();
        std::vector<std::uint64_t> free_at(workers, 0);
        for (const std::uint64_t ns : chunk_ns_) {
            auto earliest =
                std::min_element(free_at.begin(), free_at.end());
            *earliest += ns;
        }
        std::uint64_t makespan = 0;
        for (const std::uint64_t t : free_at)
            makespan = std::max(makespan, t);
        return makespan;
    }

    /// Region-level speedup at `workers` (total work / makespan).
    [[nodiscard]] double region_speedup(unsigned workers) const {
        const std::uint64_t span = makespan_ns(workers);
        if (span == 0) return 1.0;
        return static_cast<double>(total_work_ns()) /
               static_cast<double>(span);
    }

private:
    std::vector<std::uint64_t> chunk_ns_;
};

/// Execute `body(lo, hi)` sequentially over the chunk_plan of at most
/// `chunks` contiguous slices of [begin, end), timing each slice (with
/// `chunks` = workers * 4 these are parallel_for_chunks' boundaries on a
/// `workers`-wide pool).  Functionally identical to running the region (all
/// side effects happen); the returned schedule replays it on any virtual
/// machine size.
template <typename Body>
[[nodiscard]] SimulatedSchedule simulate_chunks(std::size_t begin,
                                                std::size_t end,
                                                std::size_t chunks,
                                                Body body) {
    SimulatedSchedule schedule;
    if (begin >= end) return schedule;
    const ChunkPlan plan = chunk_plan(end - begin, chunks);
    for (std::size_t lo = begin; lo < end; lo += plan.size) {
        const std::size_t hi = std::min(end, lo + plan.size);
        support::Stopwatch sw;
        body(lo, hi);
        schedule.record_chunk(sw.elapsed_ns());
    }
    return schedule;
}

// Region executors.  An app's parallel program is written once against
// `regions(begin, end, body)`, which runs `body(lo, hi)` over the chunks of
// one parallel region; the executor decides how (apps/app_registry.hpp).

/// Runs each region on a pool with parallel_for_chunks (measured@N).
class PoolExecutor {
public:
    explicit PoolExecutor(ThreadPool& pool) noexcept : pool_(pool) {}

    template <typename Body>
    void operator()(std::size_t begin, std::size_t end, Body body) {
        parallel_for_chunks(pool_, begin, end, std::move(body));
    }

private:
    ThreadPool& pool_;
};

/// Runs each region through simulate_chunks with the chunks a `workers`-wide
/// pool would use, and sums the regions' work and makespan (Sim@N).
class SimulationExecutor {
public:
    explicit SimulationExecutor(unsigned workers) noexcept
        : workers_(workers) {}

    template <typename Body>
    void operator()(std::size_t begin, std::size_t end, Body body) {
        const SimulatedSchedule schedule = simulate_chunks(
            begin, end, std::size_t{workers_} * 4, std::move(body));
        work_ns_ += schedule.total_work_ns();
        span_ns_ += schedule.makespan_ns(workers_);
    }

    /// Summed chunk time of every region so far (the makespan on one worker).
    [[nodiscard]] std::uint64_t work_ns() const noexcept { return work_ns_; }

    /// Summed makespan of every region so far on the virtual workers.
    [[nodiscard]] std::uint64_t span_ns() const noexcept { return span_ns_; }

private:
    unsigned workers_;
    std::uint64_t work_ns_ = 0;
    std::uint64_t span_ns_ = 0;
};

/// Whole-program speedup on a simulated `workers`-core machine: the
/// sequential remainder runs as-is, the region shrinks to its makespan.
[[nodiscard]] inline double simulated_program_speedup(
    std::uint64_t sequential_remainder_ns, const SimulatedSchedule& schedule,
    unsigned workers) {
    const std::uint64_t before =
        sequential_remainder_ns + schedule.total_work_ns();
    const std::uint64_t after =
        sequential_remainder_ns + schedule.makespan_ns(workers);
    if (after == 0) return 1.0;
    return static_cast<double>(before) / static_cast<double>(after);
}

}  // namespace dsspy::par
