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
/// `chunks` = workers * 4 these are parallel_for_chunks' boundaries).  Functionally identical to running the
/// region (all side effects happen); the returned schedule replays it on
/// any virtual machine size.
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
