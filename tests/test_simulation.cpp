// Tests for the virtual-time parallel-execution simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <utility>
#include <vector>

#include "parallel/simulation.hpp"

namespace dsspy::par {
namespace {

TEST(SimulatedSchedule, SingleWorkerEqualsTotalWork) {
    SimulatedSchedule schedule({100, 200, 300});
    EXPECT_EQ(schedule.total_work_ns(), 600u);
    EXPECT_EQ(schedule.makespan_ns(1), 600u);
    EXPECT_DOUBLE_EQ(schedule.region_speedup(1), 1.0);
}

TEST(SimulatedSchedule, UniformChunksScaleLinearly) {
    SimulatedSchedule schedule(std::vector<std::uint64_t>(8, 100));
    EXPECT_EQ(schedule.makespan_ns(2), 400u);
    EXPECT_EQ(schedule.makespan_ns(4), 200u);
    EXPECT_EQ(schedule.makespan_ns(8), 100u);
    // More workers than chunks cannot help further.
    EXPECT_EQ(schedule.makespan_ns(16), 100u);
    EXPECT_DOUBLE_EQ(schedule.region_speedup(8), 8.0);
}

TEST(SimulatedSchedule, ImbalanceTailBindsMakespan) {
    // One giant chunk dominates: no worker count beats it.
    SimulatedSchedule schedule({1000, 10, 10, 10});
    EXPECT_EQ(schedule.critical_chunk_ns(), 1000u);
    EXPECT_EQ(schedule.makespan_ns(4), 1000u);
    EXPECT_GE(schedule.makespan_ns(2), 1000u);
}

TEST(SimulatedSchedule, GreedyListSchedulingInSubmissionOrder) {
    // Chunks 50,50,80 on 2 workers: w1={50,80}=130, w2={50}=50 -> 130.
    SimulatedSchedule schedule({50, 50, 80});
    EXPECT_EQ(schedule.makespan_ns(2), 130u);
    // Chunks 80,50,50: w1={80}, w2={50,50} -> 100.
    SimulatedSchedule reordered({80, 50, 50});
    EXPECT_EQ(reordered.makespan_ns(2), 100u);
}

TEST(SimulatedSchedule, ZeroWorkersFallsBackToSequential) {
    SimulatedSchedule schedule({5, 5});
    EXPECT_EQ(schedule.makespan_ns(0), 10u);
}

TEST(SimulatedSchedule, EmptySchedule) {
    SimulatedSchedule schedule;
    EXPECT_EQ(schedule.total_work_ns(), 0u);
    EXPECT_EQ(schedule.makespan_ns(8), 0u);
    EXPECT_DOUBLE_EQ(schedule.region_speedup(8), 1.0);
}

TEST(SimulateChunks, ExecutesEveryIndexExactlyOnce) {
    std::vector<int> hits(1000, 0);
    const SimulatedSchedule schedule = simulate_chunks(
        0, hits.size(), 7, [&hits](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) ++hits[i];
        });
    for (const int h : hits) EXPECT_EQ(h, 1);
    EXPECT_EQ(schedule.chunk_count(), 7u);
}

TEST(SimulateChunks, ClampsChunkCount) {
    std::atomic<int> calls{0};
    const SimulatedSchedule schedule = simulate_chunks(
        0, 3, 100, [&calls](std::size_t, std::size_t) { ++calls; });
    EXPECT_EQ(schedule.chunk_count(), 3u);
    EXPECT_EQ(calls.load(), 3);

    const SimulatedSchedule empty = simulate_chunks(
        5, 5, 4, [](std::size_t, std::size_t) { FAIL(); });
    EXPECT_EQ(empty.chunk_count(), 0u);
}

TEST(RegionExecutors, SimulationReplaysThePoolsChunks) {
    // Sim@w must time the same decomposition a w-wide pool runs.
    using Chunks = std::vector<std::pair<std::size_t, std::size_t>>;
    for (const unsigned width : {1u, 4u}) {
        ThreadPool pool(width);
        for (const std::size_t n : {1u, 7u, 16u, 1000u, 120000u}) {
            std::mutex mutex;
            Chunks pooled;
            PoolExecutor on_pool(pool);
            on_pool(0, n, [&](std::size_t lo, std::size_t hi) {
                const std::scoped_lock lock(mutex);
                pooled.emplace_back(lo, hi);
            });
            std::sort(pooled.begin(), pooled.end());

            Chunks simulated;
            SimulationExecutor on_simulator(width);
            on_simulator(0, n, [&](std::size_t lo, std::size_t hi) {
                simulated.emplace_back(lo, hi);
            });
            EXPECT_EQ(simulated, pooled) << "n=" << n << " width=" << width;
        }
    }
}

TEST(RegionExecutors, SimulationSumsWorkAndMakespanOverRegions) {
    SimulationExecutor regions(4);
    EXPECT_EQ(regions.work_ns(), 0u);
    EXPECT_EQ(regions.span_ns(), 0u);
    std::vector<int> hits(1000, 0);
    for (int region = 0; region < 3; ++region) {
        regions(0, hits.size(), [&hits](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) ++hits[i];
        });
    }
    for (const int h : hits) EXPECT_EQ(h, 3);
    EXPECT_GT(regions.work_ns(), 0u);
    EXPECT_LE(regions.span_ns(), regions.work_ns());
}

TEST(SimulatedProgramSpeedup, AmdahlLimitWithSequentialRemainder) {
    // 900 units of perfectly parallel work + 100 sequential remainder.
    SimulatedSchedule schedule(std::vector<std::uint64_t>(9, 100));
    const double at9 = simulated_program_speedup(100, schedule, 9);
    EXPECT_NEAR(at9, 1000.0 / 200.0, 1e-9);
    const double at1 = simulated_program_speedup(100, schedule, 1);
    EXPECT_NEAR(at1, 1.0, 1e-9);
}

}  // namespace
}  // namespace dsspy::par
