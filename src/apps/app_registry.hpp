// Registry of the seven evaluation programs (Table IV).
//
// Each app is a faithful C++ mini-implementation of the corresponding
// program from the paper's evaluation benchmark, built on the profiled
// containers so DSspy can analyze it end to end:
//
//   Algorithmia      — data-structures & algorithms library (16 "unit tests")
//   AstroGrep        — file search over a text corpus
//   Contentfinder    — keyword search in files
//   CPU Benchmarks   — Linpack + Whetstone
//   GPdotNET         — genetic-programming engine for time series
//   Mandelbrot       — fractal renderer
//   WordWheelSolver  — 9-letter word-wheel puzzle solver
//
// Every app is written twice: the sequential reference program, and one
// parallel program run under two region executors (parallel/simulation.hpp).
//   * run_sequential(session) — the original sequential program; when
//     `session` is non-null every container is instrumented (that is how
//     Table IV's slowdown column is measured: same code, null vs live
//     session).  Returns a checksum plus the time spent in the regions the
//     DSspy recommendations target (for Table VI's runtime fractions).
//   * run_parallel(pool) — the recommended actions applied (parallel
//     insert / parallel search / parallel queue ...), each region run on
//     `pool`.  Returns the same checksum so tests can verify equivalence.
//   * run_simulated(workers) — the same program with every region's chunks
//     measured sequentially and replayed on `workers` virtual cores.
//     `total_ns` is the projected wall-clock on that machine — how the
//     paper's 8-core testbed is simulated on smaller hosts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "parallel/simulation.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/session.hpp"

namespace dsspy::apps {

/// Outcome of one app run.
struct RunResult {
    double checksum = 0.0;          ///< Workload result (equality-checked).
    std::uint64_t total_ns = 0;     ///< Wall-clock of the whole run.
    std::uint64_t parallelizable_ns = 0;  ///< Time in recommendation targets.

    [[nodiscard]] double sequential_fraction() const noexcept {
        if (total_ns == 0) return 0.0;
        const std::uint64_t seq = total_ns - parallelizable_ns;
        return static_cast<double>(seq) / static_cast<double>(total_ns);
    }
};

/// Outcome of run_simulated: `parallelizable_ns` is the recommendation
/// regions' makespan on the virtual workers, `region_work_ns` their summed
/// chunk time (the makespan on one worker), both from the same run.
struct SimulatedRunResult : RunResult {
    std::uint64_t region_work_ns = 0;
};

/// run_parallel for an app whose parallel program is `program(regions)`.
template <typename Program>
RunResult run_on_pool(par::ThreadPool& pool, Program program) {
    par::PoolExecutor regions(pool);
    return program(regions);
}

/// run_simulated for the same program: every region shrinks from its
/// measured work to its makespan on `workers` virtual cores.
template <typename Program>
SimulatedRunResult run_on_simulator(unsigned workers, Program program) {
    par::SimulationExecutor regions(workers);
    const RunResult run = program(regions);
    SimulatedRunResult result;
    result.checksum = run.checksum;
    result.total_ns = run.total_ns - regions.work_ns() + regions.span_ns();
    result.parallelizable_ns = regions.span_ns();
    result.region_work_ns = regions.work_ns();
    return result;
}

/// Registry entry: metadata from Table IV plus the three run hooks.
struct AppInfo {
    std::string name;
    std::string domain;
    std::size_t paper_loc = 0;          ///< Table IV "Source Code LOC".
    double paper_runtime_s = 0.0;       ///< Table IV "Runtime".
    std::size_t paper_instances = 0;    ///< Table IV "Data Structures".
    std::size_t paper_flagged = 0;      ///< Instances in the result set.
    std::size_t paper_detected = 0;     ///< Detected use cases.
    std::size_t paper_true_positives = 0;  ///< Table IV "Use Cases" (x of y).
    double paper_reduction = 0.0;       ///< Table IV search-space reduction.
    double paper_speedup = 0.0;         ///< Table IV total speedup.

    RunResult (*run_sequential)(runtime::ProfilingSession*) = nullptr;
    RunResult (*run_parallel)(par::ThreadPool&) = nullptr;
    SimulatedRunResult (*run_simulated)(unsigned workers) = nullptr;
};

/// All seven evaluation apps, in Table IV row order.
[[nodiscard]] const std::vector<AppInfo>& evaluation_apps();

/// Lookup by name; nullptr when unknown.
[[nodiscard]] const AppInfo* find_app(std::string_view name);

}  // namespace dsspy::apps
