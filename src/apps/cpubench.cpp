#include "apps/cpubench.hpp"

#include <cmath>
#include <cstdint>

#include "ds/ds.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace dsspy::apps {

namespace {

using support::SourceLoc;
using support::Stopwatch;

constexpr std::size_t kN = 100;          // Linpack matrix order
constexpr int kWhetstoneCycles = 140;    // Whetstone outer iterations

SourceLoc loc(const char* method, std::uint32_t position) {
    return SourceLoc{"CpuBenchmarks.Suite", method, position};
}

double matgen_value(std::size_t i, std::size_t j) {
    // Deterministic well-conditioned matrix (diagonally dominant).
    const double base =
        std::sin(static_cast<double>(i * kN + j) * 0.37) * 0.5;
    return i == j ? base + static_cast<double>(kN) : base;
}

// --- Whetstone: scalar-dominated synthetic computation -------------------
// Modules follow the classic benchmark's structure: the heavy trigonometric
// and arithmetic modules work on scalars (no data-structure traffic at
// all), module 2 works on the famous 4-element array.

double whetstone_scalars(int cycles) {
    double x1 = 1.0;
    double x2 = -1.0;
    double x3 = -1.0;
    double x4 = -1.0;
    constexpr double t = 0.499975;
    double out = 0.0;
    for (int c = 0; c < cycles; ++c) {
        // Module 1: simple identities.
        for (int i = 0; i < 1200; ++i) {
            x1 = (x1 + x2 + x3 - x4) * t;
            x2 = (x1 + x2 - x3 + x4) * t;
            x3 = (x1 - x2 + x3 + x4) * t;
            x4 = (-x1 + x2 + x3 + x4) * t;
        }
        // Module 7: trigonometric functions.
        double x = 0.5;
        double y = 0.5;
        for (int i = 0; i < 140; ++i) {
            x = t * std::atan(2.2 * std::sin(x) * std::cos(x) /
                              (std::cos(x + y) + std::cos(x - y) - 1.0));
            y = t * std::atan(2.2 * std::sin(y) * std::cos(y) /
                              (std::cos(x + y) + std::cos(x - y) - 1.0));
        }
        // Module 11: standard functions.
        double z = 0.75;
        for (int i = 0; i < 140; ++i)
            z = std::sqrt(std::exp(std::log(z) / 0.99));
        out += x1 + x2 + x3 + x4 + x + y + z;
    }
    return out;
}

template <typename ArrayT>
double whetstone_array_module(ArrayT& e1, int cycles) {
    constexpr double t = 0.499975;
    double out = 0.0;
    for (int c = 0; c < cycles; ++c) {
        e1.set(0, 1.0);
        e1.set(1, -1.0);
        e1.set(2, -1.0);
        e1.set(3, -1.0);
        for (int i = 0; i < 24; ++i) {
            e1.set(0, (e1.get(0) + e1.get(1) + e1.get(2) - e1.get(3)) * t);
            e1.set(1, (e1.get(0) + e1.get(1) - e1.get(2) + e1.get(3)) * t);
            e1.set(2, (e1.get(0) - e1.get(1) + e1.get(2) + e1.get(3)) * t);
            e1.set(3, (-e1.get(0) + e1.get(1) + e1.get(2) + e1.get(3)) * t);
        }
        out += e1.get(3);
    }
    return out;
}

}  // namespace

RunResult run_cpubench(runtime::ProfilingSession* session) {
    RunResult result;
    Stopwatch total;
    std::uint64_t parallelizable = 0;

    // ---- Linpack ---------------------------------------------------------
    ds::ProfiledArray<double> matrix(session, loc("Matgen", 1), kN * kN);
    ds::ProfiledArray<double> rhs(session, loc("Matgen", 2), kN);
    ds::ProfiledArray<std::int64_t> pivots(session, loc("Factor", 3), kN);
    ds::ProfiledArray<double> solution(session, loc("Solve", 4), kN);
    ds::ProfiledArray<double> workspace(session, loc("Prepare", 5), kN * 4);

    // Matrix / rhs / workspace generation (parallelizable inits).
    {
        Stopwatch region;
        for (std::size_t i = 0; i < kN; ++i)
            for (std::size_t j = 0; j < kN; ++j)
                matrix.set(i * kN + j, matgen_value(i, j));
        for (std::size_t i = 0; i < kN; ++i)
            rhs.set(i, std::cos(static_cast<double>(i)) * 2.0);
        for (std::size_t i = 0; i < workspace.length(); ++i)
            workspace.set(i, std::sqrt(static_cast<double>(i) + 1.0));
        parallelizable += region.elapsed_ns();
    }

    // LU factorization with partial pivoting (data-dependent, sequential
    // pivot chain; the row updates are the only parallelizable part).
    for (std::size_t k = 0; k < kN; ++k) {
        std::size_t p = k;
        double maxval = std::abs(matrix.get(k * kN + k));
        for (std::size_t i = k + 1; i < kN; ++i) {
            const double v = std::abs(matrix.get(i * kN + k));
            if (v > maxval) {
                maxval = v;
                p = i;
            }
        }
        pivots.set(k, static_cast<std::int64_t>(p));
        if (p != k) {
            for (std::size_t j = 0; j < kN; ++j) {
                const double tmp = matrix.get(k * kN + j);
                matrix.set(k * kN + j, matrix.get(p * kN + j));
                matrix.set(p * kN + j, tmp);
            }
            const double tmp = rhs.get(k);
            rhs.set(k, rhs.get(p));
            rhs.set(p, tmp);
        }
        Stopwatch region;
        for (std::size_t i = k + 1; i < kN; ++i) {
            const double factor = matrix.get(i * kN + k) / matrix.get(k * kN + k);
            matrix.set(i * kN + k, factor);
            for (std::size_t j = k + 1; j < kN; ++j)
                matrix.set(i * kN + j, matrix.get(i * kN + j) -
                                           factor * matrix.get(k * kN + j));
            rhs.set(i, rhs.get(i) - factor * rhs.get(k));
        }
        parallelizable += region.elapsed_ns();
    }

    // Back substitution (sequential dependency chain).
    for (std::size_t k = kN; k-- > 0;) {
        double sum = rhs.get(k);
        for (std::size_t j = k + 1; j < kN; ++j)
            sum -= matrix.get(k * kN + j) * solution.get(j);
        solution.set(k, sum / matrix.get(k * kN + k));
    }
    // Read pivots once (validation sweep).
    std::int64_t pivot_check = 0;
    for (std::size_t k = 0; k < kN; ++k) pivot_check += pivots.get(k);

    double residual = 0.0;
    for (std::size_t i = 0; i < kN; ++i) residual += solution.get(i);

    // ---- Whetstone -------------------------------------------------------
    const double scalar_part = whetstone_scalars(kWhetstoneCycles);
    ds::ProfiledArray<double> e1(session, loc("WhetstoneModule2", 6), 4);
    const double array_part = whetstone_array_module(e1, kWhetstoneCycles);

    // ---- Timing-sample history (the suite records per-run samples). ----
    ds::ProfiledList<double> samples(session, loc("RecordSamples", 7));
    for (int i = 0; i < 150; ++i)
        samples.add(residual * 1e-6 + static_cast<double>(i));
    double sample_sum = 0.0;
    std::size_t pos = 0;
    for (int i = 0; i < 30; ++i) {
        sample_sum += samples.get(pos);
        pos = (pos + 7) % samples.count();
    }

    result.checksum = residual + scalar_part + array_part + sample_sum +
                      static_cast<double>(pivot_check) +
                      workspace.get(workspace.length() - 1);
    result.total_ns = total.elapsed_ns();
    result.parallelizable_ns = parallelizable;
    return result;
}

namespace {

/// Linpack with the recommendations applied, then the unchanged Whetstone;
/// `regions` runs the parallel regions.
template <typename Regions>
RunResult parallel_program(Regions& regions) {
    RunResult result;
    Stopwatch total;

    ds::Array<double> matrix(kN * kN);
    ds::Array<double> rhs(kN);
    ds::Array<std::int64_t> pivots(kN);
    ds::Array<double> solution(kN);
    ds::Array<double> workspace(kN * 4);

    // Recommended action: parallelize the initializations.
    regions(0, kN, [&matrix](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            for (std::size_t j = 0; j < kN; ++j)
                matrix.set(i * kN + j, matgen_value(i, j));
    });
    regions(0, kN, [&rhs](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            rhs.set(i, std::cos(static_cast<double>(i)) * 2.0);
    });
    regions(0, workspace.length(), [&workspace](std::size_t lo,
                                                std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            workspace.set(i, std::sqrt(static_cast<double>(i) + 1.0));
    });

    // Pivot search and swap remain sequential; row updates run in parallel.
    for (std::size_t k = 0; k < kN; ++k) {
        std::size_t p = k;
        double maxval = std::abs(matrix.get(k * kN + k));
        for (std::size_t i = k + 1; i < kN; ++i) {
            const double v = std::abs(matrix.get(i * kN + k));
            if (v > maxval) {
                maxval = v;
                p = i;
            }
        }
        pivots.set(k, static_cast<std::int64_t>(p));
        if (p != k) {
            for (std::size_t j = 0; j < kN; ++j) {
                const double tmp = matrix.get(k * kN + j);
                matrix.set(k * kN + j, matrix.get(p * kN + j));
                matrix.set(p * kN + j, tmp);
            }
            const double tmp = rhs.get(k);
            rhs.set(k, rhs.get(p));
            rhs.set(p, tmp);
        }
        regions(k + 1, kN, [&, k](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                const double factor =
                    matrix.get(i * kN + k) / matrix.get(k * kN + k);
                matrix.set(i * kN + k, factor);
                for (std::size_t j = k + 1; j < kN; ++j)
                    matrix.set(i * kN + j,
                               matrix.get(i * kN + j) -
                                   factor * matrix.get(k * kN + j));
                rhs.set(i, rhs.get(i) - factor * rhs.get(k));
            }
        });
    }

    for (std::size_t k = kN; k-- > 0;) {
        double sum = rhs.get(k);
        for (std::size_t j = k + 1; j < kN; ++j)
            sum -= matrix.get(k * kN + j) * solution.get(j);
        solution.set(k, sum / matrix.get(k * kN + k));
    }
    std::int64_t pivot_check = 0;
    for (std::size_t k = 0; k < kN; ++k) pivot_check += pivots.get(k);

    double residual = 0.0;
    for (std::size_t i = 0; i < kN; ++i) residual += solution.get(i);

    // Whetstone is inherently sequential — unchanged.
    const double scalar_part = whetstone_scalars(kWhetstoneCycles);
    ds::Array<double> e1(4);
    const double array_part = whetstone_array_module(e1, kWhetstoneCycles);

    ds::List<double> samples;
    for (int i = 0; i < 150; ++i)
        samples.add(residual * 1e-6 + static_cast<double>(i));
    double sample_sum = 0.0;
    std::size_t pos = 0;
    for (int i = 0; i < 30; ++i) {
        sample_sum += samples[pos];
        pos = (pos + 7) % samples.count();
    }

    result.checksum = residual + scalar_part + array_part + sample_sum +
                      static_cast<double>(pivot_check) +
                      workspace.get(workspace.length() - 1);
    result.total_ns = total.elapsed_ns();
    return result;
}

}  // namespace

RunResult run_cpubench_parallel(par::ThreadPool& pool) {
    return run_on_pool(pool, parallel_program<par::PoolExecutor>);
}

SimulatedRunResult run_cpubench_simulated(unsigned workers) {
    return run_on_simulator(workers, parallel_program<par::SimulationExecutor>);
}

}  // namespace dsspy::apps
