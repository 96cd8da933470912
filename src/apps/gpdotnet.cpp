#include "apps/gpdotnet.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <string>

#include "ds/ds.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace dsspy::apps {

namespace {

using support::Rng;
using support::SourceLoc;
using support::Stopwatch;

constexpr std::size_t kPopulation = 200;
constexpr std::size_t kGenerations = 12;
constexpr std::size_t kSeriesPoints = 200;
constexpr std::size_t kGenes = 16;

SourceLoc loc(const char* cls, const char* method, std::uint32_t position) {
    return SourceLoc{std::string("GPdotNET.Engine.") + cls, method, position};
}

}  // namespace

/// Fixed-length arithmetic chromosome: each gene is an opcode applied to a
/// running accumulator and the current series value.  Defined at namespace
/// scope so the TypeName trait below can name it.
struct Chromosome {
    std::array<std::uint8_t, kGenes> genes{};
};

}  // namespace dsspy::apps

// Report chromosomes under the interface name the paper prints in Table V.
template <>
struct dsspy::ds::TypeName<dsspy::apps::Chromosome> {
    static constexpr std::string_view value = "GPdotNET.Core.IChromosome";
};

namespace dsspy::apps {
namespace {

Chromosome random_chromosome(Rng& rng) {
    Chromosome c;
    for (auto& g : c.genes) g = static_cast<std::uint8_t>(rng.next_below(6));
    return c;
}

/// Evaluate one chromosome against the target series; lower error is
/// better, fitness = 1/(1+error).  `series` exposes get(i)/length().
template <typename SeriesT>
double evaluate(const Chromosome& c, const SeriesT& series) {
    double error = 0.0;
    const std::size_t n = series.length();
    // Single forward sweep over the series: each point is read exactly
    // once (the Read-Forward profile of GenerateTerminalSet in Table V).
    double x = series.get(0);
    for (std::size_t i = 1; i < n; ++i) {
        double acc = x;
        for (std::uint8_t g : c.genes) {
            switch (g) {
                case 0: acc += x * 0.5; break;
                case 1: acc -= x * 0.25; break;
                case 2: acc *= 1.01; break;
                case 3: acc = acc * 0.5 + x * 0.5; break;
                case 4: acc += 0.1; break;
                default: acc = std::abs(acc) * 0.999; break;
            }
        }
        const double actual = series.get(i);
        error += (acc - actual) * (acc - actual);
        x = actual;
    }
    return 1.0 / (1.0 + error / static_cast<double>(n));
}

Chromosome crossover(const Chromosome& a, const Chromosome& b, Rng& rng) {
    Chromosome child;
    const std::size_t cut = 1 + rng.next_below(kGenes - 1);
    for (std::size_t i = 0; i < kGenes; ++i)
        child.genes[i] = i < cut ? a.genes[i] : b.genes[i];
    if (rng.next_bool(0.2))
        child.genes[rng.next_below(kGenes)] =
            static_cast<std::uint8_t>(rng.next_below(6));
    return child;
}

/// ~30 small model-global containers GPdotNET keeps around (function sets,
/// GUI state, run statistics...).  None of them develops parallel
/// potential; they fill the search-space denominator like in the paper.
double make_model_globals(
    runtime::ProfilingSession* session,
    std::vector<ds::ProfiledList<std::int64_t>>& keep_alive) {
    Rng rng(77);
    double checksum = 0.0;
    keep_alive.reserve(32);
    for (std::uint32_t g = 0; g < 32; ++g) {
        keep_alive.emplace_back(session,
                                loc("GPModelGlobals", "InitState", 200 + g));
        ds::ProfiledList<std::int64_t>& list = keep_alive.back();
        const std::size_t n = 10 + rng.next_below(30);
        for (std::size_t i = 0; i < n; ++i)
            list.insert(list.count() / 2,
                        static_cast<std::int64_t>(rng.next_below(100)));
        std::size_t pos = 0;
        for (int r = 0; r < 8 && list.count() >= 10; ++r) {
            checksum += static_cast<double>(list.get(pos)) * 1e-3;
            pos = (pos + 7) % list.count();
        }
    }
    return checksum;
}

}  // namespace

RunResult run_gpdotnet(runtime::ProfilingSession* session) {
    RunResult result;
    Stopwatch total;
    Rng rng(20140101);

    // GenerateTerminalSet: the input time series.
    ds::ProfiledArray<double> series(
        session, loc("GPModelGlobals", "GenerateTerminalSet", 120),
        kSeriesPoints);
    for (std::size_t i = 0; i < kSeriesPoints; ++i)
        series.set(i, std::sin(static_cast<double>(i) * 0.12) * 3.0 +
                          static_cast<double>(i) * 0.01);

    std::vector<ds::ProfiledList<std::int64_t>> globals;
    result.checksum += make_model_globals(session, globals);

    // CHPopulation ctor: initial population (Long-Insert).
    ds::ProfiledList<Chromosome> population(
        session, loc("CHPopulation", ".ctor", 14), kPopulation);
    for (std::size_t i = 0; i < kPopulation; ++i)
        population.add(random_chromosome(rng));

    // Fitness array (FitnessProportionateSelection).
    ds::ProfiledArray<double> fitness(
        session, loc("CHPopulation", "FitnessProportionateSelection", 68),
        kPopulation);
    // Cumulative distribution for roulette selection.
    ds::ProfiledArray<double> cumulative(
        session, loc("CHPopulation", "BuildDistribution", 92), kPopulation);
    // Parent snapshot used while breeding the next generation.
    ds::ProfiledList<Chromosome> parents(
        session, loc("CHPopulation", "NewGeneration", 131), kPopulation);

    double best_overall = 0.0;
    std::uint64_t parallelizable = 0;

    for (std::size_t gen = 0; gen < kGenerations; ++gen) {
        // Fitness evaluation: full population sweep — the dominant cost
        // and the location the recommendation parallelizes.
        Stopwatch region;
        for (std::size_t i = 0; i < kPopulation; ++i)
            fitness.set(i, evaluate(population.get(i), series));
        parallelizable += region.elapsed_ns();

        // Selection distribution (sequential scan of the fitness array).
        double sum = 0.0;
        for (std::size_t i = 0; i < kPopulation; ++i) {
            sum += fitness.get(i);
            cumulative.set(i, sum);
        }
        double best = 0.0;
        for (std::size_t i = 0; i < kPopulation; ++i)
            best = std::max(best, fitness.get(i));
        best_overall = std::max(best_overall, best);

        // Breed the next generation.
        parents.clear();
        for (std::size_t i = 0; i < kPopulation; ++i)
            parents.add(population.get(i));
        population.clear();
        for (std::size_t i = 0; i < kPopulation; ++i) {
            auto pick = [&]() -> const Chromosome& {
                const double target = rng.next_double() * sum;
                std::size_t lo = 0;
                std::size_t hi = kPopulation - 1;
                while (lo < hi) {
                    const std::size_t mid = lo + (hi - lo) / 2;
                    if (cumulative.get(mid) < target) {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                return parents.get(lo);
            };
            population.add(crossover(pick(), pick(), rng));
        }
    }

    result.checksum += best_overall * 1000.0;
    result.total_ns = total.elapsed_ns();
    result.parallelizable_ns = parallelizable;
    return result;
}

namespace {

/// The GP engine with parallel fitness evaluation; `regions` runs the
/// parallel regions.
template <typename Regions>
RunResult parallel_program(Regions& regions) {
    RunResult result;
    Stopwatch total;
    Rng rng(20140101);

    ds::Array<double> series(kSeriesPoints);
    for (std::size_t i = 0; i < kSeriesPoints; ++i)
        series.set(i, std::sin(static_cast<double>(i) * 0.12) * 3.0 +
                          static_cast<double>(i) * 0.01);

    std::vector<ds::ProfiledList<std::int64_t>> globals;
    result.checksum += make_model_globals(nullptr, globals);

    ds::List<Chromosome> population(kPopulation);
    for (std::size_t i = 0; i < kPopulation; ++i)
        population.add(random_chromosome(rng));

    ds::Array<double> fitness(kPopulation);
    ds::Array<double> cumulative(kPopulation);
    ds::List<Chromosome> parents(kPopulation);

    double best_overall = 0.0;

    for (std::size_t gen = 0; gen < kGenerations; ++gen) {
        // Recommended action applied: parallel fitness evaluation.
        regions(0, kPopulation, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                fitness.set(i, evaluate(population[i], series));
        });

        double sum = 0.0;
        for (std::size_t i = 0; i < kPopulation; ++i) {
            sum += fitness.get(i);
            cumulative.set(i, sum);
        }
        double best = 0.0;
        for (std::size_t i = 0; i < kPopulation; ++i)
            best = std::max(best, fitness.get(i));
        best_overall = std::max(best_overall, best);

        parents.clear();
        for (std::size_t i = 0; i < kPopulation; ++i)
            parents.add(population[i]);
        population.clear();
        for (std::size_t i = 0; i < kPopulation; ++i) {
            auto pick = [&]() -> const Chromosome& {
                const double target = rng.next_double() * sum;
                std::size_t lo = 0;
                std::size_t hi = kPopulation - 1;
                while (lo < hi) {
                    const std::size_t mid = lo + (hi - lo) / 2;
                    if (cumulative.get(mid) < target) {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                return parents[lo];
            };
            population.add(crossover(pick(), pick(), rng));
        }
    }

    result.checksum += best_overall * 1000.0;
    result.total_ns = total.elapsed_ns();
    return result;
}

}  // namespace

RunResult run_gpdotnet_parallel(par::ThreadPool& pool) {
    return run_on_pool(pool, parallel_program<par::PoolExecutor>);
}

SimulatedRunResult run_gpdotnet_simulated(unsigned workers) {
    return run_on_simulator(workers, parallel_program<par::SimulationExecutor>);
}

}  // namespace dsspy::apps
