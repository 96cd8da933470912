// GPdotNET — genetic-programming engine for discrete time-series analysis
// (the paper's Simulation app: 7,000 LOC, 37 data structures, 5 flagged,
// speedup 2.93; Table V shows its DSspy report).
//
// The engine evolves a population of fixed-length arithmetic chromosomes
// against a target series.  The DSspy-flagged locations mirror Table V:
//   * GenerateTerminalSet — the input-series array is fully re-read by
//     every chromosome evaluation (Frequent-Long-Read);
//   * CHPopulation ctor / NewGeneration — the population list is rebuilt
//     with long insertion phases every generation (Long-Insert) and fully
//     swept by fitness evaluation (Frequent-Long-Read);
//   * FitnessProportionateSelection — the fitness array is rewritten per
//     generation (Long-Insert) and swept to build the selection
//     distribution (Frequent-Long-Read).
// The recommended action parallelizes fitness evaluation — the dominant
// cost — which is exactly what the hand-parallelized GPdotNET version did.
#pragma once

#include "apps/app_registry.hpp"

namespace dsspy::apps {

RunResult run_gpdotnet(runtime::ProfilingSession* session);
RunResult run_gpdotnet_parallel(par::ThreadPool& pool);
SimulatedRunResult run_gpdotnet_simulated(unsigned workers);

}  // namespace dsspy::apps
