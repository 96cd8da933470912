// Algorithmia — a data-structures & algorithms library exercised by 16
// "unit tests" (the paper used 16 hand-written unit tests as DSspy input).
//
// The two parallel-potential locations the paper reports:
//   * a priority queue implemented on a list — every extract-max traverses
//     the whole list (Frequent-Long-Read; paper speedup 2.30 at 100k
//     elements), parallelized with a chunked parallel max-search;
//   * list initialization with random values (Long-Insert; paper speedup
//     1.35), parallelized with a chunked parallel build.
// The other tests exercise sorting, searching, reversal, stacks, queues,
// and graph traversal without parallel potential.
#pragma once

#include "apps/app_registry.hpp"

namespace dsspy::apps {

RunResult run_algorithmia(runtime::ProfilingSession* session);
RunResult run_algorithmia_parallel(par::ThreadPool& pool);
SimulatedRunResult run_algorithmia_simulated(unsigned workers);

}  // namespace dsspy::apps
