// Contentfinder — keyword search in files (the paper's second File Search
// app: 290 LOC, 11 data structures, 2 flagged, speedup 1.56).
//
// Loads files into per-file token lists, searches a keyword set over all
// tokens and collects hits; a hit-offset array is initialized sequentially
// afterwards.  Tokenization and result ranking stay sequential, which caps
// the achievable speedup well below the core count (the paper measured
// 1.56x).
#pragma once

#include "apps/app_registry.hpp"

namespace dsspy::apps {

RunResult run_contentfinder(runtime::ProfilingSession* session);
RunResult run_contentfinder_parallel(par::ThreadPool& pool);
SimulatedRunResult run_contentfinder_simulated(unsigned workers);

}  // namespace dsspy::apps
