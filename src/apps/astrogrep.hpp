// AstroGrep — file-and-text search (the paper's File Search app, 4,800
// LOC, 21 data structures, 2 flagged, speedup 2.90).
//
// The app loads a document corpus into per-volume line lists and runs a
// set of search terms over every line, appending hits to a result list
// (the Long-Insert location) and tallying per-volume match counts in an
// array.  The recommended action parallelizes the search across volumes.
#pragma once

#include "apps/app_registry.hpp"

namespace dsspy::apps {

RunResult run_astrogrep(runtime::ProfilingSession* session);
RunResult run_astrogrep_parallel(par::ThreadPool& pool);
SimulatedRunResult run_astrogrep_simulated(unsigned workers);

}  // namespace dsspy::apps
