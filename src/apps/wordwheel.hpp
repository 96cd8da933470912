// WordWheelSolver — 9-letter word-wheel puzzle solver (the paper's Solver
// app: 110 LOC, 5 data structures, 2 flagged, speedup 1.50).
//
// For each puzzle wheel the solver scans the whole word list checking
// whether the word can be built from the wheel's letters and must contain
// the mandatory center letter — a textbook Frequent-Long-Read on the word
// list — and appends solutions to a result list (Long-Insert).  The
// recommended action splits the word list into chunks searched in
// parallel.
#pragma once

#include "apps/app_registry.hpp"

namespace dsspy::apps {

RunResult run_wordwheel(runtime::ProfilingSession* session);
RunResult run_wordwheel_parallel(par::ThreadPool& pool);
SimulatedRunResult run_wordwheel_simulated(unsigned workers);

}  // namespace dsspy::apps
