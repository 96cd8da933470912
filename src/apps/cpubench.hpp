// CPU Benchmarks — Linpack + Whetstone behind one driver (the paper's
// benchmark-suite app: 400 LOC, 7 data structures, 5 flagged, speedup
// only 1.20).
//
// This is the evaluation's Amdahl cautionary tale: the suite's runtime is
// dominated by inherently sequential scalar computation (Whetstone modules
// and the data-dependent LU pivoting chain), so following the DSspy
// recommendations parallelizes only the small array-initialization and
// row-update fractions — Table VI measures a 94.29 % sequential fraction
// and the total speedup stays near 1.2x.
#pragma once

#include "apps/app_registry.hpp"

namespace dsspy::apps {

RunResult run_cpubench(runtime::ProfilingSession* session);
RunResult run_cpubench_parallel(par::ThreadPool& pool);
SimulatedRunResult run_cpubench_simulated(unsigned workers);

}  // namespace dsspy::apps
