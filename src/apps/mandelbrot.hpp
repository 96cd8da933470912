// Mandelbrot — fractal renderer (the paper's Solver app: 150 LOC, 7 data
// structures, 4 flagged, speedup 3.00).
//
// Renders the set into a flat image array written row by row (Long-Insert
// on the image — the paper's use case four), precomputes an x-coordinate
// array that every row re-reads (Frequent-Long-Read), initializes a color
// palette (Long-Insert), and keeps a per-row offset list (Long-Insert —
// the paper's use cases two and three are the float-array initializations
// that had been parallelized "by the use of a compiler switch").  The
// recommended action parallelizes the per-row pixel computation.
#pragma once

#include "apps/app_registry.hpp"

namespace dsspy::apps {

RunResult run_mandelbrot(runtime::ProfilingSession* session);
RunResult run_mandelbrot_parallel(par::ThreadPool& pool);
SimulatedRunResult run_mandelbrot_simulated(unsigned workers);

}  // namespace dsspy::apps
