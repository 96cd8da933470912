// PipelineRunner: execute one RunPlan end to end.
//
// Owns the whole session/trace/engine wiring the seed CLI repeated inside
// every subcommand: create a ProfilingSession (or open a trace), run the
// workload, stop/drain, re-emit the trace when asked, run the requested
// analysis engine, and emit every requested report through the sink layer.
// Returns a typed RunOutcome so callers (CLI, batch driver, tests,
// embedders) never scrape text.
//
// Concurrency: a runner is stateless apart from its analysis pool pointer;
// run() may be called from many threads at once, each call driving its own
// ProfilingSession.  Sessions are fully independent — the only process
// state they share is the monotonic session-token counter, the optional
// global metrics registry (sharded, lock-free), and the shared analysis
// ThreadPool (safe: a parallel region waits only for its own chunks, and
// its caller runs every chunk no worker claims, never waiting on pool-wide
// idleness).  run_batch_jobs() (batch.hpp) leans on exactly this.
#pragma once

#include <functional>
#include <iosfwd>

#include "pipeline/run_plan.hpp"

namespace dsspy::par {
class ThreadPool;
}

namespace dsspy::pipeline {

/// One live-snapshot observation delivered to the watch callback.
struct WatchTick {
    const core::AnalysisResult& snapshot;
    std::uint64_t events_captured = 0;  ///< Recorded by the session so far.
    std::uint64_t events_folded = 0;    ///< Absorbed by the analyzer so far.
};

/// Invoked once per snapshot interval while a watch plan's workload runs.
using WatchCallback = std::function<void(const WatchTick&)>;

class PipelineRunner {
public:
    /// `analysis_pool` parallelizes trace decode and per-instance analysis
    /// (results are bit-identical to sequential); nullptr selects the
    /// process-wide default pool, whose width `--threads` configures.
    explicit PipelineRunner(par::ThreadPool* analysis_pool = nullptr)
        : analysis_pool_(analysis_pool) {}

    /// Validate a plan without running it.  Returns an empty string when
    /// the plan is executable, otherwise the usage diagnostic (the plan
    /// would exit kExitUsageError).
    [[nodiscard]] static std::string validate(const RunPlan& plan);

    /// Execute `plan`.  Reports go to `out`, diagnostics and session
    /// summaries to `err` (the CLI passes std::cout/std::cerr; the batch
    /// driver passes per-job buffers).  `on_tick` fires between snapshot
    /// intervals for watch plans and is ignored otherwise.
    [[nodiscard]] RunOutcome run(const RunPlan& plan, std::ostream& out,
                                 std::ostream& err,
                                 const WatchCallback& on_tick = {}) const;

private:
    [[nodiscard]] par::ThreadPool& pool() const;

    RunOutcome run_trace(const RunPlan& plan, std::ostream& out,
                         std::ostream& err) const;
    RunOutcome run_live(const RunPlan& plan, std::ostream& out,
                        std::ostream& err, const WatchCallback& on_tick) const;

    par::ThreadPool* analysis_pool_;
};

}  // namespace dsspy::pipeline
