// Embedding the pipeline service layer (DESIGN.md §10): run several
// analysis jobs concurrently without going through the CLI.
//
// The same RunPlan/PipelineRunner/batch API the `dsspy` binary parses
// argv into is available to any program linking dsspy_pipeline — with
// the same guarantees: one ProfilingSession per job, typed RunOutcome,
// byte-stable report emission, exit-code conventions, and per-job output
// identical to running the plans sequentially.
//
// Build: cmake --build build --target batch_analysis
// Run:   ./build/examples/batch_analysis
#include <iostream>
#include <vector>

#include "pipeline/batch.hpp"
#include "pipeline/run_plan.hpp"
#include "pipeline/runner.hpp"

using namespace dsspy;

int main() {
    // Three jobs from three input kinds.  Each plan is plain data — build
    // them from a config file, an RPC request, wherever.
    std::vector<pipeline::RunPlan> plans;

    pipeline::RunPlan app;
    app.input = pipeline::InputKind::App;
    app.target = "Mandelbrot";
    app.outputs.summary = true;
    plans.push_back(app);

    pipeline::RunPlan wordwheel = app;
    wordwheel.target = "WordWheelSolver";
    // Tighten one detector threshold for this job only.
    wordwheel.config.li_min_phase_events = 50;
    plans.push_back(wordwheel);

    pipeline::RunPlan corpus;
    corpus.input = pipeline::InputKind::CorpusProgram;
    corpus.target = "Contentfinder";
    corpus.outputs.report = true;
    plans.push_back(corpus);

    // Reject contradictory plans before spending any work on them.
    for (const pipeline::RunPlan& plan : plans)
        if (const std::string problem =
                pipeline::PipelineRunner::validate(plan);
            !problem.empty()) {
            std::cerr << plan.display_name() << ": " << problem << '\n';
            return pipeline::kExitUsageError;
        }

    // Run up to two jobs at a time.  run_batch_jobs returns the raw
    // per-job results; run_batch additionally formats the stream of
    // headers the CLI prints.
    const pipeline::PipelineRunner runner;
    pipeline::BatchSummary summary;
    const std::vector<pipeline::BatchJobResult> jobs =
        pipeline::run_batch_jobs(runner, plans, /*concurrency=*/2, summary);

    for (const pipeline::BatchJobResult& job : jobs) {
        std::cout << "=== " << job.outcome.label << " (exit "
                  << job.outcome.exit_code << ", " << job.outcome.events
                  << " events";
        if (job.outcome.has_checksum)
            std::cout << ", checksum " << job.outcome.checksum;
        std::cout << ") ===\n" << job.out_text;
        // The typed outcome is richer than the text: the analysis (and
        // the session backing it) ride along for further inspection.
        if (const core::AnalysisResult* result = job.outcome.result())
            std::cout << "[use cases detected: "
                      << result->all_use_cases().size() << "]\n";
    }
    std::cout << summary.jobs << " jobs, " << summary.failed
              << " failed, peak concurrency " << summary.max_concurrent
              << '\n';
    return summary.exit_code;
}
