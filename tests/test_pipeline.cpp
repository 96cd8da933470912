// Pipeline service layer tests (DESIGN.md §10).
//
// The load-bearing suites are differential: the PipelineRunner must
// reproduce, byte for byte, what the pre-pipeline CLI wired by hand —
// session capture, analysis, and the exact emission order of every
// report.  The seed wiring is replicated here (against the same core
// emitters) and compared against RunPlan-driven runs for every
// evaluation app, a corpus program, and both trace engines.
//
// PipelineBatch.* additionally pins the concurrency contract: N jobs run
// through the batch driver produce per-job output identical to the same
// plans run sequentially, with genuinely overlapping execution.  The
// `batch_tsan` ctest entry re-runs that suite under ThreadSanitizer.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/app_registry.hpp"
#include "core/dsspy.hpp"
#include "core/export.hpp"
#include "core/incremental.hpp"
#include "core/report.hpp"
#include "core/transform_plan.hpp"
#include "corpus/program_model.hpp"
#include "corpus/workload.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/batch.hpp"
#include "pipeline/run_plan.hpp"
#include "pipeline/runner.hpp"
#include "runtime/session.hpp"
#include "runtime/trace_io.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace {

using namespace dsspy;

struct Text {
    std::string out;
    std::string err;
    int exit_code = 0;
};

/// Execute a plan through the pipeline layer, capturing both streams.
Text run_plan(const pipeline::RunPlan& plan) {
    std::ostringstream out;
    std::ostringstream err;
    const pipeline::PipelineRunner runner;
    const pipeline::RunOutcome outcome = runner.run(plan, out, err);
    return {std::move(out).str(), std::move(err).str(), outcome.exit_code};
}

/// The pre-pipeline CLI's post-mortem emitter, replicated verbatim: the
/// differential tests compare the runner against this exact order.
void seed_emit(const pipeline::OutputSelection& o,
               const core::AnalysisResult& analysis, std::ostream& out,
               std::ostream& err) {
    if (o.summary) {
        core::print_instance_summary(out, analysis);
        out << '\n';
    }
    if (o.report) {
        core::print_use_case_report(out, analysis);
        out << "Search space reduction: "
            << support::Table::pct(analysis.search_space_reduction()) << " ("
            << analysis.flagged_instances() << " of "
            << analysis.list_array_instances()
            << " list/array instances flagged)\n";
    }
    if (o.plan) {
        const core::TransformPlan plan = core::plan_transformations(analysis);
        core::print_transform_plan(out, plan);
    }
    if (o.json) core::write_analysis_json(out, analysis);
    if (o.csv_usecases) core::write_use_cases_csv(out, analysis);
    if (o.csv_instances) core::write_instances_csv(out, analysis);
    if (o.csv_patterns) core::write_patterns_csv(out, analysis);
    (void)err;
}

/// Seed-style `dsspy run <app>`: plain session, workload, post-mortem
/// analysis (no pool — the seed CLI analyzed single-threaded; identical
/// output on the runner's pooled path is part of what the tests pin).
Text seed_run_app(const apps::AppInfo& app,
                  const pipeline::OutputSelection& outputs) {
    std::ostringstream out;
    std::ostringstream err;
    runtime::ProfilingSession session;
    const double checksum = app.run_sequential(&session).checksum;
    session.stop();
    err << app.name << ": checksum " << checksum << ", "
        << session.store().total_events() << " events";
    if (session.orphan_events() > 0)
        err << ", " << session.orphan_events() << " orphan";
    err << '\n';
    const core::Dsspy analyzer{core::DetectorConfig{}};
    const core::AnalysisResult analysis = analyzer.analyze(session);
    seed_emit(outputs, analysis, out, err);
    return {std::move(out).str(), std::move(err).str(), 0};
}

/// Seed-style `dsspy corpus <program>`.
Text seed_run_corpus(const corpus::ProgramModel& program,
                     const pipeline::OutputSelection& outputs) {
    std::ostringstream out;
    std::ostringstream err;
    runtime::ProfilingSession session;
    if (program.in_eval23)
        corpus::run_eval_workload(program, &session);
    else
        corpus::run_study15_workload(program, &session);
    session.stop();
    if (session.orphan_events() > 0)
        err << program.name << ": " << session.orphan_events()
            << " orphan events\n";
    const core::Dsspy analyzer{core::DetectorConfig{}};
    const core::AnalysisResult analysis = analyzer.analyze(session);
    seed_emit(outputs, analysis, out, err);
    return {std::move(out).str(), std::move(err).str(), 0};
}

pipeline::RunPlan app_plan(const std::string& name,
                           pipeline::OutputSelection outputs) {
    pipeline::RunPlan plan;
    plan.input = pipeline::InputKind::App;
    plan.target = name;
    plan.outputs = outputs;
    return plan;
}

pipeline::OutputSelection report_only() {
    pipeline::OutputSelection o;
    o.report = true;
    return o;
}

/// Record one app run to a trace file; returns the path.
std::string record_trace(const std::string& app_name,
                         runtime::TraceFormat format) {
    const apps::AppInfo* app = apps::find_app(app_name);
    EXPECT_NE(app, nullptr);
    runtime::ProfilingSession session;
    app->run_sequential(&session);
    session.stop();
    const std::string path =
        ::testing::TempDir() + "pipeline_trace" +
        (format == runtime::TraceFormat::Binary ? ".dst" : ".csv");
    EXPECT_TRUE(runtime::write_trace_file(path, session, format));
    return path;
}

// ---------------------------------------------------------------------------
// Differential: RunPlan-driven runs vs seed-style hand wiring.

TEST(PipelineDifferential, EveryAppReportMatchesSeedWiring) {
    for (const apps::AppInfo& app : apps::evaluation_apps()) {
        const Text seed = seed_run_app(app, report_only());
        const Text piped = run_plan(app_plan(app.name, report_only()));
        EXPECT_EQ(piped.exit_code, 0) << app.name;
        EXPECT_EQ(piped.out, seed.out) << app.name;
        EXPECT_EQ(piped.err, seed.err) << app.name;
    }
}

TEST(PipelineDifferential, EveryOutputKindMatchesSeedWiring) {
    pipeline::OutputSelection everything;
    everything.summary = true;
    everything.report = true;
    everything.plan = true;
    everything.json = true;
    everything.csv_usecases = true;
    everything.csv_instances = true;
    everything.csv_patterns = true;
    const apps::AppInfo* app = apps::find_app("Mandelbrot");
    ASSERT_NE(app, nullptr);
    const Text seed = seed_run_app(*app, everything);
    const Text piped = run_plan(app_plan(app->name, everything));
    EXPECT_EQ(piped.exit_code, 0);
    EXPECT_EQ(piped.out, seed.out);
    EXPECT_EQ(piped.err, seed.err);
}

TEST(PipelineDifferential, CorpusSampleMatchesSeedWiring) {
    int compared = 0;
    for (const corpus::ProgramModel& program : corpus::all_programs()) {
        if (compared == 3) break;
        ++compared;
        pipeline::OutputSelection outputs = report_only();
        outputs.summary = true;
        const Text seed = seed_run_corpus(program, outputs);
        pipeline::RunPlan plan;
        plan.input = pipeline::InputKind::CorpusProgram;
        plan.target = program.name;
        plan.outputs = outputs;
        const Text piped = run_plan(plan);
        EXPECT_EQ(piped.exit_code, 0) << program.name;
        EXPECT_EQ(piped.out, seed.out) << program.name;
        EXPECT_EQ(piped.err, seed.err) << program.name;
    }
    EXPECT_GT(compared, 0);
}

TEST(PipelineDifferential, TraceIncrementalMatchesSeedStreamWiring) {
    const std::string path =
        record_trace("WordWheelSolver", runtime::TraceFormat::Binary);

    // Seed wiring: stream the file through the incremental analyzer.
    core::IncrementalAnalyzer incremental{core::DetectorConfig{}};
    struct Sink final : runtime::TraceSink {
        explicit Sink(core::IncrementalAnalyzer& a) : analyzer(a) {}
        void on_instance(const runtime::InstanceInfo& info) override {
            instances.push_back(info);
            analyzer.declare_instance(info);
        }
        void on_events(std::span<const runtime::AccessEvent> events) override {
            analyzer.fold(events);
        }
        std::vector<runtime::InstanceInfo> instances;
        core::IncrementalAnalyzer& analyzer;
    } sink{incremental};
    runtime::read_trace_stream_file(path, sink);
    const core::AnalysisResult report = incremental.finish(sink.instances);
    std::ostringstream seed_out;
    std::ostringstream seed_err;
    pipeline::OutputSelection outputs = report_only();
    outputs.summary = true;
    outputs.csv_usecases = true;
    seed_emit(outputs, report, seed_out, seed_err);

    pipeline::RunPlan plan;
    plan.input = pipeline::InputKind::TraceFile;
    plan.target = path;
    plan.outputs = outputs;
    ASSERT_EQ(plan.resolved_engine(), pipeline::EngineChoice::Incremental);
    const Text piped = run_plan(plan);
    EXPECT_EQ(piped.exit_code, 0);
    EXPECT_EQ(piped.out, seed_out.str());
    EXPECT_EQ(piped.err, seed_err.str());
    std::remove(path.c_str());
}

TEST(PipelineDifferential, TracePostmortemMatchesSeedWiring) {
    const std::string path =
        record_trace("Mandelbrot", runtime::TraceFormat::Csv);

    const runtime::ColumnTrace trace = runtime::read_trace_columns_file(path);
    const core::Dsspy analyzer{core::DetectorConfig{}};
    const core::AnalysisResult analysis =
        analyzer.analyze(trace.instances, trace.columns);
    pipeline::OutputSelection outputs;
    outputs.report = true;
    outputs.json = true;
    outputs.csv_patterns = true;
    std::ostringstream seed_out;
    std::ostringstream seed_err;
    seed_emit(outputs, analysis, seed_out, seed_err);

    pipeline::RunPlan plan;
    plan.input = pipeline::InputKind::TraceFile;
    plan.target = path;
    plan.outputs = outputs;
    ASSERT_EQ(plan.resolved_engine(), pipeline::EngineChoice::Postmortem);
    const Text piped = run_plan(plan);
    EXPECT_EQ(piped.exit_code, 0);
    EXPECT_EQ(piped.out, seed_out.str());
    EXPECT_EQ(piped.err, seed_err.str());
    std::remove(path.c_str());
}

TEST(PipelineDifferential, LiveIncrementalMatchesPostmortemReport) {
    // The two engines must classify identically on the same workload
    // (engine bit-identity is pinned elsewhere; here: through RunPlans).
    pipeline::RunPlan post = app_plan("WordWheelSolver", report_only());
    post.engine = pipeline::EngineChoice::Postmortem;
    pipeline::RunPlan inc = post;
    inc.engine = pipeline::EngineChoice::Incremental;
    const Text a = run_plan(post);
    const Text b = run_plan(inc);
    EXPECT_EQ(a.exit_code, 0);
    EXPECT_EQ(b.exit_code, 0);
    EXPECT_EQ(a.out, b.out);
}

// ---------------------------------------------------------------------------
// Engine resolution: one rule for every input kind.  Auto takes the
// streaming fold unless an output needs rows or the plan re-emits the
// trace; watch forces the fold; an explicit engine is kept as chosen.

TEST(PipelineEngine, ResolvedEngineCoversEveryInputAndOutput) {
    using pipeline::EngineChoice;
    struct Row {
        const char* flag;
        void (*select)(pipeline::RunPlan&);
        EngineChoice want;
    };
    const Row rows[] = {
        {"(none)", [](pipeline::RunPlan&) {}, EngineChoice::Incremental},
        {"--summary", [](pipeline::RunPlan& p) { p.outputs.summary = true; },
         EngineChoice::Incremental},
        {"--report", [](pipeline::RunPlan& p) { p.outputs.report = true; },
         EngineChoice::Incremental},
        {"--advice", [](pipeline::RunPlan& p) { p.outputs.advice = true; },
         EngineChoice::Incremental},
        {"--csv-usecases",
         [](pipeline::RunPlan& p) { p.outputs.csv_usecases = true; },
         EngineChoice::Incremental},
        {"--csv-instances",
         [](pipeline::RunPlan& p) { p.outputs.csv_instances = true; },
         EngineChoice::Incremental},
        {"metrics",
         [](pipeline::RunPlan& p) {
             p.outputs.metrics_doc = pipeline::MetricsDoc::Json;
         },
         EngineChoice::Incremental},
        {"--json", [](pipeline::RunPlan& p) { p.outputs.json = true; },
         EngineChoice::Postmortem},
        {"--csv-patterns",
         [](pipeline::RunPlan& p) { p.outputs.csv_patterns = true; },
         EngineChoice::Postmortem},
        {"--plan", [](pipeline::RunPlan& p) { p.outputs.plan = true; },
         EngineChoice::Postmortem},
        {"--html",
         [](pipeline::RunPlan& p) { p.outputs.html_path = "report.html"; },
         EngineChoice::Postmortem},
        {"--trace", [](pipeline::RunPlan& p) { p.trace_out = "t.csv"; },
         EngineChoice::Postmortem},
    };
    for (const pipeline::InputKind input :
         {pipeline::InputKind::App, pipeline::InputKind::CorpusProgram,
          pipeline::InputKind::TraceFile}) {
        for (const Row& row : rows) {
            SCOPED_TRACE(::testing::Message()
                         << "input " << static_cast<int>(input) << ", "
                         << row.flag);
            pipeline::RunPlan plan;
            plan.input = input;
            plan.target = "x";
            row.select(plan);
            EXPECT_EQ(plan.resolved_engine(), row.want);
            plan.engine = EngineChoice::Postmortem;
            EXPECT_EQ(plan.resolved_engine(), EngineChoice::Postmortem);
            plan.engine = EngineChoice::Incremental;
            EXPECT_EQ(plan.resolved_engine(), EngineChoice::Incremental);
            plan.engine = EngineChoice::Auto;
            plan.watch = true;
            EXPECT_EQ(plan.resolved_engine(), EngineChoice::Incremental);
            plan.engine = EngineChoice::Postmortem;
            EXPECT_EQ(plan.resolved_engine(), EngineChoice::Incremental);
        }
    }
}

// ---------------------------------------------------------------------------
// Watch plans.

TEST(PipelineWatch, SnapshotsFireAndFinalReportEmits) {
    pipeline::RunPlan plan = app_plan("Mandelbrot", report_only());
    plan.watch = true;
    plan.snapshot_interval_ms = 5;
    int ticks = 0;
    std::uint64_t last_folded = 0;
    std::ostringstream out;
    std::ostringstream err;
    const pipeline::PipelineRunner runner;
    const pipeline::RunOutcome outcome =
        runner.run(plan, out, err, [&](const pipeline::WatchTick& tick) {
            ++ticks;
            // The runner takes the snapshot before it reads events_folded,
            // and the analyzer only grows, so both hold on every tick.  (An
            // instance may be registered before its first record, so the
            // instance count bounds nothing.)
            EXPECT_LE(tick.snapshot.total_events(), tick.events_folded);
            EXPECT_GE(tick.events_folded, last_folded);
            last_folded = tick.events_folded;
        });
    EXPECT_TRUE(outcome.ok());
    ASSERT_TRUE(outcome.stream.has_value());
    EXPECT_GT(outcome.events, 0u);
    EXPECT_GE(outcome.events, last_folded);
    EXPECT_NE(out.str().find("Use Case"), std::string::npos);
    // Ticks are timing-dependent; zero is possible only if the workload
    // beat the first 5ms interval, which the Mandelbrot render never does.
    EXPECT_GT(ticks, 0);
}

// The workload's end cuts the snapshot wait short: a watch with a 10 s
// interval returns as soon as the render is done, with no tick.
TEST(PipelineWatch, ReturnsWhenWorkloadEnds) {
    pipeline::RunPlan plan = app_plan("Mandelbrot", report_only());
    plan.watch = true;
    plan.snapshot_interval_ms = 10'000;
    int ticks = 0;
    std::ostringstream out;
    std::ostringstream err;
    const pipeline::PipelineRunner runner;
    const support::Stopwatch watch;
    const pipeline::RunOutcome outcome = runner.run(
        plan, out, err, [&](const pipeline::WatchTick&) { ++ticks; });
    EXPECT_LT(watch.elapsed_s(), 5.0);
    EXPECT_TRUE(outcome.ok());
    EXPECT_GT(outcome.events, 0u);
    EXPECT_EQ(ticks, 0);
}

// ---------------------------------------------------------------------------
// Batch driver.

std::vector<pipeline::RunPlan> sample_batch_plans() {
    pipeline::OutputSelection outputs = report_only();
    outputs.summary = true;
    std::vector<pipeline::RunPlan> plans;
    plans.push_back(app_plan("Mandelbrot", outputs));
    plans.push_back(app_plan("WordWheelSolver", outputs));
    plans.push_back(app_plan("Algorithmia", outputs));
    pipeline::RunPlan corpus_plan;
    corpus_plan.input = pipeline::InputKind::CorpusProgram;
    corpus_plan.target = "Contentfinder";
    corpus_plan.outputs = outputs;
    plans.push_back(corpus_plan);
    return plans;
}

TEST(PipelineBatch, ConcurrentJobsMatchSequentialByteForByte) {
    const std::vector<pipeline::RunPlan> plans = sample_batch_plans();
    const pipeline::PipelineRunner runner;

    std::vector<Text> sequential;
    sequential.reserve(plans.size());
    for (const pipeline::RunPlan& plan : plans)
        sequential.push_back(run_plan(plan));

    pipeline::BatchSummary summary;
    const std::vector<pipeline::BatchJobResult> jobs =
        pipeline::run_batch_jobs(runner, plans, 4, summary);

    ASSERT_EQ(jobs.size(), plans.size());
    EXPECT_EQ(summary.exit_code, pipeline::kExitOk);
    EXPECT_EQ(summary.failed, 0u);
    EXPECT_GE(summary.max_concurrent, 2u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(jobs[i].outcome.exit_code, sequential[i].exit_code) << i;
        EXPECT_EQ(jobs[i].out_text, sequential[i].out) << i;
        EXPECT_EQ(jobs[i].err_text, sequential[i].err) << i;
    }
}

TEST(PipelineBatch, StdoutIsOrderedConcatenationOfJobOutputs) {
    const std::vector<pipeline::RunPlan> plans = sample_batch_plans();
    const pipeline::PipelineRunner runner;
    std::ostringstream out;
    std::ostringstream err;
    const pipeline::BatchSummary summary =
        pipeline::run_batch(runner, plans, 2, out, err);
    EXPECT_EQ(summary.exit_code, pipeline::kExitOk);
    EXPECT_EQ(summary.jobs, plans.size());

    std::string expected;
    for (const pipeline::RunPlan& plan : plans) expected += run_plan(plan).out;
    EXPECT_EQ(out.str(), expected);
    EXPECT_NE(err.str().find("[batch] job 1/4: Mandelbrot"),
              std::string::npos);
    EXPECT_NE(err.str().find("4 jobs, 0 failed"), std::string::npos);
}

TEST(PipelineBatch, FailedJobPropagatesWithoutPoisoningOthers) {
    std::vector<pipeline::RunPlan> plans;
    plans.push_back(app_plan("Mandelbrot", report_only()));
    pipeline::RunPlan bad;
    bad.input = pipeline::InputKind::TraceFile;
    bad.target = ::testing::TempDir() + "no_such_trace.dst";
    bad.outputs = report_only();
    plans.push_back(bad);

    pipeline::BatchSummary summary;
    const pipeline::PipelineRunner runner;
    const std::vector<pipeline::BatchJobResult> jobs =
        pipeline::run_batch_jobs(runner, plans, 2, summary);
    EXPECT_EQ(summary.exit_code, pipeline::kExitRuntimeError);
    EXPECT_EQ(summary.failed, 1u);
    EXPECT_EQ(jobs[0].outcome.exit_code, pipeline::kExitOk);
    EXPECT_NE(jobs[0].out_text.find("Use Case"), std::string::npos);
    EXPECT_EQ(jobs[1].outcome.exit_code, pipeline::kExitRuntimeError);
    EXPECT_NE(jobs[1].err_text.find("Cannot read trace"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Exit-code and validation conventions.

TEST(PipelineExitCodes, ValidationFailuresExitUsageError) {
    pipeline::RunPlan watch_corpus;
    watch_corpus.input = pipeline::InputKind::CorpusProgram;
    watch_corpus.target = "Contentfinder";
    watch_corpus.watch = true;
    watch_corpus.outputs = report_only();
    EXPECT_EQ(run_plan(watch_corpus).exit_code, pipeline::kExitUsageError);

    pipeline::RunPlan inc_json;
    inc_json.input = pipeline::InputKind::TraceFile;
    inc_json.target = "whatever.dst";
    inc_json.engine = pipeline::EngineChoice::Incremental;
    inc_json.outputs.json = true;
    const Text conflicted = run_plan(inc_json);
    EXPECT_EQ(conflicted.exit_code, pipeline::kExitUsageError);
    EXPECT_NE(conflicted.err.find("need the post-mortem engine"),
              std::string::npos);

    pipeline::RunPlan empty;
    EXPECT_FALSE(pipeline::PipelineRunner::validate(empty).empty());
}

TEST(PipelineExitCodes, RuntimeFailuresExitOne) {
    EXPECT_EQ(run_plan(app_plan("NoSuchApp", report_only())).exit_code,
              pipeline::kExitRuntimeError);

    pipeline::RunPlan missing;
    missing.input = pipeline::InputKind::TraceFile;
    missing.target = ::testing::TempDir() + "definitely_missing.dst";
    missing.outputs = report_only();
    const Text text = run_plan(missing);
    EXPECT_EQ(text.exit_code, pipeline::kExitRuntimeError);
    EXPECT_NE(text.err.find("Cannot read trace"), std::string::npos);
}

// A zero-byte file is an empty trace, not an unreadable one, with either
// engine.
TEST(PipelineExitCodes, EmptyTraceFileHasNoTraceData) {
    const std::string path = ::testing::TempDir() + "pipeline_empty.csv";
    std::ofstream(path, std::ios::binary).close();
    for (const auto engine : {pipeline::EngineChoice::Incremental,
                              pipeline::EngineChoice::Postmortem}) {
        pipeline::RunPlan plan;
        plan.input = pipeline::InputKind::TraceFile;
        plan.target = path;
        plan.engine = engine;
        plan.outputs = report_only();
        const Text text = run_plan(plan);
        EXPECT_EQ(text.exit_code, pipeline::kExitRuntimeError);
        EXPECT_EQ(text.err, "No trace data in " + path + "\n");
    }
    std::remove(path.c_str());
}

TEST(PipelineExitCodes, TraceWriteFailureStillEmitsButExitsOne) {
    pipeline::RunPlan plan = app_plan("WordWheelSolver", report_only());
    plan.trace_out = "/no-such-directory/sub/trace.csv";
    const Text text = run_plan(plan);
    EXPECT_EQ(text.exit_code, pipeline::kExitRuntimeError);
    EXPECT_NE(text.err.find("Failed to write trace to"), std::string::npos);
    EXPECT_NE(text.out.find("Use Case"), std::string::npos);
}

// ---------------------------------------------------------------------------
// One post-mortem trace type: either format loads into columns, and the
// HTML charts draw each instance from its column rows, so a DST1 and a
// CSV trace of the same run render the same report.

TEST(PipelineEventView, DstColumnPathHtmlMatchesCsvStorePath) {
    const std::string dst =
        record_trace("WordWheelSolver", runtime::TraceFormat::Binary);
    const std::string csv = ::testing::TempDir() + "pipeline_html_trace.csv";
    ASSERT_TRUE(runtime::write_trace_file(
        csv, runtime::read_trace_columns_file(dst), runtime::TraceFormat::Csv));
    const auto html_of = [](const std::string& path) {
        pipeline::RunPlan plan;
        plan.input = pipeline::InputKind::TraceFile;
        plan.target = path;
        plan.engine = pipeline::EngineChoice::Postmortem;
        plan.outputs.html_path = path + ".html";
        std::ostringstream out;
        std::ostringstream err;
        const pipeline::RunOutcome outcome =
            pipeline::PipelineRunner().run(plan, out, err);
        EXPECT_TRUE(outcome.ok()) << err.str();
        EXPECT_NE(outcome.column_trace, nullptr);
        std::ifstream in(plan.outputs.html_path, std::ios::binary);
        std::string html{std::istreambuf_iterator<char>(in), {}};
        std::remove(plan.outputs.html_path.c_str());
        return html;
    };
    const std::string from_columns = html_of(dst);
    EXPECT_NE(from_columns.find("<svg"), std::string::npos);
    EXPECT_EQ(from_columns.find("time (0 access events)"), std::string::npos);
    EXPECT_EQ(from_columns, html_of(csv));
    std::remove(dst.c_str());
    std::remove(csv.c_str());
}

// ---------------------------------------------------------------------------
// --threads plumbing.

TEST(PipelineThreads, ExplicitPoolWidthIsHonored) {
    par::ThreadPool pool(5);
    EXPECT_EQ(pool.thread_count(), 5u);
    par::ThreadPool hw(0);
    EXPECT_GE(hw.thread_count(), 1u);
}

TEST(PipelineThreads, EffectiveDefaultThreadsReflectsThePool) {
    EXPECT_GE(par::ThreadPool::effective_default_threads(), 1u);
    // Once the shared pool exists, the effective width IS its width, and
    // late set_default_threads calls cannot change it.
    const unsigned width = par::ThreadPool::default_pool().thread_count();
    EXPECT_EQ(par::ThreadPool::effective_default_threads(), width);
    par::ThreadPool::set_default_threads(width + 7);
    EXPECT_EQ(par::ThreadPool::effective_default_threads(), width);
    par::ThreadPool::set_default_threads(0);
}

}  // namespace
