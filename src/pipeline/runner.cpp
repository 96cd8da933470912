#include "pipeline/runner.hpp"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "apps/app_registry.hpp"
#include "corpus/program_model.hpp"
#include "corpus/workload.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/report_sink.hpp"
#include "support/stopwatch.hpp"

namespace dsspy::pipeline {

namespace {

/// Feeds a streamed trace into the incremental analyzer, collecting the
/// instance table on the way.  Trace files written by write_trace emit
/// each instance's events in seq order, which is exactly the fold order
/// the analyzer requires.
class AnalyzerTraceSink final : public runtime::TraceSink {
public:
    explicit AnalyzerTraceSink(core::IncrementalAnalyzer& analyzer)
        : analyzer_(analyzer) {}

    void on_instance(const runtime::InstanceInfo& info) override {
        instances.push_back(info);
        analyzer_.declare_instance(info);
    }

    void on_events(std::span<const runtime::AccessEvent> events) override {
        analyzer_.fold(events);
    }

    std::vector<runtime::InstanceInfo> instances;

private:
    core::IncrementalAnalyzer& analyzer_;
};

/// The session summary line live app runs print to stderr; orphan
/// (store-only) events are surfaced when present — they indicate events
/// recorded against ids the registry never issued.
void print_session_summary(std::ostream& err, const std::string& name,
                           double checksum,
                           const runtime::ProfilingSession& session) {
    err << name << ": checksum " << checksum << ", "
        << session.store().total_events() << " events";
    const std::size_t orphans = session.orphan_events();
    if (orphans > 0) err << ", " << orphans << " orphan";
    err << '\n';
}

RunOutcome fail_runtime(std::string label, std::string message,
                        std::ostream& err) {
    err << message << '\n';
    RunOutcome outcome;
    outcome.exit_code = kExitRuntimeError;
    outcome.label = std::move(label);
    outcome.error = std::move(message);
    return outcome;
}

/// The on-disk encoding a plan's trace re-emission uses: convert defaults
/// to the compact binary format, `--trace` side-writes default to CSV.
runtime::TraceFormat trace_out_format(const RunPlan& plan) {
    return plan.trace_format.value_or(
        plan.trace_note == TraceNoteStyle::ConvertNote
            ? runtime::TraceFormat::Binary
            : runtime::TraceFormat::Csv);
}

}  // namespace

par::ThreadPool& PipelineRunner::pool() const {
    return analysis_pool_ != nullptr ? *analysis_pool_
                                     : par::ThreadPool::default_pool();
}

std::string PipelineRunner::validate(const RunPlan& plan) {
    if (plan.target.empty()) return "missing target for the run plan";
    if (plan.watch && plan.input != InputKind::App)
        return "watch requires an app target (try `dsspy list`)";
    const EngineChoice engine = plan.resolved_engine();
    if (engine == EngineChoice::Incremental &&
        plan.outputs.needs_postmortem())
        return "--json/--html/--csv-patterns/--plan need the post-mortem "
               "engine (drop --incremental)";
    if (engine == EngineChoice::Incremental && !plan.trace_out.empty())
        return "--trace needs the post-mortem engine (drop --incremental)";
    return {};
}

RunOutcome PipelineRunner::run(const RunPlan& plan, std::ostream& out,
                               std::ostream& err,
                               const WatchCallback& on_tick) const {
    const std::uint64_t start_ns = support::now_ns();
    RunOutcome outcome;
    if (std::string problem = validate(plan); !problem.empty()) {
        err << problem << '\n';
        outcome.exit_code = kExitUsageError;
        outcome.label = plan.display_name();
        outcome.error = std::move(problem);
        return outcome;
    }
    {
        // One root span per run; every capture/trace-IO/analysis span
        // below nests under it (pool shards via explicit contexts).  The
        // scope closes before the span file is written so the exported
        // tree is complete.
        static const obs::MetricId run_metric = obs::span_metric("run");
        obs::ScopedSpan run_span("run", run_metric);
        run_span.annotate("target", plan.display_name());
        outcome = plan.input == InputKind::TraceFile
                      ? run_trace(plan, out, err)
                      : run_live(plan, out, err, on_tick);
    }
    write_trace_spans(plan.outputs.trace_spans_out, err);
    outcome.wall_ns = support::now_ns() - start_ns;
    return outcome;
}

RunOutcome PipelineRunner::run_trace(const RunPlan& plan, std::ostream& out,
                                     std::ostream& err) const {
    RunOutcome outcome;
    outcome.label = plan.display_name();

    if (plan.resolved_engine() == EngineChoice::Incremental) {
        // Default path: stream the trace chunk-by-chunk through the
        // incremental analyzer — memory stays bounded by the live-instance
        // state, not the trace size.
        core::IncrementalAnalyzer incremental(plan.config);
        AnalyzerTraceSink sink(incremental);
        std::size_t events = 0;
        try {
            events = runtime::read_trace_stream_file(plan.target, sink);
        } catch (const std::runtime_error& e) {
            return fail_runtime(outcome.label,
                                "Cannot read trace " + plan.target + ": " +
                                    e.what(),
                                err);
        }
        if (sink.instances.empty() && events == 0)
            return fail_runtime(outcome.label,
                                "No trace data in " + plan.target, err);
        outcome.events = events;
        outcome.stream = incremental.finish(sink.instances);
        if (!emit_reports(plan.outputs, outcome, out, err))
            outcome.exit_code = kExitRuntimeError;
        return outcome;
    }

    // Post-mortem: load the whole trace, either format, into columns.
    auto trace = std::make_unique<runtime::ColumnTrace>();
    try {
        *trace = runtime::read_trace_columns_file(plan.target, &pool());
    } catch (const std::runtime_error& e) {
        return fail_runtime(outcome.label,
                            "Cannot read trace " + plan.target + ": " +
                                e.what(),
                            err);
    }
    const std::size_t events = trace->columns.total_events();
    if (trace->instances.empty() && events == 0)
        return fail_runtime(outcome.label, "No trace data in " + plan.target,
                            err);
    outcome.events = events;

    if (!plan.trace_out.empty()) {
        const runtime::TraceFormat format = trace_out_format(plan);
        const bool wrote =
            runtime::write_trace_file(plan.trace_out, *trace, format);
        if (plan.trace_note == TraceNoteStyle::ConvertNote) {
            // Re-encoding is the whole job: a failed write is terminal.
            if (!wrote)
                return fail_runtime(outcome.label,
                                    "Failed to write " + plan.trace_out, err);
            err << "Wrote " << events << " events ("
                << (format == runtime::TraceFormat::Binary ? "binary" : "csv")
                << ") to " << plan.trace_out << '\n';
        } else if (wrote) {
            err << "Wrote trace to " << plan.trace_out << '\n';
        } else {
            err << "Failed to write trace to " << plan.trace_out << '\n';
            outcome.exit_code = kExitRuntimeError;
            outcome.error = "Failed to write trace to " + plan.trace_out;
        }
    }
    // Only the writers read the seq column; the analysis reads the rest.
    trace->seq.reset();

    if (plan.outputs.any_analysis_output()) {
        const core::Dsspy analyzer(plan.config);
        outcome.analysis =
            analyzer.analyze(trace->instances, trace->columns, &pool());
    }
    outcome.column_trace = std::move(trace);
    if (!emit_reports(plan.outputs, outcome, out, err))
        outcome.exit_code = kExitRuntimeError;
    return outcome;
}

RunOutcome PipelineRunner::run_live(const RunPlan& plan, std::ostream& out,
                                    std::ostream& err,
                                    const WatchCallback& on_tick) const {
    RunOutcome outcome;
    outcome.label = plan.display_name();

    const apps::AppInfo* app = nullptr;
    const corpus::ProgramModel* program = nullptr;
    if (plan.input == InputKind::App) {
        app = apps::find_app(plan.target);
        if (app == nullptr)
            return fail_runtime(outcome.label,
                                "Unknown app: " + plan.target +
                                    " (try `dsspy list`)",
                                err);
    } else {
        for (const corpus::ProgramModel& m : corpus::all_programs())
            if (m.name == plan.target) program = &m;
        if (program == nullptr)
            return fail_runtime(outcome.label,
                                "Unknown corpus program: " + plan.target +
                                    " (try `dsspy list`)",
                                err);
    }

    const auto run_workload = [&](runtime::ProfilingSession* session) {
        if (app != nullptr) {
            outcome.checksum = app->run_sequential(session).checksum;
            outcome.has_checksum = true;
        } else if (program->in_eval23) {
            corpus::run_eval_workload(*program, session);
        } else {
            corpus::run_study15_workload(*program, session);
        }
    };

    if (plan.resolved_engine() == EngineChoice::Incremental) {
        // The analyzer folds events as the collector drains them live;
        // AnalysisMode::Incremental keeps the store empty and frees each
        // chunk once drained — memory stays bounded however long the
        // workload runs.
        auto session = std::make_unique<runtime::ProfilingSession>(
            runtime::CaptureMode::Buffered, 64 * 1024,
            runtime::AnalysisMode::Incremental);
        core::IncrementalAnalyzer incremental(plan.config);
        core::attach_incremental(*session, incremental);

        if (plan.watch) {
            std::mutex done_mutex;
            std::condition_variable done_cv;
            bool done = false;
            std::thread worker([&] {
                run_workload(session.get());
                const std::scoped_lock lock(done_mutex);
                done = true;
                done_cv.notify_one();
            });
            const auto interval =
                std::chrono::milliseconds(plan.snapshot_interval_ms);
            std::unique_lock lock(done_mutex);
            // A tick fires each interval; the workload's end cuts the
            // current wait short.
            while (!done_cv.wait_for(lock, interval, [&] { return done; })) {
                if (!on_tick) continue;
                lock.unlock();
                const core::AnalysisResult snap =
                    core::Dsspy::snapshot(incremental, *session);
                on_tick(WatchTick{snap, session->events_recorded(),
                                  incremental.events_folded()});
                lock.lock();
            }
            lock.unlock();
            worker.join();
        } else {
            run_workload(session.get());
        }
        session->stop();
        if (app != nullptr)
            err << app->name << ": checksum " << outcome.checksum << ", "
                << incremental.events_folded() << " events\n";
        outcome.events = incremental.events_folded();
        outcome.stream = core::Dsspy::finish(incremental, *session);
        outcome.session = std::move(session);
        if (!emit_reports(plan.outputs, outcome, out, err))
            outcome.exit_code = kExitRuntimeError;
        return outcome;
    }

    auto session = std::make_unique<runtime::ProfilingSession>();
    run_workload(session.get());
    session->stop();
    outcome.events = session->store().total_events();
    outcome.orphan_events = session->orphan_events();
    if (app != nullptr) {
        print_session_summary(err, app->name, outcome.checksum, *session);
    } else if (outcome.orphan_events > 0) {
        err << program->name << ": " << outcome.orphan_events
            << " orphan events\n";
    }

    if (!plan.trace_out.empty()) {
        if (runtime::write_trace_file(plan.trace_out, *session,
                                      trace_out_format(plan))) {
            err << "Wrote trace to " << plan.trace_out << '\n';
        } else {
            err << "Failed to write trace to " << plan.trace_out << '\n';
            outcome.exit_code = kExitRuntimeError;
            outcome.error = "Failed to write trace to " + plan.trace_out;
        }
    }

    // Live post-mortem plans always analyze, even with no analysis output
    // selected (`dsspy metrics`): the run fills the analyze-stage span
    // histograms the metrics document reports on.
    const core::Dsspy analyzer(plan.config);
    outcome.analysis = analyzer.analyze(*session, &pool());
    outcome.session = std::move(session);
    if (!emit_reports(plan.outputs, outcome, out, err))
        outcome.exit_code = kExitRuntimeError;
    return outcome;
}

}  // namespace dsspy::pipeline
