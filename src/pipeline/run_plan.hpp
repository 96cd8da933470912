// Declarative description of one end-to-end DSspy job.
//
// The paper's Figure 4 draws DSspy as a single pipeline — instrumentation
// -> runtime profile -> pattern detection -> use-case classification ->
// recommendation.  A RunPlan is that pipeline as data: what to profile (an
// evaluation app, a recorded trace, or a corpus program), how to capture
// it, which analysis engine to run, and which outputs to emit.  The
// PipelineRunner (runner.hpp) executes a plan; the CLI is a thin parser
// that builds plans, and the batch driver (batch.hpp) executes many of
// them concurrently.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/detector_config.hpp"
#include "core/dsspy.hpp"
#include "core/incremental.hpp"
#include "runtime/session.hpp"
#include "runtime/trace_io.hpp"
#include "runtime/trace_mmap.hpp"

namespace dsspy::pipeline {

/// Where the job's events come from.
enum class InputKind {
    App,            ///< One of the seven evaluation apps, run instrumented.
    TraceFile,      ///< A recorded trace (CSV or DST1, auto-detected).
    CorpusProgram,  ///< An empirical-study workload replay.
};

/// Which analysis engine executes the plan.
enum class EngineChoice {
    Auto,        ///< Postmortem for live runs; streaming for plain trace reads.
    Postmortem,  ///< Materialize every event, analyze the finalized store.
    Incremental, ///< Fold events as they arrive; memory stays bounded.
};

/// The self-telemetry document printed to stdout when the job finishes.
enum class MetricsDoc {
    None,        ///< No metrics document on stdout.
    Prometheus,  ///< Prometheus text exposition format.
    Json,        ///< The JSON metrics document.
};

/// Which reports a job emits, in the fixed emission order: summary, report,
/// plan, advice, json, csv-usecases, csv-instances, csv-patterns, html,
/// metrics.
struct OutputSelection {
    bool summary = false;        ///< One-line-per-instance table.
    bool report = false;         ///< Table V style use-case report.
    bool plan = false;           ///< Transformation plan.
    bool advice = false;         ///< Structured advice as JSON.
    bool json = false;           ///< Full analysis as JSON.
    bool csv_usecases = false;
    bool csv_instances = false;
    bool csv_patterns = false;
    std::string html_path;       ///< Self-contained HTML report file.
    MetricsDoc metrics_doc = MetricsDoc::None;
    std::string metrics_out;     ///< Metrics JSON snapshot file.
    /// Chrome trace-event / Perfetto JSON span-tree file
    /// (`--trace-spans-out`).  Written by the caller AFTER the run's root
    /// span closes — not by emit_reports(), which runs inside the run
    /// while the root span is still open.
    std::string trace_spans_out;

    /// Outputs only the post-mortem engine can produce (they need
    /// materialized per-pattern data or the full event store).
    [[nodiscard]] bool needs_postmortem() const noexcept {
        return json || csv_patterns || plan || !html_path.empty();
    }

    /// True when at least one analysis output (not metrics) is requested.
    [[nodiscard]] bool any_analysis_output() const noexcept {
        return summary || report || plan || advice || json ||
               csv_usecases || csv_instances || csv_patterns ||
               !html_path.empty();
    }
};

/// How the runner narrates a trace re-emission on stderr.
enum class TraceNoteStyle {
    TraceNote,    ///< "Wrote trace to PATH" (run/corpus --trace).
    ConvertNote,  ///< "Wrote N events (fmt) to PATH" (dsspy convert).
};

/// One job, declaratively.  Field defaults reproduce `dsspy run <app>`.
struct RunPlan {
    InputKind input = InputKind::App;
    std::string target;  ///< App name | trace path | corpus program name.
    std::string label;   ///< Display name; defaults to `target` when empty.

    EngineChoice engine = EngineChoice::Auto;
    /// Run the workload with live incremental snapshots (App input only;
    /// forces the incremental engine).
    bool watch = false;
    int snapshot_interval_ms = 500;

    /// Re-emit the raw trace to this path (needs the post-mortem engine).
    std::string trace_out;
    std::optional<runtime::TraceFormat> trace_format;
    TraceNoteStyle trace_note = TraceNoteStyle::TraceNote;

    core::DetectorConfig config{};
    OutputSelection outputs{};

    [[nodiscard]] const std::string& display_name() const noexcept {
        return label.empty() ? target : label;
    }

    /// The engine the runner will actually use for this plan.
    [[nodiscard]] EngineChoice resolved_engine() const noexcept {
        if (watch) return EngineChoice::Incremental;
        if (engine != EngineChoice::Auto) return engine;
        if (input == InputKind::TraceFile)
            return outputs.needs_postmortem() || !trace_out.empty()
                       ? EngineChoice::Postmortem
                       : EngineChoice::Incremental;
        return EngineChoice::Postmortem;
    }
};

/// Process exit conventions shared by the runner and the CLI: usage and
/// plan-validation errors exit 2, runtime failures exit 1.
inline constexpr int kExitOk = 0;
inline constexpr int kExitRuntimeError = 1;
inline constexpr int kExitUsageError = 2;

/// Typed result of executing one RunPlan.  Exactly one of `analysis` /
/// `stream` is engaged on success (postmortem vs incremental engine; both
/// hold the same result type, but only `analysis` carries the analyzed
/// columns and patterns); the outcome owns the session or trace backing
/// them, because a post-mortem result points at their columns.
struct RunOutcome {
    int exit_code = kExitOk;
    std::string label;       ///< The plan's display name.
    std::string error;       ///< Diagnostic when exit_code != 0.

    bool has_checksum = false;
    double checksum = 0.0;        ///< Workload checksum (App input).
    std::uint64_t events = 0;     ///< Events analyzed (or converted).
    std::size_t orphan_events = 0;
    std::uint64_t wall_ns = 0;    ///< Wall-clock of the whole job.

    std::optional<core::AnalysisResult> analysis;  ///< Post-mortem result.
    std::optional<core::AnalysisResult> stream;    ///< Incremental result.

    /// Backing storage for `analysis`: the session of a live run, or the
    /// columns a post-mortem trace run loaded (either format, DESIGN.md
    /// §7 and §11; their `seq` column is released once written).
    std::unique_ptr<runtime::ProfilingSession> session;
    std::unique_ptr<runtime::ColumnTrace> column_trace;

    [[nodiscard]] bool ok() const noexcept { return exit_code == kExitOk; }

    /// Whichever of `analysis` / `stream` is engaged (nullptr when neither
    /// is): what every engine-agnostic sink renders from.
    [[nodiscard]] const core::AnalysisResult* result() const noexcept {
        if (analysis) return &*analysis;
        return stream ? &*stream : nullptr;
    }
};

}  // namespace dsspy::pipeline
