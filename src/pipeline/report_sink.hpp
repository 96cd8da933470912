// Pluggable report emitters for pipeline run outcomes.
//
// The seed CLI grew three divergent emitters (emit_outputs for post-mortem
// results, emit_stream_outputs for streaming reports, emit_metrics for the
// self-telemetry documents).  ReportSink unifies them: every output format
// is one sink; build_sinks() assembles the sinks a plan requests in the
// canonical emission order, and emit_reports() runs them over an outcome.
// Most sinks render RunOutcome::result(), which either engine fills.  The
// post-mortem sinks (plan, json, csv-patterns, html) need patterns (and
// the HTML charts the analyzed columns), so they render only
// `outcome.analysis` and emit nothing for an incremental outcome; plan
// validation rejects those combinations up front
// (OutputSelection::needs_postmortem).
#pragma once

#include <iosfwd>
#include <memory>
#include <string_view>
#include <vector>

#include "pipeline/run_plan.hpp"

namespace dsspy::pipeline {

/// One output format.  Sinks are stateless between jobs apart from their
/// construction parameters (e.g. an HTML file path), so one sink list can
/// be reused across outcomes.
class ReportSink {
public:
    virtual ~ReportSink() = default;

    /// Stable name for diagnostics ("report", "json", "html", ...).
    [[nodiscard]] virtual std::string_view name() const noexcept = 0;

    /// Render the outcome.  `out` is the job's primary stream (stdout for
    /// the CLI); `err` carries side-channel notes ("Wrote FILE").
    /// Returns false when the sink failed (e.g. an unwritable HTML path);
    /// emit_reports() folds failures into the job exit code.
    virtual bool emit(const RunOutcome& outcome, std::ostream& out,
                      std::ostream& err) = 0;
};

/// The sinks `outputs` requests, in canonical emission order (summary,
/// report, plan, advice, json, csv-usecases, csv-instances, csv-patterns,
/// html, metrics) — the order the seed CLI emitted, so output stays
/// byte-identical.
[[nodiscard]] std::vector<std::unique_ptr<ReportSink>> build_sinks(
    const OutputSelection& outputs);

/// Run every requested sink over `outcome`.  Returns false when any sink
/// failed.
bool emit_reports(const OutputSelection& outputs, const RunOutcome& outcome,
                  std::ostream& out, std::ostream& err);

/// Write the global TraceRecorder's span snapshot to `path` as Chrome
/// trace-event JSON ("Wrote trace spans to PATH" on `err`).  Call AFTER
/// the job's root span has closed so the tree is complete.  Returns false
/// (and notes the failure on `err`) when the file cannot be written; a
/// no-op returning true when `path` is empty.
bool write_trace_spans(const std::string& path, std::ostream& err);

}  // namespace dsspy::pipeline
