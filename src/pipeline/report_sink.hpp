// Report emission for pipeline run outcomes.
//
// emit_reports() renders every output format a plan selects, in one
// canonical order (summary, report, plan, advice, json, csv-usecases,
// csv-instances, csv-patterns, html, metrics) — the order the seed CLI
// emitted, so output stays byte-identical.  Most formats render
// RunOutcome::result(), which either engine fills.  The post-mortem
// formats (plan, json, csv-patterns, html) need patterns (and the HTML
// charts the analyzed columns), so they render only `outcome.analysis`
// and emit nothing for an incremental outcome; plan validation rejects
// those combinations up front (OutputSelection::needs_postmortem).
#pragma once

#include <iosfwd>
#include <string>

#include "pipeline/run_plan.hpp"

namespace dsspy::pipeline {

/// Render every output `outputs` selects over `outcome`.  `out` is the
/// job's primary stream (stdout for the CLI); `err` carries side-channel
/// notes ("Wrote FILE").  Returns false when any output failed (e.g. an
/// unwritable HTML path); the caller folds that into the job exit code.
bool emit_reports(const OutputSelection& outputs, const RunOutcome& outcome,
                  std::ostream& out, std::ostream& err);

/// Write the global TraceRecorder's span snapshot to `path` as Chrome
/// trace-event JSON ("Wrote trace spans to PATH" on `err`).  Call AFTER
/// the job's root span has closed so the tree is complete.  Returns false
/// (and notes the failure on `err`) when the file cannot be written; a
/// no-op returning true when `path` is empty.
bool write_trace_spans(const std::string& path, std::ostream& err);

}  // namespace dsspy::pipeline
