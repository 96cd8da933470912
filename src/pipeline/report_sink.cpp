#include "pipeline/report_sink.hpp"

#include <ostream>
#include <string>
#include <vector>

#include "core/export.hpp"
#include "core/report.hpp"
#include "core/transform_plan.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/self_overhead.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "viz/html_report.hpp"

namespace dsspy::pipeline {

namespace {

/// Self-telemetry snapshot: the `dsspy metrics` stdout document and/or the
/// `--metrics-out` JSON file.  The self-overhead estimate needs a capture
/// window, so it appears only when the outcome carries a session (offline
/// trace analysis does not).
bool emit_metrics(const OutputSelection& outputs, const RunOutcome& outcome,
                  std::ostream& out, std::ostream& err) {
    if (!obs::enabled()) return true;
    auto& reg = obs::MetricsRegistry::global();
    static const obs::MetricId rss_metric =
        reg.gauge("process.peak_rss_bytes");
    reg.gauge_max(rss_metric, obs::sample_peak_rss_bytes());
    obs::SelfOverhead overhead;
    const obs::SelfOverhead* overhead_ptr = nullptr;
    if (outcome.session != nullptr) {
        overhead = obs::estimate_self_overhead(
            outcome.session->events_recorded(),
            outcome.session->capture_duration_ns(),
            runtime::ProfilingSession::kTimestampStride);
        overhead_ptr = &overhead;
    }
    const std::vector<obs::MetricValue> metrics = reg.collect();
    if (outputs.metrics_doc == MetricsDoc::Json) {
        obs::write_metrics_json(out, metrics, overhead_ptr);
    } else if (outputs.metrics_doc == MetricsDoc::Prometheus) {
        obs::write_metrics_prometheus(out, metrics, overhead_ptr);
    }
    const std::string& path = outputs.metrics_out;
    if (path.empty()) return true;
    if (obs::write_metrics_json_file(path, metrics, overhead_ptr)) {
        err << "Wrote metrics to " << path << '\n';
        return true;
    }
    err << "Failed to write metrics to " << path << '\n';
    return false;
}

}  // namespace

bool emit_reports(const OutputSelection& outputs, const RunOutcome& outcome,
                  std::ostream& out, std::ostream& err) {
    // Either engine's result; the post-mortem-only formats read
    // outcome.analysis.
    const core::AnalysisResult* result = outcome.result();
    const core::AnalysisResult* analysis =
        outcome.analysis ? &*outcome.analysis : nullptr;
    bool ok = true;
    if (outputs.summary) {
        if (result != nullptr) core::print_instance_summary(out, *result);
        out << '\n';
    }
    if (outputs.report && result != nullptr)
        core::print_report_with_footer(out, *result);
    if (outputs.plan && analysis != nullptr)
        core::print_transform_plan(out, core::plan_transformations(*analysis));
    if (outputs.advice && result != nullptr)
        core::write_advice_json(out, *result);
    if (outputs.json && analysis != nullptr)
        core::write_analysis_json(out, *analysis);
    if (outputs.csv_usecases && result != nullptr)
        core::write_use_cases_csv(out, *result);
    if (outputs.csv_instances && result != nullptr)
        core::write_instances_csv(out, *result);
    if (outputs.csv_patterns && analysis != nullptr)
        core::write_patterns_csv(out, *analysis);
    if (!outputs.html_path.empty() && analysis != nullptr) {
        if (viz::write_html_report_file(outputs.html_path, *analysis)) {
            err << "Wrote " << outputs.html_path << '\n';
        } else {
            err << "Failed to write " << outputs.html_path << '\n';
            ok = false;
        }
    }
    if (outputs.metrics_doc != MetricsDoc::None ||
        !outputs.metrics_out.empty())
        ok = emit_metrics(outputs, outcome, out, err) && ok;
    return ok;
}

bool write_trace_spans(const std::string& path, std::ostream& err) {
    if (path.empty()) return true;
    const std::vector<obs::SpanRecord> spans =
        obs::TraceRecorder::global().snapshot();
    if (obs::write_trace_json_file(path, spans)) {
        err << "Wrote trace spans to " << path << '\n';
        return true;
    }
    err << "Failed to write trace spans to " << path << '\n';
    return false;
}

}  // namespace dsspy::pipeline
