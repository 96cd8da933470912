#include "serve/tenant.hpp"

#include <sstream>
#include <utility>

#include "core/export.hpp"
#include "core/report.hpp"

namespace dsspy::serve {

const char* tenant_state_name(TenantState state) {
    switch (state) {
        case TenantState::Streaming: return "streaming";
        case TenantState::Finished: return "finished";
        case TenantState::Aborted: return "aborted";
    }
    return "unknown";
}

TenantSession::TenantSession(std::uint32_t id, std::string name,
                             core::DetectorConfig config,
                             std::size_t max_instances)
    : id_(id),
      name_(std::move(name)),
      max_instances_(max_instances),
      analyzer_(config),
      root_span_(obs::TraceRecorder::global().begin_span("serve.tenant")) {}

TenantSession::~TenantSession() {
    // Evicted or dropped without finalization: close the root span so the
    // tree it anchors still exports.  finish()/abort() already ended it
    // for every other path.
    if (state_ == TenantState::Streaming)
        obs::TraceRecorder::global().end_span(
            root_span_, "tenant=" + name_ + " state=dropped");
}

void TenantSession::on_instance(const runtime::InstanceInfo& info) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (instances_.size() >= max_instances_)
            throw TenantLimitError(
                "tenant instance limit exceeded (" +
                std::to_string(max_instances_) + ")");
        instances_.push_back(info);
    }
    analyzer_.declare_instance(info);
}

void TenantSession::on_events(std::span<const runtime::AccessEvent> events) {
    DSSPY_TRACE_SPAN_UNDER("serve.fold", root_span_.ctx);
    analyzer_.fold(events);
}

void TenantSession::add_frame(std::uint64_t bytes) {
    const std::lock_guard<std::mutex> lock(mutex_);
    frames_ += 1;
    bytes_ += bytes;
}

std::uint64_t TenantSession::count_orphans(
    const core::AnalysisResult& result) {
    std::uint64_t declared = 0;
    for (const core::InstanceAnalysis& ia : result.instances())
        declared += ia.stats.total;
    const std::uint64_t total = result.total_events();
    return total > declared ? total - declared : 0;
}

void TenantSession::fill_report_fields(const core::AnalysisResult& result) {
    orphan_events_ = count_orphans(result);
    flagged_ = result.flagged_instances();
    // The CLI's --report rendering, which keeps tenant reports
    // byte-identical to `dsspy analyze`.
    std::ostringstream os;
    core::print_report_with_footer(os, result);
    final_report_ = os.str();
    std::ostringstream advice_os;
    core::write_advice_json(advice_os, result);
    final_advice_ = advice_os.str();
}

void TenantSession::finish() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (state_ != TenantState::Streaming) return;
    {
        DSSPY_TRACE_SPAN_UNDER("serve.finalize", root_span_.ctx);
        fill_report_fields(analyzer_.finish(instances_));
    }
    state_ = TenantState::Finished;
    obs::TraceRecorder::global().end_span(
        root_span_, "tenant=" + name_ + " state=finished");
}

void TenantSession::abort(std::string reason) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (state_ != TenantState::Streaming) return;
    // Finalize the received prefix: same reduction, partial input.  The
    // report stays byte-identical to an offline analysis of those bytes.
    {
        DSSPY_TRACE_SPAN_UNDER("serve.finalize", root_span_.ctx);
        fill_report_fields(analyzer_.finish(instances_));
    }
    state_ = TenantState::Aborted;
    error_ = std::move(reason);
    obs::TraceRecorder::global().end_span(
        root_span_, "tenant=" + name_ + " state=aborted");
}

TenantSummary TenantSession::summary() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    TenantSummary out;
    out.id = id_;
    out.name = name_;
    out.state = state_;
    out.bytes = bytes_;
    out.frames = frames_;
    out.events = analyzer_.events_folded();
    out.instances = instances_.size();
    out.orphan_events = orphan_events_;
    out.flagged = flagged_;
    out.error = error_;
    return out;
}

std::string TenantSession::report_text() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (state_ != TenantState::Streaming) return final_report_;
    // Live view: virtual flush on a copy, stream state undisturbed.
    std::ostringstream os;
    core::print_report_with_footer(os, analyzer_.snapshot(instances_));
    return os.str();
}

std::string TenantSession::advice_json() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (state_ != TenantState::Streaming) return final_advice_;
    // Live view: virtual flush on a copy, stream state undisturbed.
    std::ostringstream os;
    core::write_advice_json(os, analyzer_.snapshot(instances_));
    return os.str();
}

std::string TenantSession::summary_line() const {
    const TenantSummary s = summary();
    std::ostringstream os;
    os << "tenant " << s.id << " (" << s.name << "): "
       << tenant_state_name(s.state) << ", " << s.events << " events, "
       << s.instances << " instances, " << s.flagged << " flagged, "
       << s.orphan_events << " orphan";
    if (!s.error.empty()) os << " [" << s.error << "]";
    return os.str();
}

}  // namespace dsspy::serve
