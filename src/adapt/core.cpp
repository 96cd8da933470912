#include "adapt/core.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dsspy::adapt {

namespace {

/// Self-telemetry for the adaptive layer (registered once, shared by all
/// instances; no-ops while obs is disabled).
struct AdaptMetrics {
    obs::MetricId switches;
    obs::MetricId reclassifications;
    obs::MetricId suppressed;

    static const AdaptMetrics& get() {
        static const AdaptMetrics m{
            obs::MetricsRegistry::global().counter("adapt.switches"),
            obs::MetricsRegistry::global().counter(
                "adapt.reclassifications"),
            obs::MetricsRegistry::global().counter(
                "adapt.suppressed_switches"),
        };
        return m;
    }
};

}  // namespace

AdaptiveCore::AdaptiveCore(const AdaptConfig& config, runtime::DsKind kind,
                           std::string type_name,
                           support::SourceLoc location)
    : config_(config),
      info_{.id = 0,
            .kind = kind,
            .type_name = std::move(type_name),
            .location = std::move(location)},
      engine_(config.detector),
      controller_(config.controller),
      fold_(config_.detector, kind) {}

void AdaptiveCore::fold(runtime::OpKind op, std::int64_t position) const {
    runtime::AccessEvent ev;
    ev.position = position;
    ev.instance = info_.id;
    ev.size = static_cast<std::uint32_t>(element_count());
    ev.op = op;
    // A process-wide compact thread slot: the adaptive containers have no
    // ProfilingSession to assign dense ids.
    static std::atomic<std::uint16_t> next_slot{0};
    thread_local const std::uint16_t slot =
        next_slot.fetch_add(1, std::memory_order_relaxed);
    ev.thread = slot;
    const std::lock_guard<std::mutex> guard(fold_mutex_);
    ev.seq = seq_++;
    ev.time_ns = ev.seq;  // Logical clock: classification under the
                          // default config is event-based.
    fold_.step(ev);
}

std::vector<core::UseCase> AdaptiveCore::classify() const {
    std::unique_lock guard(fold_mutex_);
    core::InstanceFold flushed = fold_;
    guard.unlock();
    flushed.patterns.finish();
    return engine_.classify(flushed.to_stats(info_));
}

void AdaptiveCore::reclassify() const {
    const std::vector<core::UseCase> verdicts = classify();
    std::vector<AdviceSignal> signals;
    signals.reserve(verdicts.size());
    for (const core::UseCase& uc : verdicts)
        signals.push_back({uc.advice.action, uc.confidence()});
    const std::uint64_t now = ops_.load(std::memory_order_relaxed);
    const std::size_t delta =
        static_cast<std::size_t>(now - last_observed_ops_);
    last_observed_ops_ = now;
    const Strategy before = controller_.current();
    const std::size_t suppressed_before = controller_.suppressed_count();
    const Strategy after = controller_.observe(
        signals.data(), signals.size(), element_count(), delta);
    if (obs::enabled()) {
        const auto& m = AdaptMetrics::get();
        obs::MetricsRegistry::global().add(m.reclassifications);
        const std::size_t newly_suppressed =
            controller_.suppressed_count() - suppressed_before;
        if (newly_suppressed > 0)
            obs::MetricsRegistry::global().add(m.suppressed,
                                               newly_suppressed);
    }
    if (after == before) return;
    DSSPY_TRACE_SPAN("adapt.switch");
    if (obs::enabled())
        obs::MetricsRegistry::global().add(AdaptMetrics::get().switches);
    migrate(before, after);
}

}  // namespace dsspy::adapt
