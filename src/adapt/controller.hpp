// Damped hysteresis controller for the adaptive container layer.
//
// An adaptive container periodically reclassifies its own access stream
// (via an embedded core::InstanceFold) and asks this controller which
// backing strategy to run.  Raw verdicts flap: a Frequent-Search verdict
// appears the moment the search threshold is crossed, disappears when an
// insert burst dilutes the ratios, and reappears two phases later.
// Acting on every verdict would thrash — each strategy switch costs a
// full O(n) migration of the backing store.  The controller damps this
// three ways:
//
//   * EWMA         — per-action confidence is exponentially smoothed, so
//                    one outlier reclassification cannot flip the choice.
//   * Dual bands   — a strategy is adopted when its score crosses the
//                    enter threshold but only abandoned when it falls
//                    below the (lower) exit threshold.
//   * Switch cost  — a switch is allowed only after min_dwell_ops
//                    operations since the last one AND after enough
//                    operations to amortize the O(n) migration
//                    (switch_cost_factor × container size).
//
// The controller is strategy-vocabulary only: it never touches elements.
// Containers own the migration; the controller owns the decision and the
// thrash accounting (BENCH_closed_loop.json pins the switch counts).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "core/advice.hpp"

namespace dsspy::adapt {

/// Backing strategies an adaptive container can run.
enum class Strategy : std::uint8_t {
    Sequential,   ///< Plain contiguous backing, linear algorithms.
    Indexed,      ///< Contiguous backing plus a value -> index dictionary
                  ///< (the paper's Frequent-Search remedy).
    Parallel,     ///< Contiguous backing; whole-container reads fan out
                  ///< over parallel::ThreadPool (Frequent-Long-Read /
                  ///< Long-Insert remedy).
    DequeBacked,  ///< Double-ended backing: O(1) front traffic
                  ///< (Implement-Queue / Insert-Delete-Front remedy).
    Count,
};

inline constexpr std::size_t kStrategyCount =
    static_cast<std::size_t>(Strategy::Count);

[[nodiscard]] constexpr std::string_view strategy_name(
    Strategy s) noexcept {
    switch (s) {
        case Strategy::Sequential: return "Sequential";
        case Strategy::Indexed: return "Indexed";
        case Strategy::Parallel: return "Parallel";
        case Strategy::DequeBacked: return "DequeBacked";
        case Strategy::Count: break;
    }
    return "?";
}

/// Which strategy executes an advice action inside a container.  Actions
/// that advise a source-level change with no container-side remedy
/// (UseStack, DropWrites) map to Sequential.
[[nodiscard]] constexpr Strategy strategy_for(
    core::AdviceAction action) noexcept {
    switch (action) {
        case core::AdviceAction::BuildIndex: return Strategy::Indexed;
        case core::AdviceAction::ParallelInsert:
        case core::AdviceAction::ParallelPhases:
        case core::AdviceAction::ParallelForAll:
            return Strategy::Parallel;
        case core::AdviceAction::ParallelContainer:
        case core::AdviceAction::UseDeque:
            return Strategy::DequeBacked;
        default:
            return Strategy::Sequential;
    }
}

/// Damping knobs; defaults hold the ISSUE's phase-change bound (≤ 3
/// switches on an insert→search→insert→search workload).
struct ControllerConfig {
    /// EWMA smoothing factor in (0, 1]: the weight of the newest
    /// reclassification (1.0 = no smoothing).
    double ewma_alpha = 0.4;
    /// Smoothed score a challenger strategy must reach to be adopted.
    double enter_threshold = 0.5;
    /// Smoothed score the incumbent must drop below to be abandoned
    /// (lower than enter_threshold: the hysteresis band).
    double exit_threshold = 0.25;
    /// Operations that must pass after a switch before the next one.
    std::size_t min_dwell_ops = 256;
    /// Each completed switch multiplies the required dwell by this
    /// factor: a container that keeps changing its mind meets escalating
    /// resistance, so an alternating-phase workload converges to a
    /// bounded switch count instead of chasing every phase.
    double dwell_backoff = 2.0;
    /// Additionally require ops-since-switch >= factor × container size,
    /// so the O(n) migration is amortized before it can recur.
    double switch_cost_factor = 0.5;
};

/// One advice observation: the winning action of a reclassification.
struct AdviceSignal {
    core::AdviceAction action = core::AdviceAction::Count;  ///< Count = none.
    double confidence = 0.0;
};

/// The damped decision state for one container instance.  Not
/// thread-safe: containers call it under their write lock.
class HysteresisController {
public:
    explicit HysteresisController(ControllerConfig config = {});

    /// Fold one reclassification outcome (the verdict signals of this
    /// instance) and return the strategy to run from now on.  `size` is
    /// the current element count; `ops_delta` the operations executed
    /// since the previous observe() call.
    Strategy observe(const AdviceSignal* signals, std::size_t signal_count,
                     std::size_t size, std::size_t ops_delta);

    [[nodiscard]] Strategy current() const noexcept { return current_; }

    /// Completed strategy migrations (the thrash counter).
    [[nodiscard]] std::size_t switch_count() const noexcept {
        return switches_;
    }

    /// Switches that the damping suppressed (would have fired on raw
    /// verdicts); the closed-loop bench reports this next to the thrash
    /// counter.
    [[nodiscard]] std::size_t suppressed_count() const noexcept {
        return suppressed_;
    }

    /// Smoothed per-action score (EWMA of reclassification confidence).
    /// AdviceAction::Count (the "no action" sentinel) scores 0.
    [[nodiscard]] double score(core::AdviceAction action) const noexcept {
        const auto index = static_cast<std::size_t>(action);
        return index < scores_.size() ? scores_[index] : 0.0;
    }

    [[nodiscard]] const ControllerConfig& config() const noexcept {
        return config_;
    }

private:
    ControllerConfig config_;
    std::array<double, core::kAdviceActionCount> scores_{};
    Strategy current_ = Strategy::Sequential;
    /// The action that justified the current (non-Sequential) strategy.
    core::AdviceAction incumbent_ = core::AdviceAction::Count;
    std::size_t ops_since_switch_ = 0;
    bool ever_switched_ = false;
    std::size_t switches_ = 0;
    std::size_t suppressed_ = 0;
};

}  // namespace dsspy::adapt
