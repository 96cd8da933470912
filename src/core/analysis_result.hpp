// The one analysis result both engines return.
//
// Post-mortem (Dsspy::analyze) and incremental (IncrementalAnalyzer::
// snapshot/finish) analysis both reduce every instance to InstanceStats
// and classify it through UseCaseEngine::classify, so one result type
// carries either: every printer and exporter (report.hpp, export.hpp)
// renders from `stats` and `use_cases`, and identical stats give
// byte-identical output whichever engine produced them.  The profile and
// pattern list are the post-mortem-only view; the incremental engine
// leaves them empty.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "core/instance_stats.hpp"
#include "core/patterns.hpp"
#include "core/profile.hpp"
#include "core/use_cases.hpp"

namespace dsspy::core {

/// Per-instance analysis output: the folded stats, the use cases
/// classified from them, and (post-mortem only) the profile view and its
/// patterns.
struct InstanceAnalysis {
    InstanceStats stats;
    std::vector<UseCase> use_cases;
    RuntimeProfile profile;          ///< Post-mortem only.
    std::vector<Pattern> patterns;   ///< Post-mortem only.

    [[nodiscard]] bool flagged() const noexcept { return !use_cases.empty(); }

    [[nodiscard]] bool flagged_parallel() const noexcept {
        for (const UseCase& uc : use_cases)
            if (uc.parallel_potential()) return true;
        return false;
    }

    /// Completed patterns on the instance (sum over pattern kinds); equals
    /// patterns.size() whenever the pattern list is materialized.
    [[nodiscard]] std::size_t total_patterns() const noexcept {
        std::size_t n = 0;
        for (const std::size_t c : stats.pattern_counts) n += c;
        return n;
    }
};

/// Whole-session analysis result.
///
/// Lifetime: a post-mortem result holds spans into the session's (or
/// trace's) ProfileStore — the store must outlive the result.
class AnalysisResult {
public:
    [[nodiscard]] const std::vector<InstanceAnalysis>& instances()
        const noexcept {
        return instances_;
    }

    /// All use cases across all instances, in instance order.
    [[nodiscard]] std::vector<UseCase> all_use_cases() const;

    /// Count of use cases per kind (indexed by UseCaseKind).
    [[nodiscard]] std::array<std::size_t, kUseCaseKindCount>
    use_case_counts() const;

    /// Number of registered list/array instances — the search-space
    /// denominator used in Table IV ("we manually counted the number of
    /// instantiations of both data structures").
    [[nodiscard]] std::size_t list_array_instances() const noexcept {
        return list_array_instances_;
    }

    /// All registered instances regardless of kind.
    [[nodiscard]] std::size_t total_instances() const noexcept {
        return total_instances_;
    }

    /// List/array instances flagged with at least one parallel use case.
    [[nodiscard]] std::size_t flagged_instances() const noexcept;

    /// 1 - flagged/total over list+array instances (Table IV's
    /// "Search Space Reduction"); 0 when there are no instances.
    [[nodiscard]] double search_space_reduction() const noexcept;

    /// Total number of access events (recorded, or folded — including
    /// events of instances missing from the registered list).
    [[nodiscard]] std::size_t total_events() const noexcept {
        return total_events_;
    }

private:
    friend class Dsspy;
    friend class IncrementalAnalyzer;

    /// Size the result for `instances` and count the list/array ones.
    void reset(const std::vector<runtime::InstanceInfo>& instances,
               std::size_t total_events);

    std::vector<InstanceAnalysis> instances_;
    std::size_t list_array_instances_ = 0;
    std::size_t total_instances_ = 0;
    std::size_t total_events_ = 0;
};

}  // namespace dsspy::core
