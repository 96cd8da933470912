// The one analysis result both engines return.
//
// Post-mortem (Dsspy::analyze) and incremental (IncrementalAnalyzer::
// snapshot/finish) analysis both reduce every instance to InstanceStats
// and classify it through UseCaseEngine::classify, so one result type
// carries either: every printer and exporter (report.hpp, export.hpp)
// renders from `stats` and `use_cases`, and identical stats give
// byte-identical output whichever engine produced them.  A post-mortem
// result also keeps each instance's pattern list and the ColumnStore it
// analyzed, whose row ranges are the instances' runtime profiles (the
// charts draw from them); the incremental engine leaves both empty.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "core/instance_stats.hpp"
#include "core/patterns.hpp"
#include "core/use_cases.hpp"
#include "runtime/column_store.hpp"

namespace dsspy::core {

/// Per-instance analysis output: the folded stats, the use cases
/// classified from them, and (post-mortem only) the detected patterns.
struct InstanceAnalysis {
    InstanceStats stats;
    std::vector<UseCase> use_cases;
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
/// Lifetime: a post-mortem result points at the ColumnStore it analyzed
/// (the session's or trace's ProfileStore columns, or a bare column
/// trace) — the store must outlive the result.
class AnalysisResult {
public:
    AnalysisResult() = default;

    /// A result over one analysis per registered instance, each with its
    /// `stats.info` set; `columns` is the store a post-mortem engine
    /// analyzed (null for incremental results).
    AnalysisResult(std::vector<InstanceAnalysis> instances,
                   std::size_t total_events,
                   const runtime::ColumnStore* columns = nullptr);

    [[nodiscard]] const std::vector<InstanceAnalysis>& instances()
        const noexcept {
        return instances_;
    }

    /// The analyzed columns: an instance's runtime profile is its row
    /// range (`columns()->range(info.id)`).  Null for incremental results.
    [[nodiscard]] const runtime::ColumnStore* columns() const noexcept {
        return columns_;
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
        return instances_.size();
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
    std::vector<InstanceAnalysis> instances_;
    const runtime::ColumnStore* columns_ = nullptr;
    std::size_t list_array_instances_ = 0;
    std::size_t total_events_ = 0;
};

}  // namespace dsspy::core
