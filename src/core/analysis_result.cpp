#include "core/analysis_result.hpp"

#include <utility>

namespace dsspy::core {

AnalysisResult::AnalysisResult(std::vector<InstanceAnalysis> instances,
                               std::size_t total_events,
                               const runtime::ColumnStore* columns)
    : instances_(std::move(instances)),
      columns_(columns),
      total_events_(total_events) {
    for (const InstanceAnalysis& ia : instances_) {
        const runtime::DsKind kind = ia.stats.info.kind;
        if (kind == runtime::DsKind::List || kind == runtime::DsKind::Array)
            ++list_array_instances_;
    }
}

std::vector<UseCase> AnalysisResult::all_use_cases() const {
    std::vector<UseCase> out;
    for (const InstanceAnalysis& ia : instances_)
        out.insert(out.end(), ia.use_cases.begin(), ia.use_cases.end());
    return out;
}

std::array<std::size_t, kUseCaseKindCount> AnalysisResult::use_case_counts()
    const {
    std::array<std::size_t, kUseCaseKindCount> counts{};
    for (const InstanceAnalysis& ia : instances_)
        for (const UseCase& uc : ia.use_cases)
            ++counts[static_cast<std::size_t>(uc.kind)];
    return counts;
}

std::size_t AnalysisResult::flagged_instances() const noexcept {
    std::size_t flagged = 0;
    for (const InstanceAnalysis& ia : instances_) {
        const runtime::DsKind kind = ia.stats.info.kind;
        const bool counted = kind == runtime::DsKind::List ||
                             kind == runtime::DsKind::Array;
        if (counted && ia.flagged_parallel()) ++flagged;
    }
    return flagged;
}

double AnalysisResult::search_space_reduction() const noexcept {
    if (list_array_instances_ == 0) return 0.0;
    return 1.0 - static_cast<double>(flagged_instances()) /
                     static_cast<double>(list_array_instances_);
}

}  // namespace dsspy::core
