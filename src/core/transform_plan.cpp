#include "core/transform_plan.hpp"

#include <algorithm>
#include <ostream>

#include "support/table.hpp"

namespace dsspy::core {

std::string_view transform_action_name(TransformAction action) noexcept {
    switch (action) {
        case TransformAction::ParallelizeInsert:
            return "parallelize-insert";
        case TransformAction::UseParallelQueue:
            return "use-parallel-queue";
        case TransformAction::ParallelSortAndFill:
            return "parallel-sort-and-fill";
        case TransformAction::ParallelizeSearch:
            return "parallelize-search";
        case TransformAction::ParallelizeReadLoop:
            return "parallelize-read-loop";
        case TransformAction::UseDynamicStructure:
            return "use-dynamic-structure";
        case TransformAction::UseStackContainer:
            return "use-stack-container";
        case TransformAction::DropDeadWrites:
            return "drop-dead-writes";
        case TransformAction::Count: break;
    }
    return "?";
}

std::string_view transform_code_hint(TransformAction action) noexcept {
    switch (action) {
        case TransformAction::ParallelizeInsert:
            return "par::parallel_build<T>(pool, n, make) or "
                   "par::parallel_append(pool, list, n, make)";
        case TransformAction::UseParallelQueue:
            return "par::ConcurrentQueue<T> (push/pop/close)";
        case TransformAction::ParallelSortAndFill:
            return "par::parallel_build + par::parallel_sort(pool, span)";
        case TransformAction::ParallelizeSearch:
            return "par::parallel_index_of(pool, span, value) or "
                   "par::ParallelList<T>";
        case TransformAction::ParallelizeReadLoop:
            return "par::parallel_reduce / par::parallel_max_index(pool, "
                   "span)";
        case TransformAction::UseDynamicStructure:
            return "ds::List<T> (amortized growth, no full-copy resize)";
        case TransformAction::UseStackContainer:
            return "ds::Stack<T> (push/pop/peek)";
        case TransformAction::DropDeadWrites:
            return "remove the trailing write loop; rely on destruction";
        case TransformAction::Count: break;
    }
    return "?";
}

TransformAction action_for(UseCaseKind kind) noexcept {
    switch (kind) {
        case UseCaseKind::LongInsert:
            return TransformAction::ParallelizeInsert;
        case UseCaseKind::ImplementQueue:
            return TransformAction::UseParallelQueue;
        case UseCaseKind::SortAfterInsert:
            return TransformAction::ParallelSortAndFill;
        case UseCaseKind::FrequentSearch:
            return TransformAction::ParallelizeSearch;
        case UseCaseKind::FrequentLongRead:
            return TransformAction::ParallelizeReadLoop;
        case UseCaseKind::InsertDeleteFront:
            return TransformAction::UseDynamicStructure;
        case UseCaseKind::StackImplementation:
            return TransformAction::UseStackContainer;
        case UseCaseKind::WriteWithoutRead:
            return TransformAction::DropDeadWrites;
        case UseCaseKind::Count: break;
    }
    return TransformAction::ParallelizeInsert;
}

TransformPlan plan_transformations(const AnalysisResult& result,
                                   bool parallel_only) {
    TransformPlan plan;
    for (const InstanceAnalysis& ia : result.instances()) {
        for (const UseCase& uc : ia.use_cases) {
            if (parallel_only && !uc.parallel_potential()) continue;
            TransformStep step;
            step.action = action_for(uc.kind);
            step.source = uc.kind;
            step.instance = uc.instance;
            step.confidence = uc.confidence();
            step.events = ia.stats.total;
            step.impact =
                static_cast<double>(step.events) * uc.confidence();
            step.parallel = uc.parallel_potential();
            step.code_hint = std::string(transform_code_hint(step.action));
            plan.steps.push_back(std::move(step));
        }
    }
    std::stable_sort(plan.steps.begin(), plan.steps.end(),
                     [](const TransformStep& a, const TransformStep& b) {
                         return a.impact > b.impact;
                     });
    return plan;
}

void print_transform_plan(std::ostream& os, const TransformPlan& plan) {
    if (plan.steps.empty()) {
        os << "Nothing to transform.\n";
        return;
    }
    os << "Transformation plan (" << plan.steps.size() << " steps, "
       << plan.parallel_steps() << " parallel):\n";
    std::size_t ordinal = 0;
    for (const TransformStep& step : plan.steps) {
        os << "  " << ++ordinal << ". ["
           << transform_action_name(step.action) << "] "
           << step.instance.location.to_string() << " ("
           << step.instance.type_name << ")\n"
           << "     from " << use_case_name(step.source) << ", confidence "
           << support::Table::fmt(step.confidence) << ", "
           << step.events << " events, impact "
           << support::Table::fmt(step.impact, 0) << '\n'
           << "     apply: " << step.code_hint << '\n';
    }
}

}  // namespace dsspy::core
