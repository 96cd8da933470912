#include "core/report.hpp"

#include "support/table.hpp"

namespace dsspy::core {

std::string format_use_case(const UseCase& use_case, std::size_t ordinal) {
    std::string out;
    out += "Use Case " + std::to_string(ordinal) + "\n";
    out += "  Class:          " + use_case.instance.location.class_name + "\n";
    out += "  Method:         " + use_case.instance.location.method + "\n";
    out += "  Position:       " +
           std::to_string(use_case.instance.location.position) + "\n";
    out += "  Data structure: " + use_case.instance.type_name + "\n";
    out += "  Use Case:       " + std::string(use_case_name(use_case.kind)) +
           "\n";
    out += "  Reason:         " + use_case.reason() + "\n";
    out += "  Recommendation: " + use_case.recommendation() + "\n";
    return out;
}

void print_use_case_report(std::ostream& os, const AnalysisResult& result,
                           bool parallel_only) {
    std::size_t ordinal = 0;
    for (const InstanceAnalysis& ia : result.instances()) {
        for (const UseCase& uc : ia.use_cases) {
            if (parallel_only && !uc.parallel_potential()) continue;
            os << format_use_case(uc, ++ordinal) << '\n';
        }
    }
    if (ordinal == 0) os << "No use cases detected.\n";
}

void print_report_with_footer(std::ostream& os,
                              const AnalysisResult& result) {
    print_use_case_report(os, result);
    os << "Search space reduction: "
       << support::Table::pct(result.search_space_reduction()) << " ("
       << result.flagged_instances() << " of "
       << result.list_array_instances()
       << " list/array instances flagged)\n";
}

void print_instance_summary(std::ostream& os, const AnalysisResult& result) {
    support::Table table({"Instance", "Type", "Events", "Patterns",
                          "Use cases"});
    for (const InstanceAnalysis& ia : result.instances()) {
        const InstanceStats& s = ia.stats;
        if (s.total == 0) continue;
        std::string codes;
        for (const UseCase& uc : ia.use_cases) {
            if (!codes.empty()) codes += ", ";
            codes += use_case_code(uc.kind);
        }
        table.add_row({s.info.location.to_string(), s.info.type_name,
                       std::to_string(s.total),
                       std::to_string(ia.total_patterns()),
                       codes.empty() ? "-" : codes});
    }
    table.print(os);
}

}  // namespace dsspy::core
