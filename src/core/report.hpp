// Textual use-case reports in the format of the paper's Table V.
#pragma once

#include <ostream>
#include <string>

#include "core/analysis_result.hpp"

namespace dsspy::core {

/// Render all use cases of an analysis in Table V format:
///
///   Use Case 1
///   Class:          GPdotNet.Engine.CHPopulation
///   Method:         FitnessProportionateSelection
///   Position:       68
///   Data structure: Array<System.Double>
///   Use Case:       Frequent-Long-Read
///   Reason:         ...
///   Recommendation: ...
void print_use_case_report(std::ostream& os, const AnalysisResult& result,
                           bool parallel_only = false);

/// The `--report` output: the full use-case report followed by the
/// search-space reduction footer
///
///   Search space reduction: 42.86% (4 of 7 list/array instances flagged)
void print_report_with_footer(std::ostream& os, const AnalysisResult& result);

/// One-line summary per instance: events, patterns, use-case codes.
void print_instance_summary(std::ostream& os, const AnalysisResult& result);

/// Compact single-use-case block (used by the report and the examples).
[[nodiscard]] std::string format_use_case(const UseCase& use_case,
                                          std::size_t ordinal);

}  // namespace dsspy::core
