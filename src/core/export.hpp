// Machine-readable exports of an analysis result.
//
// DSspy "presents the access profiles, the use cases and the recommended
// actions to the engineer"; besides the human-readable report (report.hpp)
// and the charts (viz/), these exporters emit CSV for spreadsheets and a
// JSON document for downstream tooling (IDE integrations, dashboards).
#pragma once

#include <iosfwd>

#include "core/analysis_result.hpp"

namespace dsspy::core {

/// One CSV row per detected use case:
/// class,method,position,type,kind,code,parallel,action,confidence,reason,
/// recommendation
void write_use_cases_csv(std::ostream& os, const AnalysisResult& result);

/// One CSV row per instance with profile aggregates:
/// id,class,method,position,kind,type,events,reads,writes,inserts,deletes,
/// searches,patterns,threads,max_size,flagged_parallel
void write_instances_csv(std::ostream& os, const AnalysisResult& result);

/// One CSV row per detected pattern (post-mortem results only; an
/// incremental result has no pattern lists and yields just the header):
/// instance_id,kind,first,last,length,start_pos,end_pos,coverage,thread,
/// synthetic
void write_patterns_csv(std::ostream& os, const AnalysisResult& result);

/// Whole analysis as a single JSON document (instances with nested
/// patterns and use cases, plus the search-space summary).  Each use-case
/// object carries a nested `advice` object with the structured verdict.
void write_analysis_json(std::ostream& os, const AnalysisResult& result);

/// Advice-only JSON document (`dsspy advise --json`): one entry per
/// verdict with the structured action, confidence and evidence — the
/// machine-consumable form of the report, without profiles or patterns.
void write_advice_json(std::ostream& os, const AnalysisResult& result);

}  // namespace dsspy::core
