#include "core/export.hpp"

#include <cstdio>
#include <ostream>
#include <string>

#include "support/strings.hpp"

namespace dsspy::core {

namespace {

using support::csv_escape;
using support::json_escape;

std::string fmt_double(double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", value);
    return buf;
}

/// The structured verdict as a compact JSON object.  Shared by the full
/// analysis document and the advice-only export so the two never drift.
void write_advice_object(std::ostream& os, const Advice& advice) {
    const AdviceEvidence& e = advice.evidence;
    os << "{\"action\": \"" << advice_action_name(advice.action)
       << "\", \"confidence\": " << fmt_double(advice.confidence)
       << ", \"evidence\": {\"share\": " << fmt_double(e.share)
       << ", \"share_threshold\": " << fmt_double(e.share_threshold)
       << ", \"ops\": " << e.ops
       << ", \"ops_threshold\": " << e.ops_threshold
       << ", \"aux_ops\": " << e.aux_ops
       << ", \"phase_length\": " << e.phase_length
       << ", \"at_front\": " << (e.at_front ? "true" : "false")
       << ", \"thread_count\": " << e.thread_count << "}}";
}

/// One verdict entry of the advice-only document.
void write_advice_entry(std::ostream& os, const UseCase& uc) {
    os << "    {\n";
    os << "      \"class\": \""
       << json_escape(uc.instance.location.class_name) << "\",\n";
    os << "      \"method\": \"" << json_escape(uc.instance.location.method)
       << "\",\n";
    os << "      \"position\": " << uc.instance.location.position << ",\n";
    os << "      \"type\": \"" << json_escape(uc.instance.type_name)
       << "\",\n";
    os << "      \"use_case\": \"" << use_case_name(uc.kind) << "\",\n";
    os << "      \"code\": \"" << use_case_code(uc.kind) << "\",\n";
    os << "      \"parallel\": "
       << (uc.parallel_potential() ? "true" : "false") << ",\n";
    os << "      \"advice\": ";
    write_advice_object(os, uc.advice);
    os << ",\n";
    os << "      \"reason\": \"" << json_escape(uc.reason()) << "\",\n";
    os << "      \"recommendation\": \"" << json_escape(uc.recommendation())
       << "\"\n    }";
}

}  // namespace

void write_use_cases_csv(std::ostream& os, const AnalysisResult& result) {
    os << "class,method,position,type,use_case,code,parallel,action,"
          "confidence,reason,recommendation\n";
    for (const InstanceAnalysis& ia : result.instances()) {
        for (const UseCase& uc : ia.use_cases) {
            os << csv_escape(uc.instance.location.class_name) << ','
               << csv_escape(uc.instance.location.method) << ','
               << uc.instance.location.position << ','
               << csv_escape(uc.instance.type_name) << ','
               << use_case_name(uc.kind) << ',' << use_case_code(uc.kind)
               << ',' << (uc.parallel_potential() ? 1 : 0) << ','
               << advice_action_name(uc.advice.action) << ','
               << fmt_double(uc.confidence()) << ','
               << csv_escape(uc.reason()) << ','
               << csv_escape(uc.recommendation()) << '\n';
        }
    }
}

void write_instances_csv(std::ostream& os, const AnalysisResult& result) {
    os << "id,class,method,position,kind,type,events,reads,writes,inserts,"
          "deletes,searches,patterns,threads,max_size,flagged_parallel\n";
    for (const InstanceAnalysis& ia : result.instances()) {
        const InstanceStats& s = ia.stats;
        const runtime::InstanceInfo& info = s.info;
        const auto count = [&s](AccessType type) {
            return s.counts[static_cast<std::size_t>(type)];
        };
        os << info.id << ',' << csv_escape(info.location.class_name) << ','
           << csv_escape(info.location.method) << ','
           << info.location.position << ','
           << runtime::ds_kind_name(info.kind) << ','
           << csv_escape(info.type_name) << ',' << s.total << ','
           << count(AccessType::Read) << ',' << count(AccessType::Write)
           << ',' << count(AccessType::Insert) << ','
           << count(AccessType::Delete) << ','
           << count(AccessType::Search) << ',' << ia.total_patterns() << ','
           << s.thread_count << ',' << s.max_size << ','
           << (ia.flagged_parallel() ? 1 : 0) << '\n';
    }
}

void write_patterns_csv(std::ostream& os, const AnalysisResult& result) {
    os << "instance_id,kind,first,last,length,start_pos,end_pos,coverage,"
          "thread,synthetic\n";
    for (const InstanceAnalysis& ia : result.instances()) {
        for (const Pattern& p : ia.patterns) {
            os << ia.stats.info.id << ',' << pattern_name(p.kind) << ','
               << p.first << ',' << p.last << ',' << p.length << ','
               << p.start_pos << ',' << p.end_pos << ','
               << fmt_double(p.coverage) << ',' << p.thread << ','
               << (p.synthetic ? 1 : 0) << '\n';
        }
    }
}

void write_analysis_json(std::ostream& os, const AnalysisResult& result) {
    os << "{\n";
    os << "  \"total_instances\": " << result.total_instances() << ",\n";
    os << "  \"list_array_instances\": " << result.list_array_instances()
       << ",\n";
    os << "  \"flagged_instances\": " << result.flagged_instances() << ",\n";
    os << "  \"search_space_reduction\": "
       << fmt_double(result.search_space_reduction()) << ",\n";
    os << "  \"total_events\": " << result.total_events() << ",\n";
    os << "  \"instances\": [\n";
    bool first_instance = true;
    for (const InstanceAnalysis& ia : result.instances()) {
        if (!first_instance) os << ",\n";
        first_instance = false;
        const InstanceStats& s = ia.stats;
        const runtime::InstanceInfo& info = s.info;
        os << "    {\n";
        os << "      \"id\": " << info.id << ",\n";
        os << "      \"kind\": \"" << runtime::ds_kind_name(info.kind)
           << "\",\n";
        os << "      \"type\": \"" << json_escape(info.type_name) << "\",\n";
        os << "      \"class\": \""
           << json_escape(info.location.class_name) << "\",\n";
        os << "      \"method\": \"" << json_escape(info.location.method)
           << "\",\n";
        os << "      \"position\": " << info.location.position << ",\n";
        os << "      \"events\": " << s.total << ",\n";
        os << "      \"threads\": " << s.thread_count << ",\n";
        os << "      \"max_size\": " << s.max_size << ",\n";
        os << "      \"patterns\": [";
        bool first_pattern = true;
        for (const Pattern& pat : ia.patterns) {
            if (!first_pattern) os << ", ";
            first_pattern = false;
            os << "{\"kind\": \"" << pattern_name(pat.kind)
               << "\", \"length\": " << pat.length << ", \"coverage\": "
               << fmt_double(pat.coverage) << ", \"thread\": "
               << pat.thread << ", \"synthetic\": "
               << (pat.synthetic ? "true" : "false") << "}";
        }
        os << "],\n";
        os << "      \"use_cases\": [";
        bool first_uc = true;
        for (const UseCase& uc : ia.use_cases) {
            if (!first_uc) os << ", ";
            first_uc = false;
            os << "{\"kind\": \"" << use_case_name(uc.kind)
               << "\", \"code\": \"" << use_case_code(uc.kind)
               << "\", \"parallel\": "
               << (uc.parallel_potential() ? "true" : "false")
               << ", \"advice\": ";
            write_advice_object(os, uc.advice);
            os << ", \"reason\": \"" << json_escape(uc.reason())
               << "\", \"recommendation\": \""
               << json_escape(uc.recommendation()) << "\"}";
        }
        os << "]\n    }";
    }
    os << "\n  ]\n}\n";
}

void write_advice_json(std::ostream& os, const AnalysisResult& result) {
    os << "{\n";
    os << "  \"advice_version\": 1,\n";
    os << "  \"total_instances\": " << result.total_instances() << ",\n";
    os << "  \"flagged_instances\": " << result.flagged_instances() << ",\n";
    os << "  \"search_space_reduction\": "
       << fmt_double(result.search_space_reduction()) << ",\n";
    os << "  \"verdicts\": [\n";
    bool first = true;
    for (const UseCase& uc : result.all_use_cases()) {
        if (!first) os << ",\n";
        first = false;
        write_advice_entry(os, uc);
    }
    os << "\n  ]\n}\n";
}

}  // namespace dsspy::core
