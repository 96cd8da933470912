#include "viz/html_report.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "support/table.hpp"
#include "viz/svg.hpp"

namespace dsspy::viz {

namespace {

std::string html_escape(std::string_view text) {
    std::string out;
    out.reserve(text.size());
    for (char ch : text) {
        switch (ch) {
            case '&': out += "&amp;"; break;
            case '<': out += "&lt;"; break;
            case '>': out += "&gt;"; break;
            case '"': out += "&quot;"; break;
            default: out += ch;
        }
    }
    return out;
}

const char* kStyle = R"css(
body { font-family: -apple-system, "Segoe UI", Roboto, sans-serif;
       margin: 2em auto; max-width: 70em; color: #222; }
h1 { border-bottom: 2px solid #444; padding-bottom: .3em; }
h2 { margin-top: 2em; }
table { border-collapse: collapse; width: 100%; margin: 1em 0; }
th, td { border: 1px solid #ccc; padding: .35em .6em; font-size: .92em; }
th { background: #f0f0f0; text-align: left; }
tr.flagged { background: #fff4e5; }
.summary { display: flex; gap: 2em; margin: 1em 0; }
.stat { background: #f6f8fa; border: 1px solid #ddd; border-radius: 6px;
        padding: .8em 1.2em; }
.stat b { display: block; font-size: 1.5em; }
.usecase { border-left: 4px solid #d62728; background: #fafafa;
           margin: .8em 0; padding: .6em 1em; }
.usecase.sequential { border-left-color: #7f7f7f; }
.usecase h4 { margin: 0 0 .3em 0; }
.reason { color: #555; font-size: .92em; }
.recommendation { margin-top: .3em; font-weight: 600; }
.chart { overflow-x: auto; border: 1px solid #eee; margin: .6em 0; }
code { background: #f0f0f0; padding: 0 .25em; border-radius: 3px; }
)css";

}  // namespace

void write_html_report(std::ostream& os, const core::AnalysisResult& result,
                       const HtmlReportOptions& options) {
    using support::Table;

    os << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>"
       << html_escape(options.title) << "</title>\n<style>" << kStyle
       << "</style></head>\n<body>\n";
    os << "<h1>" << html_escape(options.title) << "</h1>\n";

    // --- summary ---------------------------------------------------------
    os << "<div class=\"summary\">\n";
    os << "<div class=\"stat\"><b>" << result.list_array_instances()
       << "</b>list/array instances</div>\n";
    os << "<div class=\"stat\"><b>" << result.flagged_instances()
       << "</b>flagged with parallel potential</div>\n";
    os << "<div class=\"stat\"><b>"
       << Table::pct(result.search_space_reduction())
       << "</b>search space reduction</div>\n";
    os << "<div class=\"stat\"><b>" << result.total_events()
       << "</b>access events</div>\n";
    os << "</div>\n";

    // --- instance table -----------------------------------------------------
    os << "<h2>Instances</h2>\n<table>\n<tr><th>Location</th><th>Type</th>"
          "<th>Events</th><th>Threads</th><th>Patterns</th>"
          "<th>Use cases</th></tr>\n";
    for (const core::InstanceAnalysis& ia : result.instances()) {
        const core::InstanceStats& s = ia.stats;
        if (s.total == 0) continue;
        std::string codes;
        for (const core::UseCase& uc : ia.use_cases) {
            if (!codes.empty()) codes += ", ";
            codes += use_case_code(uc.kind);
        }
        os << "<tr" << (ia.flagged_parallel() ? " class=\"flagged\"" : "")
           << "><td><code>"
           << html_escape(s.info.location.to_string())
           << "</code></td><td>" << html_escape(s.info.type_name)
           << "</td><td>" << s.total << "</td><td>" << s.thread_count
           << "</td><td>" << ia.total_patterns() << "</td><td>"
           << (codes.empty() ? "&mdash;" : html_escape(codes))
           << "</td></tr>\n";
    }
    os << "</table>\n";

    // --- per-instance detail sections ------------------------------------
    os << "<h2>Flagged locations</h2>\n";
    // Incremental results keep no columns: their charts are empty.
    static const runtime::ColumnStore kNoColumns;
    const runtime::ColumnStore& columns =
        result.columns() != nullptr ? *result.columns() : kNoColumns;
    bool any = false;
    for (const core::InstanceAnalysis& ia : result.instances()) {
        const bool charted =
            ia.flagged() ||
            (options.chart_unflagged_min_events > 0 &&
             ia.stats.total >= options.chart_unflagged_min_events);
        if (!charted) continue;
        any = true;

        os << "<h3><code>"
           << html_escape(ia.stats.info.location.to_string())
           << "</code> &mdash; " << html_escape(ia.stats.info.type_name)
           << "</h3>\n";

        os << "<div class=\"chart\">"
           << profile_to_svg(columns, ia.stats.info, options.svg_columns)
           << "</div>\n";

        if (ia.total_patterns() > 0) {
            os << "<p>Patterns: ";
            const auto& counts = ia.stats.pattern_counts;
            bool first = true;
            for (std::size_t k = 0; k < core::kPatternKindCount; ++k) {
                if (counts[k] == 0) continue;
                if (!first) os << ", ";
                first = false;
                os << counts[k] << "&times; "
                   << core::pattern_name(
                          static_cast<core::PatternKind>(k));
            }
            os << "</p>\n";
        }

        for (const core::UseCase& uc : ia.use_cases) {
            os << "<div class=\"usecase"
               << (uc.parallel_potential() ? "" : " sequential") << "\">\n"
               << "<h4>" << core::use_case_name(uc.kind)
               << (uc.parallel_potential() ? " (parallel potential)"
                                         : " (sequential optimization)")
               << "</h4>\n"
               << "<div class=\"reason\">" << html_escape(uc.reason())
               << "</div>\n"
               << "<div class=\"recommendation\">"
               << html_escape(uc.recommendation()) << "</div>\n</div>\n";
        }
    }
    if (!any) os << "<p>No flagged locations.</p>\n";

    os << "</body></html>\n";
}

bool write_html_report_file(const std::string& path,
                            const core::AnalysisResult& result,
                            const HtmlReportOptions& options) {
    std::ofstream out(path, std::ios::binary);
    if (!out) return false;
    write_html_report(out, result, options);
    return static_cast<bool>(out);
}

}  // namespace dsspy::viz
