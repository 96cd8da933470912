// Tests for the HTML report generator.
#include <gtest/gtest.h>

#include <sstream>

#include "core/dsspy.hpp"
#include "ds/ds.hpp"
#include "temp_path.hpp"
#include "viz/html_report.hpp"

namespace dsspy::viz {
namespace {

core::AnalysisResult make_analysis(runtime::ProfilingSession& session) {
    {
        ds::ProfiledList<int> hot(&session,
                                  {"Html.Test<Gen>", "Hot & Fast", 1});
        for (int i = 0; i < 300; ++i) hot.add(i);
        ds::ProfiledList<int> cold(&session, {"Html.Test", "Cold", 2});
        cold.add(1);
        (void)cold.get(0);
    }
    session.stop();
    return core::Dsspy{}.analyze(session);
}

TEST(HtmlReport, ContainsSummaryTableAndUseCases) {
    runtime::ProfilingSession session;
    const auto analysis = make_analysis(session);
    std::ostringstream os;
    write_html_report(os, analysis);
    const std::string html = os.str();

    EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
    EXPECT_NE(html.find("search space reduction"), std::string::npos);
    EXPECT_NE(html.find("Long-Insert"), std::string::npos);
    EXPECT_NE(html.find("Parallelize the insert operation."),
              std::string::npos);
    // Embedded SVG chart for the flagged instance.
    EXPECT_NE(html.find("<svg"), std::string::npos);
    // Both instances in the table.
    EXPECT_NE(html.find("Hot &amp; Fast"), std::string::npos);
    EXPECT_NE(html.find("Cold"), std::string::npos);
    EXPECT_NE(html.find("</html>"), std::string::npos);
}

TEST(HtmlReport, EscapesMarkupInNames) {
    runtime::ProfilingSession session;
    const auto analysis = make_analysis(session);
    std::ostringstream os;
    write_html_report(os, analysis);
    const std::string html = os.str();
    // The raw "<Gen>" must never appear unescaped outside the SVG.
    EXPECT_NE(html.find("Html.Test&lt;Gen&gt;"), std::string::npos);
}

TEST(HtmlReport, CustomTitleAndEmptyAnalysis) {
    runtime::ProfilingSession session;
    session.stop();
    const auto analysis = core::Dsspy{}.analyze(session);
    std::ostringstream os;
    HtmlReportOptions options;
    options.title = "Custom <title>";
    write_html_report(os, analysis, options);
    EXPECT_NE(os.str().find("Custom &lt;title&gt;"), std::string::npos);
    EXPECT_NE(os.str().find("No flagged locations."), std::string::npos);
}

TEST(HtmlReport, FileOutput) {
    runtime::ProfilingSession session;
    const auto analysis = make_analysis(session);
    const std::string path = testing_support::unique_temp_path(".html");
    EXPECT_TRUE(write_html_report_file(path, analysis));
    std::remove(path.c_str());
    EXPECT_FALSE(write_html_report_file("/nonexistent/dir/x.html", analysis));
}

}  // namespace
}  // namespace dsspy::viz
