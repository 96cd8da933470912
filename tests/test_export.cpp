// Tests for the CSV/JSON analysis exporters.
#include <gtest/gtest.h>

#include <sstream>

#include "core/dsspy.hpp"
#include "core/export.hpp"
#include "ds/ds.hpp"
#include "support/strings.hpp"

namespace dsspy::core {
namespace {

AnalysisResult make_analysis(runtime::ProfilingSession& session) {
    {
        ds::ProfiledList<int> hot(&session, {"Export.Test", "Hot", 1});
        for (int i = 0; i < 200; ++i) hot.add(i);
        for (std::size_t i = 0; i < hot.count(); ++i) (void)hot.get(i);

        ds::ProfiledList<int> cold(&session, {"Export, \"Test\"", "Cold", 2});
        cold.add(1);
    }
    session.stop();
    return Dsspy{}.analyze(session);
}

TEST(ExportCsv, UseCasesHaveHeaderAndRows) {
    runtime::ProfilingSession session;
    const AnalysisResult analysis = make_analysis(session);

    std::ostringstream os;
    write_use_cases_csv(os, analysis);
    const auto lines = support::split(os.str(), '\n');
    EXPECT_EQ(lines[0],
              "class,method,position,type,use_case,code,parallel,action,"
              "confidence,reason,recommendation");
    // The hot list carries at least the Long-Insert use case.
    EXPECT_NE(os.str().find("Long-Insert"), std::string::npos);
    EXPECT_NE(os.str().find(",ParallelInsert,"), std::string::npos);
    EXPECT_NE(os.str().find("Export.Test,Hot,1"), std::string::npos);
}

TEST(ExportCsv, InstancesRowPerInstance) {
    runtime::ProfilingSession session;
    const AnalysisResult analysis = make_analysis(session);

    std::ostringstream os;
    write_instances_csv(os, analysis);
    const auto lines = support::split(os.str(), '\n');
    // header + 2 instances + trailing empty.
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_TRUE(support::starts_with(lines[1], "0,Export.Test,Hot,1,List"));
    // Quoted class name with comma and quotes survives escaping.
    EXPECT_NE(lines[2].find("\"Export, \"\"Test\"\"\""), std::string::npos);
}

TEST(ExportCsv, PatternsRowsMatchAnalysis) {
    runtime::ProfilingSession session;
    const AnalysisResult analysis = make_analysis(session);

    std::size_t pattern_count = 0;
    for (const auto& ia : analysis.instances())
        pattern_count += ia.patterns.size();

    std::ostringstream os;
    write_patterns_csv(os, analysis);
    const auto lines = support::split(os.str(), '\n');
    EXPECT_EQ(lines.size(), pattern_count + 2);  // header + rows + empty
    EXPECT_NE(os.str().find("Insert-Back"), std::string::npos);
}

TEST(ExportJson, ContainsSummaryAndNestedObjects) {
    runtime::ProfilingSession session;
    const AnalysisResult analysis = make_analysis(session);

    std::ostringstream os;
    write_analysis_json(os, analysis);
    const std::string json = os.str();

    EXPECT_NE(json.find("\"total_instances\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"search_space_reduction\":"), std::string::npos);
    EXPECT_NE(json.find("\"patterns\": ["), std::string::npos);
    EXPECT_NE(json.find("\"use_cases\": ["), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"Long-Insert\""), std::string::npos);
    // Escaped quotes in the class name.
    EXPECT_NE(json.find("Export, \\\"Test\\\""), std::string::npos);

    // Brace/bracket balance as a cheap well-formedness check.
    std::ptrdiff_t braces = 0;
    std::ptrdiff_t brackets = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char ch = json[i];
        if (in_string) {
            if (ch == '\\') {
                ++i;
            } else if (ch == '"') {
                in_string = false;
            }
            continue;
        }
        if (ch == '"') in_string = true;
        if (ch == '{') ++braces;
        if (ch == '}') --braces;
        if (ch == '[') ++brackets;
        if (ch == ']') --brackets;
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

TEST(ExportJson, EmptyAnalysisIsValid) {
    runtime::ProfilingSession session;
    session.stop();
    const AnalysisResult analysis = Dsspy{}.analyze(session);
    std::ostringstream os;
    write_analysis_json(os, analysis);
    EXPECT_NE(os.str().find("\"instances\": [\n\n  ]"), std::string::npos);
}

}  // namespace
}  // namespace dsspy::core
