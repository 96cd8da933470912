// Tests for the ASCII and SVG profile renderers.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "ds/profiled_list.hpp"
#include "viz/ascii_chart.hpp"
#include "viz/svg.hpp"

namespace dsspy::viz {
namespace {

using runtime::ProfilingSession;

/// Record the Figure 2 profile: fill 10 values front-to-back, read them
/// back-to-front.  Returns the list's instance.
runtime::InstanceInfo figure2_profile(ProfilingSession& session) {
    ds::ProfiledList<int> list(&session, {"Example", "Main", 1}, 10);
    for (int i = 0; i < 10; ++i) list.add(i);
    for (int i = 9; i >= 0; --i) (void)list.get(static_cast<size_t>(i));
    const auto id = list.instance_id();
    session.stop();
    return session.registry().info(id);
}

TEST(AsciiChart, RendersBarsWithMarksAndAxis) {
    ProfilingSession session;
    const auto info = figure2_profile(session);
    const std::string chart =
        render_profile_bars(session.store().columns(), info);
    EXPECT_NE(chart.find('I'), std::string::npos);  // insert marks
    EXPECT_NE(chart.find('R'), std::string::npos);  // read marks
    EXPECT_NE(chart.find("> time"), std::string::npos);
    EXPECT_NE(chart.find("20 events"), std::string::npos);
    EXPECT_NE(chart.find("legend:"), std::string::npos);
}

TEST(AsciiChart, ScatterOmitsBars) {
    ProfilingSession session;
    const auto info = figure2_profile(session);
    ChartOptions options;
    options.show_legend = false;
    const std::string chart =
        render_profile_scatter(session.store().columns(), info, options);
    EXPECT_EQ(chart.find("legend:"), std::string::npos);
    EXPECT_NE(chart.find('R'), std::string::npos);
}

TEST(AsciiChart, EmptyProfile) {
    EXPECT_EQ(render_profile_bars(runtime::ColumnStore{}, {}),
              "(empty profile)\n");
}

TEST(AsciiChart, DownsamplesWideProfiles) {
    ProfilingSession session;
    ds::ProfiledList<int> list(&session, {"E", "M", 1});
    for (int i = 0; i < 5000; ++i) list.add(i);
    const auto id = list.instance_id();
    session.stop();
    ChartOptions options;
    options.max_width = 80;
    const std::string chart = render_profile_scatter(
        session.store().columns(), session.registry().info(id), options);
    // No line longer than the axis line + margin.
    std::istringstream in(chart);
    std::string line;
    while (std::getline(in, line)) EXPECT_LE(line.size(), 130u);
}

TEST(AsciiChart, PrintProfileIncludesHeader) {
    ProfilingSession session;
    const auto info = figure2_profile(session);
    std::ostringstream os;
    print_profile(os, session.store().columns(), info);
    EXPECT_NE(os.str().find("List<Int32>"), std::string::npos);
    EXPECT_NE(os.str().find("Example.Main:1"), std::string::npos);
}

TEST(SvgWriter, ProducesWellFormedDocument) {
    SvgWriter svg(100, 50);
    svg.rect(0, 0, 10, 10, "#ff0000");
    svg.line(0, 0, 100, 50, "#000");
    svg.text(5, 5, "hello");
    svg.circle(50, 25, 3, "#00ff00");
    const std::string doc = svg.finish();
    EXPECT_NE(doc.find("<svg"), std::string::npos);
    EXPECT_NE(doc.find("</svg>"), std::string::npos);
    EXPECT_NE(doc.find("<rect"), std::string::npos);
    EXPECT_NE(doc.find("<line"), std::string::npos);
    EXPECT_NE(doc.find("hello"), std::string::npos);
    EXPECT_NE(doc.find("<circle"), std::string::npos);
}

TEST(SvgExport, ProfileChartHasBarsForEveryDownsampledEvent) {
    ProfilingSession session;
    const auto info = figure2_profile(session);
    const std::string svg = profile_to_svg(session.store().columns(), info);
    EXPECT_NE(svg.find("<svg"), std::string::npos);
    // Reads green, writes/inserts red, size bars grey.
    EXPECT_NE(svg.find("#2e9e4f"), std::string::npos);
    EXPECT_NE(svg.find("#d62728"), std::string::npos);
    EXPECT_NE(svg.find("#cccccc"), std::string::npos);
    EXPECT_NE(svg.find("20 access events"), std::string::npos);
}

TEST(SvgExport, StackedBarsChart) {
    std::vector<StackedBar> bars;
    bars.push_back({"alpha", {10.0, 5.0, 1.0}});
    bars.push_back({"beta", {2.0, 0.0, 3.0}});
    const std::string svg =
        stacked_bars_to_svg(bars, {"List", "Dictionary", "Rest"});
    EXPECT_NE(svg.find("<svg"), std::string::npos);
    EXPECT_NE(svg.find("</svg>"), std::string::npos);
    EXPECT_NE(svg.find("alpha"), std::string::npos);
    EXPECT_NE(svg.find("beta"), std::string::npos);
    EXPECT_NE(svg.find("Dictionary"), std::string::npos);
    EXPECT_NE(svg.find("rotate(60"), std::string::npos);
    // Zero segments are skipped: count rects (2 background + bars + legend).
    // alpha has 3 segments, beta has 2 non-zero, legend has 3 swatches.
    const std::size_t rects = [&svg] {
        std::size_t n = 0;
        std::size_t pos = 0;
        while ((pos = svg.find("<rect", pos)) != std::string::npos) {
            ++n;
            pos += 5;
        }
        return n;
    }();
    EXPECT_EQ(rects, 1u + 3u + 2u + 3u);  // background + alpha + beta + legend
}

TEST(SvgExport, StackedBarsEmptyInput) {
    const std::string svg = stacked_bars_to_svg({}, {});
    EXPECT_NE(svg.find("<svg"), std::string::npos);
    EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(SvgExport, WriteFileRoundTrip) {
    const std::string path = ::testing::TempDir() + "/dsspy_test.svg";
    EXPECT_TRUE(write_file(path, "<svg></svg>"));
    FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[32] = {};
    const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_EQ(std::string(buf, n), "<svg></svg>");
}

}  // namespace
}  // namespace dsspy::viz
