// Unit tests for dsspy::support: RNG, stats, strings, tables.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "support/rng.hpp"
#include "support/source_location.hpp"
#include "support/stats.hpp"
#include "support/stopwatch.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace dsspy::support {
namespace {

TEST(Rng, DeterministicForSameSeed) {
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next()) ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextBelowCoversRange) {
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextRangeInclusiveBounds) {
    Rng rng(3);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = rng.next_range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= (v == -3);
        saw_hi |= (v == 3);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
    static_assert(Rng::min() == 0);
    static_assert(Rng::max() == ~0ULL);
    Rng rng(1);
    EXPECT_NE(rng(), rng());
}

TEST(Stats, SummarizeBasics) {
    const double values[] = {1.0, 2.0, 3.0, 4.0, 5.0};
    const Summary s = summarize(values);
    EXPECT_DOUBLE_EQ(s.mean, 3.0);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 5.0);
    EXPECT_DOUBLE_EQ(s.median, 3.0);
    EXPECT_NEAR(s.stddev, 1.5811, 1e-3);
    EXPECT_EQ(s.count, 5u);
}

TEST(Stats, SummarizeEmpty) {
    const Summary s = summarize({});
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, PercentileInterpolates) {
    const double values[] = {10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(percentile(values, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(values, 100.0), 40.0);
    EXPECT_DOUBLE_EQ(percentile(values, 50.0), 25.0);
}

TEST(Stats, SpeedupAndFraction) {
    EXPECT_DOUBLE_EQ(speedup(2.0, 1.0), 2.0);
    EXPECT_DOUBLE_EQ(speedup(0.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(fraction(94.29, 5.71), 0.9429);
    EXPECT_DOUBLE_EQ(fraction(0.0, 0.0), 0.0);
}

TEST(Stats, AmdahlLimits) {
    // Fully parallel: speedup == threads.
    EXPECT_DOUBLE_EQ(amdahl_speedup(0.0, 8), 8.0);
    // Fully sequential: speedup == 1.
    EXPECT_DOUBLE_EQ(amdahl_speedup(1.0, 8), 1.0);
    // CPU Benchmarks case: 94.29% sequential caps the speedup near 1.06.
    EXPECT_NEAR(amdahl_speedup(0.9429, 8), 1.053, 0.01);
}

TEST(Stats, Geomean) {
    const double values[] = {1.0, 4.0};
    EXPECT_DOUBLE_EQ(geomean(values), 2.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Strings, SplitKeepsEmptyFields) {
    const auto parts = split("a,,b", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
}

TEST(Strings, Tokenize) {
    const auto tokens = tokenize("  the quick\tbrown\nfox ");
    ASSERT_EQ(tokens.size(), 4u);
    EXPECT_EQ(tokens[0], "the");
    EXPECT_EQ(tokens[3], "fox");
}

TEST(Strings, Trim) {
    EXPECT_EQ(trim("  x  "), "x");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsEndsWith) {
    EXPECT_TRUE(starts_with("List<int>", "List"));
    EXPECT_FALSE(starts_with("x", "xyz"));
    EXPECT_TRUE(ends_with("file.cs", ".cs"));
    EXPECT_FALSE(ends_with("cs", "file.cs"));
}

TEST(Strings, ReplaceAll) {
    EXPECT_EQ(replace_all("aaa", "a", "bb"), "bbbbbb");
    EXPECT_EQ(replace_all("abc", "x", "y"), "abc");
}

TEST(Strings, CountOccurrences) {
    EXPECT_EQ(count_occurrences("new List new List", "new List"), 2u);
    EXPECT_EQ(count_occurrences("aaaa", "aa"), 2u);  // non-overlapping
    EXPECT_EQ(count_occurrences("abc", ""), 0u);
}

TEST(Strings, JsonEscapeUsesUnicodeFormForControlBytes) {
    EXPECT_EQ(json_escape("plain"), "plain");
    EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(json_escape("line\nfeed\ttab\r\x01"),
              "line\\u000afeed\\u0009tab\\u000d\\u0001");
    EXPECT_EQ(json_escape("\xce\xb4"), "\xce\xb4");  // UTF-8 passes through
}

TEST(Strings, CsvEscapeQuotesOnlyWhenNeeded) {
    EXPECT_EQ(csv_escape(""), "");
    EXPECT_EQ(csv_escape("plain text;\t\r"), "plain text;\t\r");
    EXPECT_EQ(csv_escape("x,y"), "\"x,y\"");
    EXPECT_EQ(csv_escape("q\"q"), "\"q\"\"q\"");
    EXPECT_EQ(csv_escape("\""), "\"\"\"\"");
    EXPECT_EQ(csv_escape("two\nlines"), "\"two\nlines\"");
    EXPECT_EQ(csv_escape("List<Int64>, \"a\"\n"),
              "\"List<Int64>, \"\"a\"\"\n\"");
}

TEST(Table, FormatHelpers) {
    EXPECT_EQ(Table::fmt(2.126, 2), "2.13");
    EXPECT_EQ(Table::with_commas(936356), "936,356");
    EXPECT_EQ(Table::with_commas(-1234), "-1,234");
    EXPECT_EQ(Table::with_commas(0), "0");
    EXPECT_EQ(Table::pct(0.7692), "76.92%");
}

TEST(Table, RendersAlignedRows) {
    Table t({"Name", "LOC"});
    t.add_row({"astrogrep", "4,800"});
    t.add_row({"x", "1"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("astrogrep"), std::string::npos);
    EXPECT_NE(out.find("| Name"), std::string::npos);
    EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, CsvEscaping) {
    Table t({"a", "b"});
    t.add_row({"x,y", "q\"q"});
    std::ostringstream os;
    t.print_csv(os);
    EXPECT_EQ(os.str(), "a,b\n\"x,y\",\"q\"\"q\"\n");
}

TEST(SourceLoc, ToStringAndOrdering) {
    const SourceLoc a{"Cls", "M", 3};
    EXPECT_EQ(a.to_string(), "Cls.M:3");
    const SourceLoc b{"Cls", "M", 4};
    EXPECT_LT(a, b);
    EXPECT_EQ(a, (SourceLoc{"Cls", "M", 3}));
}

TEST(Stopwatch, MeasuresNonNegativeMonotonicTime) {
    Stopwatch sw;
    const auto t1 = sw.elapsed_ns();
    const auto t2 = sw.elapsed_ns();
    EXPECT_GE(t2, t1);
    sw.restart();
    EXPECT_GE(sw.elapsed_ms(), 0.0);
}

}  // namespace
}  // namespace dsspy::support
