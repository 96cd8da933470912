// Tests for the seven evaluation apps: sequential/parallel equivalence,
// instrumentation transparency, and expected DSspy classifications.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/algorithmia.hpp"
#include "apps/app_registry.hpp"
#include "apps/astrogrep.hpp"
#include "apps/contentfinder.hpp"
#include "apps/cpubench.hpp"
#include "apps/gpdotnet.hpp"
#include "apps/mandelbrot.hpp"
#include "apps/text_corpus.hpp"
#include "apps/wordwheel.hpp"
#include "core/dsspy.hpp"

namespace dsspy::apps {
namespace {

using core::AnalysisResult;
using core::Dsspy;
using core::UseCaseKind;
using runtime::ProfilingSession;

// --------------------------- text corpus ----------------------------------

TEST(TextCorpus, DeterministicDocuments) {
    const auto a = make_documents(5, 20, 1);
    const auto b = make_documents(5, 20, 1);
    ASSERT_EQ(a.size(), 5u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].lines, b[i].lines);
    }
}

TEST(TextCorpus, DocumentsContainVocabularyWords) {
    const auto docs = make_documents(3, 30, 2);
    std::size_t lines = 0;
    for (const auto& doc : docs) lines += doc.lines.size();
    EXPECT_GT(lines, 30u);
    EXPECT_FALSE(corpus_vocabulary().empty());
}

TEST(TextCorpus, WordListHasValidLengths) {
    const auto words = make_word_list(1000);
    ASSERT_EQ(words.size(), 1000u);
    for (const auto& w : words) {
        EXPECT_GE(w.size(), 3u);
        EXPECT_LE(w.size(), 9u);
    }
}

// --------------------------- registry --------------------------------------

TEST(AppRegistry, HasSevenAppsWithPaperNumbers) {
    const auto& apps = evaluation_apps();
    ASSERT_EQ(apps.size(), 7u);
    std::size_t instances = 0;
    std::size_t flagged = 0;
    std::size_t loc = 0;
    for (const AppInfo& app : apps) {
        EXPECT_NE(app.run_sequential, nullptr);
        EXPECT_NE(app.run_parallel, nullptr);
        instances += app.paper_instances;
        flagged += app.paper_flagged;
        loc += app.paper_loc;
    }
    EXPECT_EQ(instances, 104u);  // "from 104 down to 24"
    EXPECT_EQ(flagged, 24u);
    EXPECT_EQ(loc, 15'550u);  // Table IV LOC total
    EXPECT_NE(find_app("Gpdotnet"), nullptr);
    EXPECT_EQ(find_app("nope"), nullptr);
}

// --------------------------- per-app behaviour ------------------------------

class AppTest : public ::testing::TestWithParam<std::size_t> {
protected:
    [[nodiscard]] const AppInfo& app() const {
        return evaluation_apps()[GetParam()];
    }
};

TEST_P(AppTest, SequentialRunIsDeterministic) {
    const RunResult a = app().run_sequential(nullptr);
    const RunResult b = app().run_sequential(nullptr);
    EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
}

TEST_P(AppTest, InstrumentationDoesNotChangeBehaviour) {
    const RunResult plain = app().run_sequential(nullptr);
    ProfilingSession session;
    const RunResult instrumented = app().run_sequential(&session);
    session.stop();
    EXPECT_DOUBLE_EQ(plain.checksum, instrumented.checksum);
    EXPECT_GT(session.store().total_events(), 100u);
}

TEST_P(AppTest, ParallelRunMatchesSequentialChecksum) {
    const RunResult seq = app().run_sequential(nullptr);
    par::ThreadPool pool(4);
    const RunResult par_result = app().run_parallel(pool);
    // Floating-point sums may be reordered; allow a tiny relative error.
    const double tolerance =
        1e-6 * std::max(1.0, std::abs(seq.checksum));
    EXPECT_NEAR(seq.checksum, par_result.checksum, tolerance)
        << app().name;
}

TEST_P(AppTest, InstrumentedInstanceCountMatchesPaper) {
    ProfilingSession session;
    (void)app().run_sequential(&session);
    session.stop();
    const AnalysisResult analysis = Dsspy{}.analyze(session);
    EXPECT_EQ(analysis.list_array_instances(), app().paper_instances)
        << app().name;
}

TEST_P(AppTest, SimulatedRunMatchesSequentialChecksum) {
    const RunResult seq = app().run_sequential(nullptr);
    ASSERT_NE(app().run_simulated, nullptr);
    const RunResult sim = app().run_simulated(8);
    const double tolerance =
        1e-6 * std::max(1.0, std::abs(seq.checksum));
    EXPECT_NEAR(seq.checksum, sim.checksum, tolerance) << app().name;
    // The projected time on 8 virtual workers never exceeds the measured
    // sequential time by more than noise, and is positive.
    EXPECT_GT(sim.total_ns, 0u);
    EXPECT_LE(sim.parallelizable_ns, sim.total_ns);
}

TEST_P(AppTest, SimulatedSpeedupGrowsWithWorkers) {
    // Judged on one run's measured schedule: the regions' makespan on 8
    // virtual workers must not exceed their summed work, which is the
    // makespan on 1.  Both come from the same chunk timings, so host noise
    // cannot flip the comparison, yet a simulator that projected more
    // workers as slower still fails it.
    const SimulatedRunResult eight = app().run_simulated(8);
    EXPECT_GT(eight.region_work_ns, 0u) << app().name;
    EXPECT_LE(eight.parallelizable_ns, eight.region_work_ns) << app().name;
}

TEST_P(AppTest, ParallelizableFractionIsMeasured) {
    const RunResult seq = app().run_sequential(nullptr);
    EXPECT_GT(seq.total_ns, 0u);
    EXPECT_LE(seq.parallelizable_ns, seq.total_ns);
    const double fraction = seq.sequential_fraction();
    EXPECT_GE(fraction, 0.0);
    EXPECT_LE(fraction, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, AppTest, ::testing::Range<std::size_t>(0, 7),
    [](const auto& info) {
        std::string name = evaluation_apps()[info.param].name;
        for (char& ch : name)
            if (ch == ' ') ch = '_';
        return name;
    });

// --------------------------- flagged locations ------------------------------

std::size_t flagged_instances(const AnalysisResult& analysis) {
    return analysis.flagged_instances();
}

TEST(Algorithmia, FlagsPriorityQueueAndInits) {
    ProfilingSession session;
    (void)run_algorithmia(&session);
    session.stop();
    const AnalysisResult analysis = Dsspy{}.analyze(session);
    const auto counts = analysis.use_case_counts();
    EXPECT_GE(counts[static_cast<size_t>(UseCaseKind::FrequentLongRead)],
              1u);
    EXPECT_GE(counts[static_cast<size_t>(UseCaseKind::LongInsert)], 3u);
    EXPECT_EQ(flagged_instances(analysis), 4u);  // paper: 4 of 16 (75%)
    EXPECT_NEAR(analysis.search_space_reduction(), 0.75, 1e-9);
}

TEST(Gpdotnet, FlagsTableVLocations) {
    ProfilingSession session;
    (void)run_gpdotnet(&session);
    session.stop();
    const AnalysisResult analysis = Dsspy{}.analyze(session);

    bool population_li = false;
    bool population_flr = false;
    bool series_flr = false;
    bool fitness_li = false;
    bool fitness_flr = false;
    for (const auto& ia : analysis.instances()) {
        const auto& loc = ia.stats.info.location;
        for (const auto& uc : ia.use_cases) {
            if (loc.method == ".ctor") {
                population_li |= uc.kind == UseCaseKind::LongInsert;
                population_flr |= uc.kind == UseCaseKind::FrequentLongRead;
            }
            if (loc.method == "GenerateTerminalSet")
                series_flr |= uc.kind == UseCaseKind::FrequentLongRead;
            if (loc.method == "FitnessProportionateSelection") {
                fitness_li |= uc.kind == UseCaseKind::LongInsert;
                fitness_flr |= uc.kind == UseCaseKind::FrequentLongRead;
            }
        }
    }
    EXPECT_TRUE(population_li);   // Table V use case 3
    EXPECT_TRUE(population_flr);  // Table V use case 2
    EXPECT_TRUE(series_flr);      // Table V use case 1
    EXPECT_TRUE(fitness_li);      // Table V use case 5
    EXPECT_TRUE(fitness_flr);     // Table V use case 4
}

TEST(Mandelbrot, FlagsFourOfSevenInstances) {
    ProfilingSession session;
    (void)run_mandelbrot(&session);
    session.stop();
    const AnalysisResult analysis = Dsspy{}.analyze(session);
    EXPECT_EQ(analysis.list_array_instances(), 7u);
    EXPECT_EQ(flagged_instances(analysis), 4u);  // paper: 4 of 7 (42.86%)
}

TEST(WordWheel, FlagsWordListAndSolutions) {
    ProfilingSession session;
    (void)run_wordwheel(&session);
    session.stop();
    const AnalysisResult analysis = Dsspy{}.analyze(session);
    EXPECT_EQ(analysis.list_array_instances(), 5u);
    EXPECT_EQ(flagged_instances(analysis), 2u);  // paper: 2 of 5 (60%)
    const auto counts = analysis.use_case_counts();
    EXPECT_GE(counts[static_cast<size_t>(UseCaseKind::FrequentLongRead)],
              1u);
    EXPECT_GE(counts[static_cast<size_t>(UseCaseKind::LongInsert)], 1u);
}

TEST(Astrogrep, FlagsResultAccumulators) {
    ProfilingSession session;
    (void)run_astrogrep(&session);
    session.stop();
    const AnalysisResult analysis = Dsspy{}.analyze(session);
    EXPECT_EQ(analysis.list_array_instances(), 21u);
    EXPECT_EQ(flagged_instances(analysis), 2u);  // paper: 2 of 21 (90.48%)
}

TEST(Contentfinder, FlagsTwoOfEleven) {
    ProfilingSession session;
    (void)run_contentfinder(&session);
    session.stop();
    const AnalysisResult analysis = Dsspy{}.analyze(session);
    EXPECT_EQ(analysis.list_array_instances(), 11u);
    EXPECT_EQ(flagged_instances(analysis), 2u);  // paper: 2 of 11 (81.82%)
}

TEST(CpuBench, SequentialFractionDominates) {
    // The Table VI story: most of the suite's runtime is not covered by
    // the recommendation targets (Whetstone + pivoting chain).
    const RunResult seq = run_cpubench(nullptr);
    EXPECT_GT(seq.sequential_fraction(), 0.5);
}

TEST(Gpdotnet, ParallelizableFractionDominates) {
    // Opposite end of Table VI: fitness evaluation dominates (paper
    // measured a 3.89% sequential fraction).
    const RunResult seq = run_gpdotnet(nullptr);
    EXPECT_LT(seq.sequential_fraction(), 0.6);
}

}  // namespace
}  // namespace dsspy::apps
