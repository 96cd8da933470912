// End-to-end integration tests: instrumented containers -> session ->
// analysis -> report, across capture modes and threads.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "core/dsspy.hpp"
#include "core/report.hpp"
#include "ds/ds.hpp"
#include "live_sink.hpp"
#include "parallel/algorithms.hpp"
#include "support/rng.hpp"

namespace dsspy {
namespace {

using core::AnalysisResult;
using core::Dsspy;
using core::PatternKind;
using core::UseCaseKind;
using runtime::Delivery;
using runtime::LiveSinkCheck;
using runtime::ProfilingSession;

class PipelineModeTest : public ::testing::TestWithParam<Delivery> {};

TEST_P(PipelineModeTest, Figure3WorkloadEndToEnd) {
    // The paper's Figure 3 profile: repeated append phases, each followed
    // by a full forward read, then a clear -> Long-Insert +
    // Frequent-Long-Read on the same list.
    ProfilingSession session;
    LiveSinkCheck sink;
    sink.attach(session, GetParam());
    {
        ds::ProfiledList<int> list(&session, {"Paper", "Figure3", 1});
        for (int round = 0; round < 15; ++round) {
            for (int i = 0; i < 200; ++i) list.add(i);
            for (std::size_t i = 0; i < list.count(); ++i)
                (void)list.get(i);
            for (std::size_t i = 0; i < list.count(); ++i)
                (void)list.get(i);
            list.clear();
        }
    }
    session.stop();
    sink.expect_complete(session, GetParam());

    const AnalysisResult analysis = Dsspy{}.analyze(session);
    ASSERT_EQ(analysis.instances().size(), 1u);
    const auto& ia = analysis.instances()[0];

    // Pattern level: Insert-Back and Read-Forward both present.
    bool insert_back = false;
    bool read_forward = false;
    for (const auto& p : ia.patterns) {
        insert_back |= p.kind == PatternKind::InsertBack;
        read_forward |= p.kind == PatternKind::ReadForward;
    }
    EXPECT_TRUE(insert_back);
    EXPECT_TRUE(read_forward);

    // Use-case level.
    bool li = false;
    bool flr = false;
    for (const auto& uc : ia.use_cases) {
        li |= uc.kind == UseCaseKind::LongInsert;
        flr |= uc.kind == UseCaseKind::FrequentLongRead;
    }
    EXPECT_TRUE(li);
    EXPECT_TRUE(flr);
}

INSTANTIATE_TEST_SUITE_P(BothModes, PipelineModeTest,
                         ::testing::Values(Delivery::Buffered,
                                           Delivery::Streaming),
                         runtime::delivery_name);

// With and without a live sink draining the chains during capture.
TEST(Pipeline, BufferedAndStreamingProduceIdenticalAnalyses) {
    auto run = [](Delivery delivery) {
        ProfilingSession session;
        LiveSinkCheck sink;
        sink.attach(session, delivery);
        {
            ds::ProfiledList<int> list(&session, {"X", "M", 1});
            for (int i = 0; i < 500; ++i) list.add(i);
            for (int sweep = 0; sweep < 12; ++sweep)
                for (std::size_t i = 0; i < list.count(); ++i)
                    (void)list.get(i);
        }
        session.stop();
        sink.expect_complete(session, delivery);
        return Dsspy{}.analyze(session).use_case_counts();
    };
    EXPECT_EQ(run(Delivery::Buffered), run(Delivery::Streaming));
}

TEST(Pipeline, MultithreadedAccessIsAnalyzedPerThread) {
    // Two threads each sweep the same list forward; the per-thread pattern
    // detector must see two clean Read-Forward streams instead of noise.
    ProfilingSession session;
    runtime::InstanceId id;
    {
        ds::ProfiledList<int> list(&session, {"MT", "M", 1});
        for (int i = 0; i < 1000; ++i) list.add(i);
        id = list.instance_id();
        std::thread t1([&list] {
            for (std::size_t i = 0; i < list.count(); ++i) (void)list.get(i);
        });
        std::thread t2([&list] {
            for (std::size_t i = 0; i < list.count(); ++i) (void)list.get(i);
        });
        t1.join();
        t2.join();
    }
    session.stop();

    const AnalysisResult analysis = Dsspy{}.analyze(session);
    const auto& ia = analysis.instances()[0];
    ASSERT_EQ(ia.stats.info.id, id);
    std::size_t full_read_sweeps = 0;
    for (const auto& p : ia.patterns)
        if (p.kind == PatternKind::ReadForward && p.length == 1000)
            ++full_read_sweeps;
    EXPECT_EQ(full_read_sweeps, 2u);
    EXPECT_EQ(ia.stats.thread_count, 3u);  // main + 2 workers
}

TEST(Pipeline, SearchSpaceReductionCountsOnlyListsAndArrays) {
    ProfilingSession session;
    {
        // One flagged list, one unflagged list, one dictionary (excluded
        // from the denominator), one unflagged array.
        ds::ProfiledList<int> hot(&session, {"P", "Hot", 1});
        for (int i = 0; i < 200; ++i) hot.add(i);

        ds::ProfiledList<int> cold(&session, {"P", "Cold", 2});
        cold.add(1);
        (void)cold.get(0);

        ds::ProfiledDictionary<int, int> dict(&session, {"P", "Dict", 3});
        dict.set(1, 1);

        ds::ProfiledArray<int> arr(&session, {"P", "Arr", 4}, 8);
        arr.set(3, 1);
    }
    session.stop();
    const AnalysisResult analysis = Dsspy{}.analyze(session);
    EXPECT_EQ(analysis.total_instances(), 4u);
    EXPECT_EQ(analysis.list_array_instances(), 3u);
    EXPECT_EQ(analysis.flagged_instances(), 1u);
    EXPECT_NEAR(analysis.search_space_reduction(), 2.0 / 3.0, 1e-9);
}

TEST(Pipeline, ReportContainsTableVFields) {
    ProfilingSession session;
    {
        ds::ProfiledList<int> list(&session,
                                   {"GPdotNet.Engine.CHPopulation", ".ctor",
                                    14});
        for (int i = 0; i < 300; ++i) list.add(i);
    }
    session.stop();
    const AnalysisResult analysis = Dsspy{}.analyze(session);

    std::ostringstream os;
    core::print_use_case_report(os, analysis);
    const std::string report = os.str();
    EXPECT_NE(report.find("Use Case 1"), std::string::npos);
    EXPECT_NE(report.find("GPdotNet.Engine.CHPopulation"), std::string::npos);
    EXPECT_NE(report.find(".ctor"), std::string::npos);
    EXPECT_NE(report.find("14"), std::string::npos);
    EXPECT_NE(report.find("List<Int32>"), std::string::npos);
    EXPECT_NE(report.find("Long-Insert"), std::string::npos);
    EXPECT_NE(report.find("Parallelize the insert operation."),
              std::string::npos);

    std::ostringstream summary;
    core::print_instance_summary(summary, analysis);
    EXPECT_NE(summary.str().find("LI"), std::string::npos);
}

TEST(Pipeline, EmptySessionProducesEmptyReport) {
    ProfilingSession session;
    session.stop();
    const AnalysisResult analysis = Dsspy{}.analyze(session);
    EXPECT_EQ(analysis.total_instances(), 0u);
    EXPECT_DOUBLE_EQ(analysis.search_space_reduction(), 0.0);
    std::ostringstream os;
    core::print_use_case_report(os, analysis);
    EXPECT_NE(os.str().find("No use cases detected."), std::string::npos);
}

TEST(Pipeline, RecommendationIsActionable) {
    // Follow the recommendation end-to-end: detect a Frequent-Long-Read on
    // a priority-queue-on-a-list, then apply the recommended parallel
    // search and verify it computes the same result.
    ProfilingSession session;
    ds::List<double> plain;
    runtime::InstanceId id;
    {
        ds::ProfiledList<double> queue(&session, {"PQ", "ExtractMax", 1});
        support::Rng rng(5);
        for (int i = 0; i < 2000; ++i) {
            const double v = rng.next_double();
            queue.add(v);
            plain.add(v);
        }
        for (int sweep = 0; sweep < 12; ++sweep) {
            std::size_t best = 0;
            double best_value = queue.get(0);
            for (std::size_t i = 1; i < queue.count(); ++i) {
                const double value = queue.get(i);
                if (best_value < value) {
                    best_value = value;
                    best = i;
                }
            }
            (void)best;
        }
        id = queue.instance_id();
    }
    session.stop();

    const AnalysisResult analysis = Dsspy{}.analyze(session);
    bool flr = false;
    for (const auto& ia : analysis.instances())
        if (ia.stats.info.id == id)
            for (const auto& uc : ia.use_cases)
                flr |= uc.kind == UseCaseKind::FrequentLongRead;
    ASSERT_TRUE(flr);

    // Apply the recommendation.
    std::size_t seq_best = 0;
    for (std::size_t i = 1; i < plain.count(); ++i)
        if (plain[seq_best] < plain[i]) seq_best = i;
    par::ThreadPool pool(4);
    const auto par_best = par::parallel_max_index(
        pool, std::span<const double>(plain.data(), plain.count()));
    EXPECT_EQ(static_cast<std::size_t>(par_best), seq_best);
}

}  // namespace
}  // namespace dsspy
