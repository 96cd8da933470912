// Differential tests: incremental streaming analyzer vs post-mortem DSspy.
//
// DESIGN.md §8 claims the two pipelines are equivalent — same patterns,
// same use-case verdicts, same recommendation text — because both reduce
// to the same InstanceStats and classify through the same engine.  This
// suite holds them to that, bit for bit, over every evaluation app, every
// corpus workload, live streaming/buffered sessions, adversarial synthetic
// workloads, and non-default configurations.  It also regression-tests the
// streaming trace readers (quote state across buffer refills, DST1 prefix
// carry, malformed-input parity with the slurping reader).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "aos_oracle.hpp"
#include "apps/app_registry.hpp"
#include "core/detector_kernels.hpp"
#include "core/dsspy.hpp"
#include "core/export.hpp"
#include "core/incremental.hpp"
#include "core/report.hpp"
#include "corpus/program_model.hpp"
#include "corpus/workload.hpp"
#include "ds/ds.hpp"
#include "obs/metrics.hpp"
#include "runtime/session.hpp"
#include "runtime/trace_io.hpp"

namespace dsspy {
namespace {

using core::AnalysisResult;
using core::DetectorConfig;
using core::Dsspy;
using core::IncrementalAnalyzer;
using core::UseCaseKind;
using runtime::AccessEvent;
using runtime::AnalysisMode;
using runtime::CaptureMode;
using runtime::DsKind;
using runtime::InstanceId;
using runtime::InstanceInfo;
using runtime::kWholeContainer;
using runtime::OpKind;
using runtime::ProfilingSession;

// --- equivalence helpers ----------------------------------------------------

std::string report_text(const AnalysisResult& result) {
    std::ostringstream os;
    core::print_use_case_report(os, result);
    os << "---\n";
    core::print_use_case_report(os, result, /*parallel_only=*/true);
    os << "---\n";
    core::print_instance_summary(os, result);
    os << "---\n";
    core::write_use_cases_csv(os, result);
    os << "---\n";
    core::write_instances_csv(os, result);
    return os.str();
}

/// A post-mortem result's stats must agree with the per-event oracle's
/// aggregates of the rows it analyzed: the printers read the stats, so a
/// drift here would change post-mortem output.
void expect_stats_match_profiles(const AnalysisResult& pm) {
    ASSERT_NE(pm.columns(), nullptr);
    const runtime::ColumnStore& columns = *pm.columns();
    for (const core::InstanceAnalysis& ia : pm.instances()) {
        SCOPED_TRACE("instance " + std::to_string(ia.stats.info.id));
        const runtime::ColumnRange range = columns.range(ia.stats.info.id);
        std::vector<AccessEvent> events;
        for (std::size_t row = range.begin; row < range.end; ++row)
            events.push_back(columns.row(row));
        const oracle::ProfileAggregates p = oracle::aggregates(events);
        EXPECT_EQ(ia.stats.total, p.total_events);
        EXPECT_EQ(ia.stats.counts, p.counts);
        EXPECT_EQ(ia.stats.thread_count, p.thread_count);
        EXPECT_EQ(ia.stats.max_size, p.max_size);
        EXPECT_EQ(ia.stats.duration_ns, p.duration_ns);
        EXPECT_EQ(ia.total_patterns(), ia.patterns.size());
    }
}

/// The stats with the wall-clock fields zeroed: two live recordings of
/// the same workload fold the same events at different timestamps.
core::InstanceStats without_clock(core::InstanceStats s) {
    s.duration_ns = 0;
    s.long_insert_ns = 0;
    return s;
}

/// Assert a post-mortem and an incremental result agree on every
/// observable: aggregates, per-instance stats and verdicts, and all
/// rendered text.  `same_recording` is false when the two engines saw two
/// separate live runs of one workload; stats then match up to timestamps.
void expect_results_equal(const AnalysisResult& pm,
                          const AnalysisResult& inc,
                          bool same_recording = true) {
    expect_stats_match_profiles(pm);
    EXPECT_EQ(inc.columns(), nullptr);
    ASSERT_EQ(pm.instances().size(), inc.instances().size());
    EXPECT_EQ(pm.total_instances(), inc.total_instances());
    EXPECT_EQ(pm.list_array_instances(), inc.list_array_instances());
    EXPECT_EQ(pm.flagged_instances(), inc.flagged_instances());
    EXPECT_EQ(pm.total_events(), inc.total_events());
    EXPECT_DOUBLE_EQ(pm.search_space_reduction(),
                     inc.search_space_reduction());
    EXPECT_EQ(pm.use_case_counts(), inc.use_case_counts());
    for (std::size_t i = 0; i < pm.instances().size(); ++i) {
        SCOPED_TRACE("instance index " + std::to_string(i));
        const core::InstanceAnalysis& a = pm.instances()[i];
        const core::InstanceAnalysis& b = inc.instances()[i];
        if (same_recording) {
            EXPECT_TRUE(a.stats == b.stats);
        } else {
            EXPECT_TRUE(without_clock(a.stats) == without_clock(b.stats));
        }
        EXPECT_TRUE(b.patterns.empty());
        ASSERT_EQ(a.use_cases.size(), b.use_cases.size());
        for (std::size_t u = 0; u < a.use_cases.size(); ++u) {
            SCOPED_TRACE("use case " + std::to_string(u));
            EXPECT_EQ(a.use_cases[u].kind, b.use_cases[u].kind);
            EXPECT_EQ(a.use_cases[u].reason(), b.use_cases[u].reason());
            EXPECT_EQ(a.use_cases[u].recommendation(),
                      b.use_cases[u].recommendation());
            EXPECT_EQ(a.use_cases[u].parallel_potential(),
                      b.use_cases[u].parallel_potential());
            EXPECT_DOUBLE_EQ(a.use_cases[u].confidence(),
                             b.use_cases[u].confidence());
            EXPECT_TRUE(a.use_cases[u] == b.use_cases[u]);
        }
    }
    EXPECT_EQ(report_text(pm), report_text(inc));
}

/// Replay a stopped session's store through an IncrementalAnalyzer
/// (per-instance seq order, the documented fold contract) and diff the
/// result against the post-mortem analysis.
void expect_equivalent(const ProfilingSession& session,
                       const DetectorConfig& config = {}) {
    const AnalysisResult pm = Dsspy{config}.analyze(session);
    const std::vector<InstanceInfo> instances = session.registry().snapshot();
    IncrementalAnalyzer inc(config);
    for (const InstanceInfo& info : instances) inc.declare_instance(info);
    for (const InstanceInfo& info : instances)
        inc.fold(oracle::events_of(session.store(), info.id));
    expect_results_equal(pm, inc.finish(instances));
}

bool has_kind(const AnalysisResult& result, UseCaseKind kind) {
    for (const core::InstanceAnalysis& ia : result.instances())
        for (const core::UseCase& uc : ia.use_cases)
            if (uc.kind == kind) return true;
    return false;
}

InstanceId reg(ProfilingSession& s, DsKind kind, const char* method,
               std::uint32_t position = 1) {
    return s.register_instance(kind, "List<int>",
                               {"Differential.Test", method, position});
}

// --- every evaluation app ---------------------------------------------------

class AppDifferentialTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AppDifferentialTest, IncrementalMatchesPostmortem) {
    const apps::AppInfo* app = apps::find_app(GetParam());
    ASSERT_NE(app, nullptr);
    ProfilingSession session;
    (void)app->run_sequential(&session);
    session.stop();
    ASSERT_GT(session.events_recorded(), 0u);
    expect_equivalent(session);
}

std::vector<std::string> app_names() {
    std::vector<std::string> names;
    for (const apps::AppInfo& app : apps::evaluation_apps())
        names.push_back(app.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, AppDifferentialTest, ::testing::ValuesIn(app_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        std::string id;
        for (char ch : info.param)
            if (std::isalnum(static_cast<unsigned char>(ch))) id += ch;
        return id;
    });

// --- every corpus workload --------------------------------------------------

TEST(CorpusDifferential, EvalWorkloadsMatch) {
    for (const corpus::ProgramModel& program : corpus::all_programs()) {
        if (!program.in_eval23) continue;
        SCOPED_TRACE(program.name);
        ProfilingSession session;
        corpus::run_eval_workload(program, &session);
        session.stop();
        expect_equivalent(session);
    }
}

TEST(CorpusDifferential, Study15WorkloadsMatch) {
    for (const corpus::ProgramModel& program : corpus::all_programs()) {
        if (!program.in_study15) continue;
        SCOPED_TRACE(program.name);
        ProfilingSession session;
        corpus::run_study15_workload(program, &session);
        session.stop();
        expect_equivalent(session);
    }
}

// --- quickstart / examples-style workloads ----------------------------------

/// The quickstart example's workload (fill, scan twice, clear, repeat).
void drive_quickstart(ProfilingSession& session) {
    ds::ProfiledList<int> tasks(&session,
                                {"Quickstart.Worker", "ProcessBatch", 7});
    for (int round = 0; round < 15; ++round) {
        for (int i = 0; i < 200; ++i) tasks.add(round * 1000 + i);
        long best = 0;
        for (std::size_t i = 0; i < tasks.count(); ++i)
            best = std::max<long>(best, tasks.get(i));
        for (std::size_t i = 0; i < tasks.count(); ++i) (void)tasks.get(i);
        tasks.clear();
        (void)best;
    }
}

TEST(ExampleDifferential, QuickstartWorkloadMatches) {
    ProfilingSession session;
    drive_quickstart(session);
    session.stop();
    expect_equivalent(session);
}

TEST(ExampleDifferential, EventByEventFoldMatchesBatchFold) {
    ProfilingSession session;
    drive_quickstart(session);
    session.stop();

    const std::vector<InstanceInfo> instances = session.registry().snapshot();
    IncrementalAnalyzer batched, single;
    for (const InstanceInfo& info : instances) {
        batched.declare_instance(info);
        single.declare_instance(info);
    }
    for (const InstanceInfo& info : instances) {
        const std::vector<AccessEvent> events =
            oracle::events_of(session.store(), info.id);
        batched.fold(events);
        for (const AccessEvent& ev : events) single.fold(ev);
    }
    EXPECT_EQ(batched.events_folded(), single.events_folded());
    const AnalysisResult a = batched.finish(instances);
    const AnalysisResult b = single.finish(instances);
    ASSERT_EQ(a.instances().size(), b.instances().size());
    for (std::size_t i = 0; i < a.instances().size(); ++i)
        EXPECT_TRUE(a.instances()[i].stats == b.instances()[i].stats) << i;
    EXPECT_EQ(report_text(a), report_text(b));
}

// --- live sessions: ordered sink delivery -----------------------------------

/// Multithreaded workload in the style of examples/multithreaded_profiling:
/// a producer fills a shared list while two consumers scan it, plus one
/// private list per consumer.
void drive_multithreaded(ProfilingSession& session) {
    ds::ProfiledList<std::int64_t> work(&session,
                                        {"Shared.Pipeline", "Run", 11});
    std::mutex work_mutex;
    std::jthread producer([&] {
        for (std::int64_t i = 0; i < 2000; ++i) {
            const std::scoped_lock lock(work_mutex);
            work.add(i);
        }
    });
    auto consumer = [&](int which) {
        ds::ProfiledList<std::int64_t> local(
            &session,
            {"Shared.Pipeline", "Consume", 20u + static_cast<unsigned>(which)});
        for (int round = 0; round < 50; ++round) {
            {
                const std::scoped_lock lock(work_mutex);
                for (std::size_t i = 0; i < work.count(); ++i)
                    (void)work.get(i);
            }
            for (int i = 0; i < 40; ++i) local.add(i);
            local.clear();
        }
    };
    std::jthread consumer1(consumer, 1);
    std::jthread consumer2(consumer, 2);
}

// The sink streams live behind a drain bound that holds the recording
// threads back.
TEST(LiveSessionDifferential, StreamingSinkMatchesPostmortem) {
    ProfilingSession session(CaptureMode::Buffered, /*drain_bound=*/256);
    IncrementalAnalyzer inc;
    core::attach_incremental(session, inc);
    drive_multithreaded(session);
    session.stop();

    ASSERT_GT(session.events_recorded(), 0u);
    EXPECT_EQ(inc.events_folded(), session.events_recorded());
    const AnalysisResult pm = Dsspy{}.analyze(session);
    expect_results_equal(pm, Dsspy::finish(inc, session));
}

TEST(LiveSessionDifferential, BufferedSinkMatchesPostmortem) {
    ProfilingSession session(CaptureMode::Buffered);
    IncrementalAnalyzer inc;
    core::attach_incremental(session, inc);
    drive_multithreaded(session);
    session.stop();

    EXPECT_EQ(inc.events_folded(), session.events_recorded());
    const AnalysisResult pm = Dsspy{}.analyze(session);
    expect_results_equal(pm, Dsspy::finish(inc, session));
}

TEST(LiveSessionDifferential, IncrementalModeRetainsNoEvents) {
    // Same deterministic single-threaded workload twice: once retained for
    // post-mortem analysis, once in AnalysisMode::Incremental where the
    // store must stay empty and the verdicts must still match.
    ProfilingSession reference;
    drive_quickstart(reference);
    reference.stop();
    const AnalysisResult pm = Dsspy{}.analyze(reference);

    ProfilingSession session(CaptureMode::Buffered, 64 * 1024,
                             AnalysisMode::Incremental);
    IncrementalAnalyzer inc;
    core::attach_incremental(session, inc);
    drive_quickstart(session);
    session.stop();

    EXPECT_EQ(session.store().total_events(), 0u);
    EXPECT_EQ(inc.events_folded(), session.events_recorded());
    EXPECT_EQ(session.events_recorded(), reference.events_recorded());
    expect_results_equal(pm, Dsspy::finish(inc, session),
                         /*same_recording=*/false);
}

TEST(LiveSessionDifferential, SnapshotDoesNotPerturbAndMatchesPrefix) {
    ProfilingSession session;
    drive_quickstart(session);
    session.stop();
    const std::vector<InstanceInfo> instances = session.registry().snapshot();
    ASSERT_EQ(instances.size(), 1u);
    const std::vector<AccessEvent> stored =
        oracle::events_of(session.store(), instances[0].id);
    const std::span<const AccessEvent> events = stored;
    const std::size_t half = events.size() / 2;

    IncrementalAnalyzer streamed, prefix_only;
    streamed.declare_instance(instances[0]);
    prefix_only.declare_instance(instances[0]);
    streamed.fold(events.subspan(0, half));
    prefix_only.fold(events.subspan(0, half));

    // A mid-stream snapshot equals the terminal report of an analyzer that
    // saw only the prefix ...
    EXPECT_EQ(report_text(streamed.snapshot(instances)),
              report_text(prefix_only.finish(instances)));

    // ... and taking it must not change the final verdicts.
    streamed.fold(events.subspan(half));
    const AnalysisResult pm = Dsspy{}.analyze(session);
    expect_results_equal(pm, streamed.finish(instances));
}

// --- adversarial synthetic workloads ----------------------------------------

void drive_sai_closed_run(ProfilingSession& session) {
    const InstanceId id = reg(session, DsKind::List, "SaiClosed");
    for (int i = 0; i < 150; ++i)
        session.record(id, OpKind::Add, i, static_cast<std::uint32_t>(i + 1));
    session.record(id, OpKind::Sort, kWholeContainer, 150);
    for (int i = 0; i < 20; ++i) session.record(id, OpKind::Get, i, 150);
}

TEST(SyntheticDifferential, SortAfterInsertClosedRun) {
    ProfilingSession session;
    drive_sai_closed_run(session);
    session.stop();
    EXPECT_TRUE(has_kind(Dsspy{}.analyze(session),
                         UseCaseKind::SortAfterInsert));
    expect_equivalent(session);
}

// The qualifying insertion run is still open when the Sort arrives,
// and a second insert run is still open at end of stream.
void drive_sai_open_run_at_sort(ProfilingSession& session) {
    const InstanceId id = reg(session, DsKind::List, "SaiOpen");
    for (int i = 0; i < 140; ++i)
        session.record(id, OpKind::Add, i, static_cast<std::uint32_t>(i + 1));
    session.record(id, OpKind::Sort, kWholeContainer, 140);
    for (int i = 0; i < 120; ++i)
        session.record(id, OpKind::Add, 140 + i,
                       static_cast<std::uint32_t>(141 + i));
    session.record(id, OpKind::Sort, kWholeContainer, 260);
}

TEST(SyntheticDifferential, SortAfterInsertOpenRunAtSort) {
    ProfilingSession session;
    drive_sai_open_run_at_sort(session);
    session.stop();
    EXPECT_TRUE(has_kind(Dsspy{}.analyze(session),
                         UseCaseKind::SortAfterInsert));
    expect_equivalent(session);
}

// The insertion phase ends, then more than sai_max_gap_events reads
// pass before the Sort: the candidate must have expired in both
// pipelines.
void drive_stale_insert_phase(ProfilingSession& session) {
    const InstanceId id = reg(session, DsKind::List, "SaiStale");
    for (int i = 0; i < 150; ++i)
        session.record(id, OpKind::Add, i, static_cast<std::uint32_t>(i + 1));
    for (int i = 0; i < 40; ++i) session.record(id, OpKind::Get, i, 150);
    session.record(id, OpKind::Sort, kWholeContainer, 150);
}

TEST(SyntheticDifferential, StaleInsertPhaseOutsideSortGap) {
    ProfilingSession session;
    drive_stale_insert_phase(session);
    session.stop();
    EXPECT_FALSE(has_kind(Dsspy{}.analyze(session),
                          UseCaseKind::SortAfterInsert));
    expect_equivalent(session);
}

void drive_write_without_read_tail(ProfilingSession& session) {
    const InstanceId id = reg(session, DsKind::List, "WwrTail");
    for (int i = 0; i < 20; ++i) session.record(id, OpKind::Add, i, i + 1);
    for (int i = 0; i < 40; ++i) session.record(id, OpKind::Get, i % 20, 20);
    for (int i = 0; i < 15; ++i) session.record(id, OpKind::Set, i, 20);
}

TEST(SyntheticDifferential, WriteWithoutReadTail) {
    ProfilingSession session;
    drive_write_without_read_tail(session);
    session.stop();
    EXPECT_TRUE(has_kind(Dsspy{}.analyze(session),
                         UseCaseKind::WriteWithoutRead));
    expect_equivalent(session);
}

void drive_queue_two_end_traffic(ProfilingSession& session) {
    const InstanceId id = reg(session, DsKind::List, "Queueish");
    std::uint32_t size = 0;
    for (int i = 0; i < 30; ++i) {
        session.record(id, OpKind::Add, size, size + 1);
        ++size;
    }
    for (int i = 0; i < 45; ++i) {
        session.record(id, OpKind::Add, size, size + 1);
        ++size;
        session.record(id, OpKind::Get, 0, size);
        session.record(id, OpKind::Get, size - 1, size);
        --size;
        session.record(id, OpKind::RemoveAt, 0, size);
    }
}

TEST(SyntheticDifferential, ImplementQueueTwoEndTraffic) {
    ProfilingSession session;
    drive_queue_two_end_traffic(session);
    session.stop();
    EXPECT_TRUE(has_kind(Dsspy{}.analyze(session),
                         UseCaseKind::ImplementQueue));
    expect_equivalent(session);
}

void drive_stack_common_end(ProfilingSession& session) {
    const InstanceId id = reg(session, DsKind::List, "Stackish");
    std::uint32_t size = 0;
    for (int round = 0; round < 15; ++round) {
        session.record(id, OpKind::Add, size, size + 1);
        ++size;
        session.record(id, OpKind::Add, size, size + 1);
        ++size;
        session.record(id, OpKind::RemoveAt, size - 1, size - 1);
        --size;
        session.record(id, OpKind::RemoveAt, size - 1, size - 1);
        --size;
    }
}

TEST(SyntheticDifferential, StackImplementationCommonEnd) {
    ProfilingSession session;
    drive_stack_common_end(session);
    session.stop();
    EXPECT_TRUE(has_kind(Dsspy{}.analyze(session),
                         UseCaseKind::StackImplementation));
    expect_equivalent(session);
}

void drive_front_churn_and_array_resizes(ProfilingSession& session) {
    const InstanceId front = reg(session, DsKind::List, "FrontChurn");
    std::uint32_t size = 0;
    for (int i = 0; i < 60; ++i) session.record(front, OpKind::InsertAt, 0, ++size);
    for (int i = 0; i < 60; ++i) session.record(front, OpKind::RemoveAt, 0, --size);
    const InstanceId arr = reg(session, DsKind::Array, "GrowingArray", 2);
    std::uint32_t cap = 4;
    for (int i = 0; i < 12; ++i) {
        session.record(arr, OpKind::Resize, kWholeContainer, cap *= 2);
        for (std::uint32_t p = 0; p < 4; ++p)
            session.record(arr, OpKind::Set, p, cap);
    }
}

TEST(SyntheticDifferential, InsertDeleteFrontAndArrayResizes) {
    ProfilingSession session;
    drive_front_churn_and_array_resizes(session);
    session.stop();
    EXPECT_TRUE(has_kind(Dsspy{}.analyze(session),
                         UseCaseKind::InsertDeleteFront));
    expect_equivalent(session);
}

void drive_search_and_long_read(ProfilingSession& session) {
    const InstanceId id = reg(session, DsKind::List, "Searchy");
    for (int i = 0; i < 100; ++i)
        session.record(id, OpKind::Add, i, static_cast<std::uint32_t>(i + 1));
    for (int sweep = 0; sweep < 12; ++sweep)
        for (int i = 0; i < 100; ++i) session.record(id, OpKind::Get, i, 100);
    for (int i = 0; i < 1100; ++i)
        session.record(id, OpKind::IndexOf, i % 100, 100);
}

TEST(SyntheticDifferential, FrequentSearchAndLongRead) {
    ProfilingSession session;
    drive_search_and_long_read(session);
    session.stop();
    const AnalysisResult pm = Dsspy{}.analyze(session);
    EXPECT_TRUE(has_kind(pm, UseCaseKind::FrequentSearch));
    EXPECT_TRUE(has_kind(pm, UseCaseKind::FrequentLongRead));
    expect_equivalent(session);
}

void drive_whole_container_ops(ProfilingSession& session) {
    const InstanceId id = reg(session, DsKind::List, "WholeOps");
    for (int i = 0; i < 50; ++i)
        session.record(id, OpKind::Add, i, static_cast<std::uint32_t>(i + 1));
    for (int i = 0; i < 5; ++i)
        session.record(id, OpKind::ForEach, kWholeContainer, 50);
    session.record(id, OpKind::Reverse, kWholeContainer, 50);
    session.record(id, OpKind::CopyTo, kWholeContainer, 50);
    session.record(id, OpKind::Clear, kWholeContainer, 0);
}

TEST(SyntheticDifferential, WholeContainerOpsAndForAll) {
    ProfilingSession session;
    drive_whole_container_ops(session);
    session.stop();
    expect_equivalent(session);
}

void drive_interleaved_threads(ProfilingSession& session) {
    const InstanceId id = reg(session, DsKind::List, "SharedByThreads");
    for (int i = 0; i < 100; ++i)
        session.record(id, OpKind::Add, i, static_cast<std::uint32_t>(i + 1));
    auto worker = [&session, id](int lane) {
        for (int round = 0; round < 30; ++round)
            for (int i = lane; i < 100; i += 2)
                session.record(id, OpKind::Get, i, 100);
    };
    {
        std::jthread a(worker, 0);
        std::jthread b(worker, 1);
    }
}

TEST(SyntheticDifferential, InterleavedThreadsOnSharedInstance) {
    ProfilingSession session;
    drive_interleaved_threads(session);
    session.stop();
    EXPECT_GE(session.thread_count(), 2u);
    expect_equivalent(session);
}

TEST(SyntheticDifferential, EmptySessionAndEventFreeInstance) {
    ProfilingSession empty;
    empty.stop();
    expect_equivalent(empty);

    ProfilingSession session;
    (void)reg(session, DsKind::List, "NeverTouched");
    const InstanceId used = reg(session, DsKind::List, "Touched", 3);
    for (int i = 0; i < 10; ++i) session.record(used, OpKind::Add, i, i + 1);
    session.mark_deallocated(used);
    session.stop();
    expect_equivalent(session);
}

void drive_configured(ProfilingSession& session) {
    const InstanceId id = reg(session, DsKind::List, "Configured");
    for (int i = 0; i < 40; ++i)
        session.record(id, OpKind::Add, i, static_cast<std::uint32_t>(i + 1));
    session.record(id, OpKind::Sort, kWholeContainer, 40);
    for (int i = 0; i < 40; ++i) session.record(id, OpKind::Get, i, 40);
    for (int i = 0; i < 30; ++i) session.record(id, OpKind::IndexOf, i, 40);
}

/// Thresholds low enough that short runs become patterns and phases,
/// time-based shares, and a strict pattern length.
std::vector<DetectorConfig> non_default_configs() {
    DetectorConfig sensitive;
    sensitive.min_pattern_events = 1;
    sensitive.li_min_phase_events = 5;
    sensitive.sai_min_phase_events = 5;
    sensitive.fs_min_search_ops = 10;
    sensitive.iq_min_events = 5;
    sensitive.flr_min_read_patterns = 1;

    DetectorConfig timed = sensitive;
    timed.share_basis = core::ShareBasis::Time;

    DetectorConfig strict;
    strict.min_pattern_events = 7;
    strict.wwr_min_events = 2;
    return {sensitive, timed, strict};
}

TEST(SyntheticDifferential, NonDefaultConfigs) {
    ProfilingSession session;
    drive_configured(session);
    session.stop();
    for (const DetectorConfig& config : non_default_configs())
        expect_equivalent(session, config);
}

// --- batch splits: the bulk fold against event-by-event ---------------------

using Stream = std::vector<AccessEvent>;

/// A stopped session's events instance by instance, as trace files store
/// them: the longest same-instance runs.
Stream instance_order(const ProfilingSession& session) {
    Stream stream;
    for (const InstanceInfo& info : session.registry().snapshot()) {
        const std::vector<AccessEvent> events =
            oracle::events_of(session.store(), info.id);
        stream.insert(stream.end(), events.begin(), events.end());
    }
    return stream;
}

/// The same events in global seq order, as the live sink delivers them:
/// runs of one instance cut short by the others'.
Stream seq_order(const ProfilingSession& session) {
    Stream stream = instance_order(session);
    std::stable_sort(stream.begin(), stream.end(),
                     [](const AccessEvent& a, const AccessEvent& b) {
                         return a.seq < b.seq;
                     });
    return stream;
}

AnalysisResult fold_by_event(const std::vector<InstanceInfo>& instances,
                             const Stream& stream,
                             const DetectorConfig& config) {
    IncrementalAnalyzer inc(config);
    for (const InstanceInfo& info : instances) inc.declare_instance(info);
    for (const AccessEvent& ev : stream) inc.fold(ev);
    EXPECT_EQ(inc.events_folded(), stream.size());
    return inc.finish(instances);
}

AnalysisResult fold_in_batches(const std::vector<InstanceInfo>& instances,
                               const Stream& stream, std::size_t batch,
                               const DetectorConfig& config) {
    IncrementalAnalyzer inc(config);
    for (const InstanceInfo& info : instances) inc.declare_instance(info);
    const std::span<const AccessEvent> all(stream);
    for (std::size_t i = 0; i < all.size(); i += batch)
        inc.fold(all.subspan(i, std::min(batch, all.size() - i)));
    EXPECT_EQ(inc.events_folded(), stream.size());
    return inc.finish(instances);
}

/// Fold `stream` as the live drain delivers it: column batches of at most
/// `batch` rows, each cut where the thread changes.
AnalysisResult fold_column_batches(const std::vector<InstanceInfo>& instances,
                                   const Stream& stream, std::size_t batch,
                                   const DetectorConfig& config) {
    IncrementalAnalyzer inc(config);
    for (const InstanceInfo& info : instances) inc.declare_instance(info);
    runtime::EventColumns columns(batch);
    for (std::size_t i = 0; i < stream.size();) {
        std::size_t n = 0;
        for (; i + n < stream.size() && n < batch &&
               stream[i + n].thread == stream[i].thread;
             ++n) {
            const AccessEvent& ev = stream[i + n];
            columns.instances[n] = ev.instance;
            columns.time_ns[n] = ev.time_ns;
            columns.positions[n] = ev.position;
            columns.sizes[n] = ev.size;
            columns.ops[n] = static_cast<std::uint8_t>(ev.op);
        }
        inc.fold(columns.batch(stream[i].thread, stream[i].seq, n));
        i += n;
    }
    EXPECT_EQ(inc.events_folded(), stream.size());
    return inc.finish(instances);
}

/// Pins kernel dispatch to one tier for a scope.
struct ForcedSimdLevel {
    explicit ForcedSimdLevel(core::kernels::SimdLevel level) {
        core::kernels::force_simd_level(level);
    }
    ~ForcedSimdLevel() { core::kernels::reset_forced_simd_level(); }
    ForcedSimdLevel(const ForcedSimdLevel&) = delete;
    ForcedSimdLevel& operator=(const ForcedSimdLevel&) = delete;
};

/// Compare every instance's stats; report the first difference only.
void expect_same_stats(const AnalysisResult& want, const AnalysisResult& got,
                       std::size_t batch) {
    ASSERT_EQ(got.instances().size(), want.instances().size());
    for (std::size_t i = 0; i < want.instances().size(); ++i) {
        if (want.instances()[i].stats == got.instances()[i].stats) continue;
        ADD_FAILURE() << "stats differ: instance index " << i << ", batch "
                      << batch << ", tier "
                      << core::kernels::simd_level_name(
                             core::kernels::active_simd_level());
        return;
    }
}

/// Fold `stream` one event at a time, then in batches of 1, 2, 3, 63, 64,
/// 65, 4,096 and the whole stream, as AccessEvent spans and as column
/// batches: every split must reach the same InstanceStats, field for
/// field.  Batches too small to hold a bulk run fold event by event at any
/// tier; the others run at every SIMD tier.
void expect_batch_splits_agree(const std::vector<InstanceInfo>& instances,
                               const Stream& stream,
                               const DetectorConfig& config = {}) {
    const AnalysisResult want = fold_by_event(instances, stream, config);
    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
        static_assert(IncrementalAnalyzer::kMinBulkRun > 3);
        expect_same_stats(
            want, fold_in_batches(instances, stream, batch, config), batch);
        expect_same_stats(
            want, fold_column_batches(instances, stream, batch, config),
            batch);
    }
    for (const core::kernels::SimdLevel level :
         {core::kernels::SimdLevel::Scalar, core::kernels::SimdLevel::Avx2}) {
        const ForcedSimdLevel forced(level);
        for (const std::size_t batch :
             {std::size_t{63}, std::size_t{64}, std::size_t{65},
              std::size_t{4096}, std::max<std::size_t>(stream.size(), 1)}) {
            expect_same_stats(
                want, fold_in_batches(instances, stream, batch, config),
                batch);
            expect_same_stats(
                want, fold_column_batches(instances, stream, batch, config),
                batch);
        }
    }
}

/// Both delivery orders of a stopped session.
void expect_batch_splits_agree(const ProfilingSession& session,
                               const DetectorConfig& config = {}) {
    const std::vector<InstanceInfo> instances = session.registry().snapshot();
    {
        SCOPED_TRACE("instance order");
        expect_batch_splits_agree(instances, instance_order(session), config);
    }
    {
        SCOPED_TRACE("seq order");
        expect_batch_splits_agree(instances, seq_order(session), config);
    }
}

/// A hand-built stream with explicit thread ids: interleavings that a
/// recording session cannot produce deterministically.
class StreamBuilder {
public:
    InstanceId add(DsKind kind, const char* method) {
        InstanceInfo info;
        info.id = static_cast<InstanceId>(instances_.size());
        info.kind = kind;
        info.type_name = "List<int>";
        info.location = {"Batch.Test", method, 1};
        instances_.push_back(info);
        return info.id;
    }

    void emit(InstanceId id, OpKind op, std::int64_t position,
              std::uint32_t size, runtime::ThreadId thread = 0) {
        AccessEvent ev;
        ev.seq = stream_.size();
        ev.time_ns = 1'000 + 7 * ev.seq;
        ev.position = position;
        ev.instance = id;
        ev.size = size;
        ev.op = op;
        ev.thread = thread;
        stream_.push_back(ev);
    }

    /// `count` back-inserts continuing from `size`.
    void add_n(InstanceId id, std::uint32_t& size, std::uint32_t count,
               runtime::ThreadId thread = 0) {
        for (std::uint32_t k = 0; k < count; ++k, ++size)
            emit(id, OpKind::Add, size, size + 1, thread);
    }

    [[nodiscard]] const std::vector<InstanceInfo>& instances() const {
        return instances_;
    }
    [[nodiscard]] const Stream& stream() const { return stream_; }

    /// Instance-major order of the built stream (each instance's events
    /// keep their order).
    [[nodiscard]] Stream by_instance() const {
        Stream sorted = stream_;
        std::stable_sort(sorted.begin(), sorted.end(),
                         [](const AccessEvent& a, const AccessEvent& b) {
                             return a.instance < b.instance;
                         });
        return sorted;
    }

    /// Both orders through every batch split and tier.
    void expect_splits_agree() const {
        {
            SCOPED_TRACE("built order");
            expect_batch_splits_agree(instances_, stream_);
        }
        {
            SCOPED_TRACE("instance order");
            expect_batch_splits_agree(instances_, by_instance());
        }
    }

private:
    std::vector<InstanceInfo> instances_;
    Stream stream_;
};

class IncrementalBatchApp : public ::testing::TestWithParam<std::string> {};

TEST_P(IncrementalBatchApp, MatchesEventByEvent) {
    const apps::AppInfo* app = apps::find_app(GetParam());
    ASSERT_NE(app, nullptr);
    ProfilingSession session;
    (void)app->run_sequential(&session);
    session.stop();
    expect_batch_splits_agree(session);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, IncrementalBatchApp, ::testing::ValuesIn(app_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        std::string id;
        for (char ch : info.param)
            if (std::isalnum(static_cast<unsigned char>(ch))) id += ch;
        return id;
    });

TEST(IncrementalBatch, CorpusWorkloadsMatchEventByEvent) {
    for (const corpus::ProgramModel& program : corpus::all_programs()) {
        SCOPED_TRACE(program.name);
        if (program.in_eval23) {
            ProfilingSession session;
            corpus::run_eval_workload(program, &session);
            session.stop();
            expect_batch_splits_agree(session);
        }
        if (program.in_study15) {
            ProfilingSession session;
            corpus::run_study15_workload(program, &session);
            session.stop();
            expect_batch_splits_agree(session);
        }
    }
}

TEST(IncrementalBatch, SyntheticStreamsMatchEventByEvent) {
    const std::pair<const char*, void (*)(ProfilingSession&)> drivers[] = {
        {"quickstart", drive_quickstart},
        {"sai closed run", drive_sai_closed_run},
        {"sai open run at sort", drive_sai_open_run_at_sort},
        {"stale insert phase", drive_stale_insert_phase},
        {"write without read tail", drive_write_without_read_tail},
        {"queue two end traffic", drive_queue_two_end_traffic},
        {"stack common end", drive_stack_common_end},
        {"front churn and array resizes",
         drive_front_churn_and_array_resizes},
        {"search and long read", drive_search_and_long_read},
        {"whole container ops", drive_whole_container_ops},
        {"interleaved threads", drive_interleaved_threads},
        {"multithreaded", drive_multithreaded},
    };
    for (const auto& [name, drive] : drivers) {
        SCOPED_TRACE(name);
        ProfilingSession session;
        drive(session);
        session.stop();
        expect_batch_splits_agree(session);
    }

    ProfilingSession configured;
    drive_configured(configured);
    configured.stop();
    for (const DetectorConfig& config : non_default_configs())
        expect_batch_splits_agree(configured, config);
}

TEST(IncrementalBatch, SortInsideAnotherThreadsStreak) {
    // Thread 1's Sort sits inside its own run of Search rows, which the
    // streak loop skips in bulk, while thread 0's insertion run is open.
    // Thread 0 then reads, closing the run just before the Sort: the
    // parked Sort must match it.  The second instance's inserts resume
    // instead, which voids the match.
    StreamBuilder b;
    for (const bool resume_inserts : {false, true}) {
        const InstanceId id = b.add(DsKind::List, "SortInStreak");
        std::uint32_t size = 0;
        b.add_n(id, size, 120);
        b.emit(id, OpKind::IndexOf, 3, size, 1);
        b.emit(id, OpKind::IndexOf, 5, size, 1);
        b.emit(id, OpKind::Sort, kWholeContainer, size, 1);
        b.emit(id, OpKind::IndexOf, 7, size, 1);
        if (resume_inserts) b.add_n(id, size, 40);
        for (std::uint32_t p = 0; p < 40; ++p)
            b.emit(id, OpKind::Get, p, size);
    }
    const AnalysisResult want =
        fold_by_event(b.instances(), b.stream(), DetectorConfig{});
    EXPECT_TRUE(want.instances()[0].stats.sai_match);
    EXPECT_FALSE(want.instances()[1].stats.sai_match);
    b.expect_splits_agree();
}

TEST(IncrementalBatch, OpenSaiRunAtTileBoundary) {
    // Insertion runs that cross the boundary of fold(span)'s column
    // batches (a tile), with the Sort on the last row of a tile, on the
    // first row of the next, and a few rows past it; plus a write tail
    // phase spanning a boundary.
    const std::uint32_t tile = IncrementalAnalyzer::kBatchRows;
    StreamBuilder b;
    for (const std::uint32_t inserts : {tile - 1, tile, tile + 5}) {
        const InstanceId id = b.add(DsKind::List, "SaiAtTile");
        std::uint32_t size = 0;
        b.add_n(id, size, inserts);
        b.emit(id, OpKind::Sort, kWholeContainer, size);
        for (std::uint32_t p = 0; p < 30; ++p)
            b.emit(id, OpKind::Get, p, size);
    }
    const InstanceId tail = b.add(DsKind::List, "TailAtTile");
    std::uint32_t size = 0;
    b.add_n(tail, size, 100);
    for (std::uint32_t k = 0; k < tile + 900; ++k)
        b.emit(tail, OpKind::Set, k % size, size);
    // After a long read prefix the insertion run and its Sort sit past
    // the first tile: their per-instance indices must not restart there.
    const InstanceId late = b.add(DsKind::List, "LateSai");
    size = 0;
    b.add_n(late, size, 50);
    for (std::uint32_t k = 0; k < tile + 100; ++k)
        b.emit(late, OpKind::Get, k % size, size);
    b.add_n(late, size, 120);
    b.emit(late, OpKind::Sort, kWholeContainer, size);

    const AnalysisResult want =
        fold_by_event(b.instances(), b.stream(), DetectorConfig{});
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_TRUE(want.instances()[i].stats.sai_match) << i;
    EXPECT_EQ(want.instances()[3].stats.tail_length, tile + 900);
    EXPECT_TRUE(want.instances()[4].stats.sai_match);
    b.expect_splits_agree();
}

TEST(IncrementalBatch, ForAllInsideStreak) {
    // A ForAll on the streak's own thread and on another thread, with a
    // size-0 ForAll that weighs 1.
    StreamBuilder b;
    const InstanceId id = b.add(DsKind::List, "ForAllInStreak");
    std::uint32_t size = 0;
    b.add_n(id, size, 100);
    for (std::uint32_t p = 0; p < 50; ++p) b.emit(id, OpKind::Get, p, size);
    b.emit(id, OpKind::ForEach, kWholeContainer, size, 1);
    for (std::uint32_t p = 50; p < 100; ++p) b.emit(id, OpKind::Get, p, size);
    for (std::uint32_t p = 0; p < 60; ++p) b.emit(id, OpKind::Get, p, size);
    b.emit(id, OpKind::ForEach, kWholeContainer, size);
    for (std::uint32_t p = 60; p < 100; ++p) b.emit(id, OpKind::Get, p, size);
    b.emit(id, OpKind::Clear, kWholeContainer, 0);
    b.emit(id, OpKind::ForEach, kWholeContainer, 0);
    const AnalysisResult want =
        fold_by_event(b.instances(), b.stream(), DetectorConfig{});
    EXPECT_EQ(want.instances()[0].stats.counts[static_cast<std::size_t>(
                  core::AccessType::ForAll)],
              3u);
    b.expect_splits_agree();
}

TEST(IncrementalBatch, RunsAroundTheShortRunConstant) {
    // Two instances take turns in runs just below, at and just above the
    // shortest run the bulk path takes, so consecutive runs of one
    // instance alternate between the two paths mid-pattern.
    const std::uint32_t k = IncrementalAnalyzer::kMinBulkRun;
    StreamBuilder b;
    const InstanceId reads = b.add(DsKind::List, "Reads");
    const InstanceId inserts = b.add(DsKind::List, "Inserts");
    std::uint32_t size = 0;
    b.add_n(reads, size, 1000);
    std::uint32_t pos = 0;
    std::uint32_t inserted = 0;
    const std::uint32_t lengths[] = {k - 1, k, k + 1, 1, k - 1, k + 1, 2 * k};
    for (int round = 0; round < 6; ++round) {
        for (const std::uint32_t len : lengths) {
            for (std::uint32_t r = 0; r < len; ++r, pos = (pos + 1) % size)
                b.emit(reads, OpKind::Get, pos, size,
                       static_cast<runtime::ThreadId>(round & 1));
            b.add_n(inserts, inserted, len + 1 - (round & 1));
        }
    }
    b.expect_splits_agree();
}

TEST(IncrementalBatch, TelemetryCountsBulkAndSteppedEvents) {
    // One run long enough for the bulk path, then five runs of one event
    // in the same batch, then a single-event fold: the counters split the
    // folded events between the two paths.
    const std::uint32_t k = IncrementalAnalyzer::kMinBulkRun;
    StreamBuilder b;
    const InstanceId a = b.add(DsKind::List, "Long");
    const InstanceId c = b.add(DsKind::List, "Short");
    std::uint32_t size_a = 0;
    std::uint32_t size_c = 0;
    b.add_n(a, size_a, k);
    for (int i = 0; i < 3; ++i) {
        b.add_n(c, size_c, 1);
        b.add_n(a, size_a, 1);
    }

    auto& reg = obs::MetricsRegistry::global();
    reg.reset();
    reg.set_enabled(true);
    IncrementalAnalyzer inc;
    for (const InstanceInfo& info : b.instances()) inc.declare_instance(info);
    const std::span<const AccessEvent> all(b.stream());
    inc.fold(all.first(all.size() - 1));
    inc.fold(all.back());
    const std::vector<obs::MetricValue> metrics = reg.collect();
    reg.set_enabled(false);
    reg.reset();

    const auto value = [&metrics](std::string_view name) {
        for (const obs::MetricValue& m : metrics)
            if (m.name == name) return m.value;
        return std::uint64_t{0};
    };
    EXPECT_EQ(value("incremental.bulk_events"), k);
    EXPECT_EQ(value("incremental.stepped_events"), 6u);
    EXPECT_EQ(value("incremental.events_folded"), k + 6);
}

// --- streaming trace readers (satellite regression tests) --------------------

struct RecordingSink final : runtime::TraceSink {
    std::vector<InstanceInfo> instances;
    std::map<InstanceId, std::vector<AccessEvent>> events;
    void on_instance(const InstanceInfo& info) override {
        instances.push_back(info);
    }
    void on_events(std::span<const AccessEvent> batch) override {
        for (const AccessEvent& ev : batch) events[ev.instance].push_back(ev);
    }
};

/// A session whose instance metadata is hostile to CSV: commas, escaped
/// quotes, and embedded newlines, with names long enough that any refill
/// boundary lands inside quoted fields.
void drive_hostile_names(ProfilingSession& session) {
    std::string gnarly = "Ty,pe\"quoted\"\nline2<";
    for (int i = 0; i < 12; ++i) gnarly += "pad,\"x\"\nmore";
    gnarly += ">";
    const InstanceId a = session.register_instance(
        DsKind::List, gnarly, {"Cl,ass\"A\"", "Meth\nod,One", 7});
    const InstanceId b = session.register_instance(
        DsKind::Array, "Plain<int>", {"Plain.Class", "Run", 2});
    for (int i = 0; i < 120; ++i) {
        session.record(a, OpKind::Add, i, static_cast<std::uint32_t>(i + 1));
        session.record(b, OpKind::Set, i % 8, 8);
    }
    for (int i = 0; i < 40; ++i) session.record(a, OpKind::Get, i, 120);
}

void expect_stream_matches_slurp(const std::string& bytes,
                                 std::size_t buffer_bytes) {
    SCOPED_TRACE("buffer_bytes=" + std::to_string(buffer_bytes));
    const runtime::ColumnTrace trace = runtime::read_trace_columns(bytes);

    RecordingSink sink;
    std::istringstream stream_in(bytes);
    const std::size_t delivered =
        runtime::read_trace_stream(stream_in, sink, buffer_bytes);

    EXPECT_EQ(delivered, trace.columns.total_events());
    ASSERT_EQ(sink.instances.size(), trace.instances.size());
    for (std::size_t i = 0; i < sink.instances.size(); ++i)
        EXPECT_TRUE(sink.instances[i] == trace.instances[i]);
    for (const InstanceInfo& info : trace.instances) {
        const std::vector<AccessEvent> expected =
            oracle::events_of(trace, info.id);
        const std::vector<AccessEvent>& got = sink.events[info.id];
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_TRUE(got[i] == expected[i]);
    }
}

TEST(StreamingTraceReader, CsvQuoteStateSurvivesEveryBufferBoundary) {
    ProfilingSession session;
    drive_hostile_names(session);
    session.stop();
    std::ostringstream os;
    (void)runtime::write_trace(os, session, runtime::TraceFormat::Csv);
    const std::string bytes = os.str();
    // 64 is the reader's floor; odd sizes walk refill boundaries through
    // quoted fields, escaped quotes, and embedded newlines.
    for (std::size_t buffer : {std::size_t{1}, std::size_t{64},
                               std::size_t{65}, std::size_t{97},
                               std::size_t{1} << 20})
        expect_stream_matches_slurp(bytes, buffer);
}

TEST(StreamingTraceReader, Dst1PrefixCarryMatchesSlurp) {
    ProfilingSession session;
    drive_hostile_names(session);
    session.stop();
    std::ostringstream os;
    (void)runtime::write_trace(os, session, runtime::TraceFormat::Binary);
    const std::string bytes = os.str();
    for (std::size_t buffer : {std::size_t{64}, std::size_t{1} << 20})
        expect_stream_matches_slurp(bytes, buffer);
}

TEST(StreamingTraceReader, StreamedAnalyzeMatchesPostmortemBothFormats) {
    // The `dsspy analyze` default path: stream the trace into an
    // IncrementalAnalyzer and compare with load + post-mortem analysis.
    ProfilingSession session;
    drive_quickstart(session);
    session.stop();
    for (const runtime::TraceFormat format :
         {runtime::TraceFormat::Csv, runtime::TraceFormat::Binary}) {
        SCOPED_TRACE(format == runtime::TraceFormat::Csv ? "csv" : "binary");
        std::ostringstream os;
        (void)runtime::write_trace(os, session, format);
        const std::string bytes = os.str();

        const runtime::ColumnTrace trace = runtime::read_trace_columns(bytes);
        const AnalysisResult pm =
            Dsspy{}.analyze(trace.instances, trace.columns);

        IncrementalAnalyzer inc;
        struct AnalyzerSink final : runtime::TraceSink {
            IncrementalAnalyzer& inc;
            std::vector<InstanceInfo> instances;
            explicit AnalyzerSink(IncrementalAnalyzer& a) : inc(a) {}
            void on_instance(const InstanceInfo& info) override {
                instances.push_back(info);
                inc.declare_instance(info);
            }
            void on_events(std::span<const AccessEvent> batch) override {
                inc.fold(batch);
            }
        } sink{inc};
        std::istringstream stream_in(bytes);
        (void)runtime::read_trace_stream(stream_in, sink, 128);
        expect_results_equal(pm, inc.finish(sink.instances));
    }
}

void expect_both_readers_throw_same(const std::string& bytes) {
    std::string slurp_error;
    try {
        (void)runtime::read_trace_columns(bytes);
        FAIL() << "read_trace_columns accepted malformed input";
    } catch (const std::runtime_error& err) {
        slurp_error = err.what();
    }
    try {
        RecordingSink sink;
        std::istringstream in(bytes);
        (void)runtime::read_trace_stream(in, sink, 64);
        FAIL() << "read_trace_stream accepted malformed input";
    } catch (const std::runtime_error& err) {
        EXPECT_EQ(slurp_error, err.what());
    }
}

TEST(StreamingTraceReader, MalformedInputParityWithSlurpReader) {
    // Unterminated quote.
    expect_both_readers_throw_same("I,0,List,\"unterminated,oops\n");
    // Unknown record tag.
    expect_both_readers_throw_same("X,1,2,3\n");
    // Wrong field count on an event record.
    expect_both_readers_throw_same("E,1,2\n");
    // Non-numeric field.
    expect_both_readers_throw_same(
        "I,0,List,T,C,M,1,0\nE,abc,0,0,Get,0,1,0\n");

    // Truncated DST1 payload.
    ProfilingSession session;
    const InstanceId id = reg(session, DsKind::List, "Truncated");
    for (int i = 0; i < 500; ++i)
        session.record(id, OpKind::Add, i, static_cast<std::uint32_t>(i + 1));
    session.stop();
    std::ostringstream os;
    (void)runtime::write_trace(os, session, runtime::TraceFormat::Binary);
    const std::string bytes = os.str();
    expect_both_readers_throw_same(bytes.substr(0, bytes.size() - 7));
}

}  // namespace
}  // namespace dsspy
