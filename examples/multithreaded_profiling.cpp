// Multithreaded profiling: DSspy on an already-parallel program.
//
// "We want to be able to support single- and multithreaded code so we are
// aware of access events that occur in parallel" (Section IV).  This
// example profiles a two-stage pipeline:
//   * a producer thread appends work items to a shared list (guarded by a
//     mutex — the list itself is externally synchronized),
//   * two consumer threads repeatedly scan the list for the best item.
// The per-thread pattern detector separates the interleaved event stream
// into clean per-thread patterns, and the recommendations carry the
// "already accessed by N threads" synchronization note.
#include <iostream>
#include <mutex>
#include <thread>

#include "core/dsspy.hpp"
#include "core/report.hpp"
#include "core/transform_plan.hpp"
#include "ds/ds.hpp"
#include "support/rng.hpp"

int main() {
    using namespace dsspy;

    runtime::ProfilingSession session;
    {
        ds::ProfiledList<std::int64_t> work(&session,
                                            {"Pipeline.Shared", "WorkList", 5});
        std::mutex work_mutex;

        std::jthread producer([&work, &work_mutex] {
            support::Rng rng(1);
            for (int batch = 0; batch < 10; ++batch) {
                std::scoped_lock lock(work_mutex);
                for (int i = 0; i < 300; ++i)
                    work.add(static_cast<std::int64_t>(rng.next_below(1000)));
            }
        });

        auto consumer = [&work, &work_mutex](int sweeps) {
            for (int sweep = 0; sweep < sweeps; ++sweep) {
                std::scoped_lock lock(work_mutex);
                if (work.count() < 10) continue;
                std::int64_t best = work.get(0);
                for (std::size_t i = 1; i < work.count(); ++i)
                    best = std::max(best, work.get(i));
                (void)best;
            }
        };
        std::jthread consumer1(consumer, 9);
        std::jthread consumer2(consumer, 9);
    }
    session.stop();

    const core::AnalysisResult analysis = core::Dsspy{}.analyze(session);
    const core::InstanceAnalysis& ia = analysis.instances().front();

    std::cout << "Recorded " << ia.stats.total << " events from "
              << ia.stats.thread_count << " threads.\n\n";

    // Per-thread pattern separation.
    std::array<std::size_t, 8> per_thread{};
    for (const core::Pattern& p : ia.patterns)
        if (p.thread < per_thread.size()) ++per_thread[p.thread];
    for (std::size_t t = 0; t < per_thread.size(); ++t) {
        if (per_thread[t] != 0)
            std::cout << "Thread " << t << ": " << per_thread[t]
                      << " patterns\n";
    }
    std::cout << '\n';

    core::print_use_case_report(std::cout, analysis);

    const core::TransformPlan plan =
        core::plan_transformations(analysis, /*parallel_only=*/true);
    core::print_transform_plan(std::cout, plan);
    return 0;
}
