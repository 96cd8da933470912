// Quickstart: profile a list, analyze it, read DSspy's advice.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// This walks the full DSspy pipeline from Figure 4 of the paper:
//   instrumentation -> execution -> profiles -> patterns -> use cases ->
//   recommended actions, plus the profile visualization of Figure 2.
#include <iostream>

#include "core/dsspy.hpp"
#include "core/report.hpp"
#include "ds/ds.hpp"
#include "support/table.hpp"
#include "viz/ascii_chart.hpp"

int main() {
    using namespace dsspy;

    // 1. Open a profiling session.  Everything constructed with a session
    //    pointer is instrumented; pass nullptr and the same code runs
    //    uninstrumented.
    runtime::ProfilingSession session;

    {
        // 2. Use a profiled container exactly like a normal one.  This
        //    reproduces the paper's running example: a list used as a
        //    work buffer that is filled, fully scanned, and cleared over
        //    and over (Figure 3).
        ds::ProfiledList<int> tasks(&session,
                                    {"Quickstart.Worker", "ProcessBatch", 7});
        for (int round = 0; round < 15; ++round) {
            for (int i = 0; i < 200; ++i) tasks.add(round * 1000 + i);
            long best = 0;
            for (std::size_t i = 0; i < tasks.count(); ++i)
                best = std::max<long>(best, tasks.get(i));
            for (std::size_t i = 0; i < tasks.count(); ++i)
                (void)tasks.get(i);  // a second "search" sweep
            tasks.clear();
            (void)best;
        }
    }

    // 3. Stop capturing and run the post-mortem analysis.
    session.stop();
    const core::AnalysisResult analysis = core::Dsspy{}.analyze(session);

    // 4. Visualize the runtime profile (Figure 2 style) ...
    for (const core::InstanceAnalysis& ia : analysis.instances()) {
        viz::ChartOptions options;
        options.max_width = 96;
        options.max_height = 12;
        viz::print_profile(std::cout, *analysis.columns(), ia.stats.info,
                           options);
        std::cout << '\n';
    }

    // 5. ... and read the advice (Table V style).
    core::print_use_case_report(std::cout, analysis);

    std::cout << "Instances analyzed:     "
              << analysis.list_array_instances() << '\n'
              << "Instances flagged:      " << analysis.flagged_instances()
              << '\n'
              << "Search space reduction: "
              << support::Table::pct(analysis.search_space_reduction())
              << '\n';
    return 0;
}
