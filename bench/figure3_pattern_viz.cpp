// Figure 3 — visualization of the index-sequential insert/read profile:
// "The blue line represents an insertion operation that repeatedly adds
// elements.  The read operations ... always occur in ascending order from
// front to end. ... Every time the read index reaches the last element the
// list instance is cleared."
//
// Reproduces that workload, prints the ASCII chart, writes
// figure3_profile.svg, and shows the Insert-Back / Read-Forward patterns
// plus the two use cases (Long-Insert, Frequent-Long-Read) the paper
// derives from it.
#include <iostream>

#include "core/dsspy.hpp"
#include "core/report.hpp"
#include "ds/ds.hpp"
#include "viz/ascii_chart.hpp"
#include "viz/svg.hpp"

int main() {
    using namespace dsspy;

    runtime::ProfilingSession session;
    runtime::InstanceId id;
    {
        ds::ProfiledList<int> list(&session,
                                   {"Paper.Example", "Figure3", 1});
        for (int round = 0; round < 15; ++round) {
            for (int i = 0; i < 120; ++i) list.add(i);
            long sum = 0;
            for (std::size_t i = 0; i < list.count(); ++i)
                sum += list.get(i);
            for (std::size_t i = 0; i < list.count(); ++i)
                sum += list.get(i);
            (void)sum;
            list.clear();
        }
        id = list.instance_id();
    }
    session.stop();

    const runtime::InstanceInfo info = session.registry().info(id);
    const runtime::ColumnStore& columns = session.store().columns();

    std::cout << "Figure 3 - Index-sequential inserts and reads\n\n";
    viz::ChartOptions options;
    options.max_width = 110;
    options.max_height = 14;
    std::cout << viz::render_profile_scatter(columns, info, options);

    const std::string svg = viz::profile_to_svg(columns, info);
    if (viz::write_file("figure3_profile.svg", svg))
        std::cout << "\nWrote figure3_profile.svg\n";

    const core::AnalysisResult analysis = core::Dsspy{}.analyze(session);
    const auto& counts = analysis.instances().at(id).stats.pattern_counts;
    const auto count = [&counts](core::PatternKind kind) {
        return counts[static_cast<std::size_t>(kind)];
    };
    std::cout << "\nPatterns: " << count(core::PatternKind::InsertBack)
              << "x Insert-Back, " << count(core::PatternKind::ReadForward)
              << "x Read-Forward (paper: \"several hundreds times\" over "
                 "the full run)\n\n";

    std::cout << "Derived use cases (paper: Long-Insert and "
                 "Frequent-Long-Read):\n\n";
    core::print_use_case_report(std::cout, analysis);
    return 0;
}
