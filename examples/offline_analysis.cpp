// Offline analysis: capture on one side, analyze on the other.
//
// The paper's pipeline separates data collection from post-mortem analysis.
// This example shows the decoupled workflow an external instrumentation
// layer (e.g. a Pin tool or a patched allocator) would use:
//   1. a "recording process" runs instrumented and serializes the trace,
//   2. an "analysis process" loads the trace file — no access to the
//      original program — and produces the full report, and
//   3. a hand-written trace (as a foreign tool would emit) is analyzed
//      the same way, and
//   4. the same session is persisted as compact DST1 binary and read back
//      through the same loader, which detects the format on its own and
//      throws on missing files — a lost trace is an error, not an empty
//      profile.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "core/dsspy.hpp"
#include "core/report.hpp"
#include "ds/ds.hpp"
#include "runtime/trace_io.hpp"
#include "runtime/trace_mmap.hpp"

namespace {

std::string record_phase() {
    using namespace dsspy;
    runtime::ProfilingSession session;
    {
        ds::ProfiledList<double> samples(&session,
                                         {"Sensor.Pipeline", "Collect", 21});
        for (int burst = 0; burst < 14; ++burst) {
            for (int i = 0; i < 180; ++i)
                samples.add(static_cast<double>(burst * 180 + i) * 0.25);
            double mean = 0.0;
            for (std::size_t i = 0; i < samples.count(); ++i)
                mean += samples.get(i);
            double peak = 0.0;
            for (std::size_t i = 0; i < samples.count(); ++i)
                peak = std::max(peak, samples.get(i));
            (void)mean;
            (void)peak;
            samples.clear();
        }
    }
    session.stop();

    std::ostringstream trace;
    const std::size_t events = runtime::write_trace(trace, session);
    std::cout << "[recorder] captured " << events
              << " events, trace is " << trace.str().size() << " bytes\n";
    return trace.str();
}

void analyze_phase(const std::string& trace_text) {
    using namespace dsspy;
    const runtime::ColumnTrace trace = runtime::read_trace_columns(trace_text);
    std::cout << "[analyzer] loaded " << trace.instances.size()
              << " instances, " << trace.columns.total_events()
              << " events\n\n";
    const core::AnalysisResult analysis =
        core::Dsspy{}.analyze(trace.instances, trace.columns);
    core::print_use_case_report(std::cout, analysis);
}

/// A trace a foreign tool might emit by hand: one list, filled and
/// re-read — enough for DSspy to classify without ever seeing the program.
std::string foreign_trace() {
    std::ostringstream out;
    out << "I,0,0,List<Int32>,Foreign.Tool,HotLoop,99,1\n";
    std::uint64_t seq = 0;
    // 12 rounds: 150 appends (op 2 = Add) + two full forward read sweeps
    // (op 0 = Get).
    for (int round = 0; round < 12; ++round) {
        for (int i = 0; i < 150; ++i) {
            out << "E," << seq << ',' << seq * 10 << ",0,2," << i << ','
                << (i + 1) << ",0\n";
            ++seq;
        }
        for (int sweep = 0; sweep < 2; ++sweep) {
            for (int i = 0; i < 150; ++i) {
                out << "E," << seq << ',' << seq * 10 << ",0,0," << i
                    << ",150,0\n";
                ++seq;
            }
        }
        // op 5 = Clear.
        out << "E," << seq << ',' << seq * 10 << ",0,5,-1,0,0\n";
        ++seq;
    }
    return out.str();
}

/// Persist the CSV trace as DST1 binary, reload it through the
/// format-auto-detecting file loader, and show the size difference.
void binary_round_trip(const std::string& trace_text) {
    using namespace dsspy;
    const runtime::ColumnTrace trace = runtime::read_trace_columns(trace_text);

    const std::string path = "offline_analysis_trace.dst";
    if (!runtime::write_trace_file(path, trace,
                                   runtime::TraceFormat::Binary)) {
        std::cerr << "[binary] failed to write " << path << '\n';
        return;
    }
    const runtime::ColumnTrace reloaded =
        runtime::read_trace_columns_file(path);
    std::cout << "[binary] " << trace_text.size() << " bytes of CSV became "
              << "a DST1 file holding " << reloaded.columns.total_events()
              << " events\n";
    std::remove(path.c_str());

    // A missing trace file throws — callers cannot confuse "file gone"
    // with "program recorded nothing".
    try {
        (void)runtime::read_trace_columns_file(path);
    } catch (const std::runtime_error& e) {
        std::cout << "[binary] re-reading the deleted file throws: "
                  << e.what() << '\n';
    }
}

}  // namespace

int main() {
    std::cout << "=== Decoupled capture/analysis ===\n";
    const std::string trace_text = record_phase();
    analyze_phase(trace_text);

    std::cout << "\n=== Foreign (hand-written) trace ===\n";
    analyze_phase(foreign_trace());

    std::cout << "\n=== Binary (DST1) persistence ===\n";
    binary_round_trip(trace_text);
    return 0;
}
