// Incremental vs post-mortem analysis: peak memory and throughput.
//
// DESIGN.md §8's central claim is that the incremental analyzer bounds
// memory by the live-instance state instead of the event count.  This
// bench runs the same deterministic ≥10M-event workload in two isolated
// child processes (fork + exec of /proc/self/exe, so each child's RSS is
// clean) and records each child's peak RSS via wait4()'s rusage:
//
//   * postmortem_buffered — store everything, analyze at the end.
//   * incremental_live_sink — AnalysisMode::Incremental with an attached
//     IncrementalAnalyzer that the collector feeds live; the store stays
//     empty and every drained chunk is freed.
//
// Every child prints a digest of its full rendered report (use-case
// report, summaries, CSVs); the parent asserts both digests are
// identical — the memory saving is only interesting if the verdicts are
// bit-identical — and writes BENCH_incremental.json with peak-RSS and
// events/sec per mode plus the postmortem/incremental RSS ratio.
//
// Usage: incremental_bench [output.json] [events]
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dsspy.hpp"
#include "core/export.hpp"
#include "core/incremental.hpp"
#include "core/report.hpp"
#include "runtime/session.hpp"

namespace {

using namespace dsspy;
using Clock = std::chrono::steady_clock;

// --- deterministic ≥10M-event workload --------------------------------------

/// Eight instances cycling through insert/sort, scan/search, queue, and
/// write-tail phases so several use-case rules fire on real pattern state.
void drive_workload(runtime::ProfilingSession& session,
                    std::uint64_t target_events) {
    constexpr std::size_t kInstances = 8;
    std::vector<runtime::InstanceId> ids;
    std::vector<std::uint32_t> sizes(kInstances, 0);
    for (std::size_t i = 0; i < kInstances; ++i)
        ids.push_back(session.register_instance(
            i % 4 == 3 ? runtime::DsKind::Array : runtime::DsKind::List,
            "List<Int64>",
            {"Bench.Incremental", "Drive", static_cast<std::uint32_t>(i)}));

    std::uint64_t emitted = 0;
    std::uint64_t round = 0;
    while (emitted < target_events) {
        for (std::size_t i = 0; i < kInstances && emitted < target_events;
             ++i) {
            const runtime::InstanceId id = ids[i];
            std::uint32_t& size = sizes[i];
            switch ((round + i) % 4) {
                case 0:  // Long insertion phase, then a sort (LI + SAI).
                    for (int k = 0; k < 1500; ++k) {
                        session.record(id, runtime::OpKind::Add, size,
                                       size + 1);
                        ++size;
                    }
                    session.record(id, runtime::OpKind::Sort,
                                   runtime::kWholeContainer, size);
                    emitted += 1501;
                    break;
                case 1: {  // Full read sweeps plus searches (FLR + FS).
                    const std::uint32_t n = size == 0 ? 1 : size;
                    for (int sweep = 0; sweep < 2; ++sweep)
                        for (std::uint32_t p = 0; p < n && p < 600; ++p)
                            session.record(id, runtime::OpKind::Get, p, size);
                    for (int k = 0; k < 300; ++k)
                        session.record(id, runtime::OpKind::IndexOf,
                                       k % static_cast<int>(n), size);
                    emitted += 2 * std::min<std::uint32_t>(n, 600) + 300;
                    break;
                }
                case 2:  // Two-end traffic (IQ).
                    for (int k = 0; k < 400 && size > 0; ++k) {
                        session.record(id, runtime::OpKind::Add, size,
                                       size + 1);
                        ++size;
                        session.record(id, runtime::OpKind::Get, 0, size);
                        session.record(id, runtime::OpKind::Get, size - 1,
                                       size);
                        --size;
                        session.record(id, runtime::OpKind::RemoveAt, 0,
                                       size);
                        emitted += 4;
                    }
                    break;
                default:  // Covering write tail (WWR-shaped), then reset.
                    for (std::uint32_t p = 0; p < size && p < 800; ++p)
                        session.record(id, runtime::OpKind::Set, p, size);
                    emitted += std::min<std::uint32_t>(size, 800);
                    if (size > 60000) {
                        session.record(id, runtime::OpKind::Clear,
                                       runtime::kWholeContainer, 0);
                        size = 0;
                        ++emitted;
                    }
                    break;
            }
        }
        ++round;
    }
}

// --- report digest -----------------------------------------------------------

std::uint64_t digest(const core::AnalysisResult& report) {
    std::ostringstream os;
    core::print_use_case_report(os, report);
    core::print_instance_summary(os, report);
    core::write_use_cases_csv(os, report);
    core::write_instances_csv(os, report);
    const std::string text = os.str();
    std::uint64_t hash = 1469598103934665603ull;  // FNV-1a 64.
    for (const char ch : text) {
        hash ^= static_cast<unsigned char>(ch);
        hash *= 1099511628211ull;
    }
    return hash;
}

// --- child: run one mode, print one RESULT line ------------------------------

int run_child(const std::string& mode, std::uint64_t events) {
    const auto t0 = Clock::now();
    std::uint64_t report_digest = 0;
    std::size_t flagged = 0;
    std::uint64_t recorded = 0;

    if (mode == "incremental_live_sink") {
        runtime::ProfilingSession session(runtime::CaptureMode::Buffered,
                                          64 * 1024,
                                          runtime::AnalysisMode::Incremental);
        core::IncrementalAnalyzer analyzer;
        core::attach_incremental(session, analyzer);
        drive_workload(session, events);
        session.stop();
        if (session.store().total_events() != 0) {
            std::fprintf(stderr, "incremental store not empty\n");
            return 1;
        }
        const core::AnalysisResult report =
            core::Dsspy::finish(analyzer, session);
        report_digest = digest(report);
        flagged = report.flagged_instances();
        recorded = session.events_recorded();
    } else {
        runtime::ProfilingSession session;
        drive_workload(session, events);
        session.stop();
        const core::AnalysisResult result = core::Dsspy{}.analyze(session);
        report_digest = digest(result);
        flagged = result.flagged_instances();
        recorded = session.events_recorded();
    }

    const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - t0)
                             .count();
    std::printf("RESULT mode=%s events=%llu elapsed_ns=%lld flagged=%zu "
                "digest=%016llx\n",
                mode.c_str(), static_cast<unsigned long long>(recorded),
                static_cast<long long>(elapsed), flagged,
                static_cast<unsigned long long>(report_digest));
    return 0;
}

// --- parent: fork/exec each mode, gather rusage ------------------------------

struct ModeResult {
    std::string mode;
    std::uint64_t events = 0;
    std::uint64_t elapsed_ns = 0;
    std::size_t flagged = 0;
    std::string digest;
    long peak_rss_kb = 0;

    [[nodiscard]] double events_per_sec() const {
        return elapsed_ns == 0 ? 0.0
                               : static_cast<double>(events) * 1e9 /
                                     static_cast<double>(elapsed_ns);
    }
};

bool run_mode(const std::string& mode, std::uint64_t events,
              ModeResult& out) {
    int fds[2];
    if (pipe(fds) != 0) return false;
    const pid_t pid = fork();
    if (pid < 0) return false;
    if (pid == 0) {
        dup2(fds[1], STDOUT_FILENO);
        close(fds[0]);
        close(fds[1]);
        const std::string count = std::to_string(events);
        execl("/proc/self/exe", "incremental_bench", "--child", mode.c_str(),
              count.c_str(), static_cast<char*>(nullptr));
        std::perror("execl");
        _exit(127);
    }
    close(fds[1]);
    std::string output;
    char buf[4096];
    ssize_t got = 0;
    while ((got = read(fds[0], buf, sizeof(buf))) > 0)
        output.append(buf, static_cast<std::size_t>(got));
    close(fds[0]);

    int status = 0;
    rusage usage{};
    if (wait4(pid, &status, 0, &usage) != pid) return false;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "child %s failed: %s\n", mode.c_str(),
                     output.c_str());
        return false;
    }

    unsigned long long ev = 0, ns = 0;
    char digest_hex[32] = {0};
    std::size_t flagged = 0;
    const char* line = std::strstr(output.c_str(), "RESULT ");
    if (line == nullptr ||
        std::sscanf(line,
                    "RESULT mode=%*s events=%llu elapsed_ns=%llu "
                    "flagged=%zu digest=%31s",
                    &ev, &ns, &flagged, digest_hex) != 4) {
        std::fprintf(stderr, "unparseable child output: %s\n",
                     output.c_str());
        return false;
    }
    out.mode = mode;
    out.events = ev;
    out.elapsed_ns = ns;
    out.flagged = flagged;
    out.digest = digest_hex;
    out.peak_rss_kb = usage.ru_maxrss;  // Linux: kilobytes.
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc >= 4 && std::strcmp(argv[1], "--child") == 0)
        return run_child(argv[2],
                         std::strtoull(argv[3], nullptr, 10));

    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_incremental.json";
    const std::uint64_t events =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 10'000'000ull;

    const std::vector<std::string> modes = {"postmortem_buffered",
                                            "incremental_live_sink"};
    std::vector<ModeResult> results;
    for (const std::string& mode : modes) {
        ModeResult r;
        std::fprintf(stderr, "running %s (%llu events)...\n", mode.c_str(),
                     static_cast<unsigned long long>(events));
        if (!run_mode(mode, events, r)) return 1;
        std::fprintf(stderr,
                     "  peak_rss=%ld KB  events/sec=%.3g  flagged=%zu  "
                     "digest=%s\n",
                     r.peak_rss_kb, r.events_per_sec(), r.flagged,
                     r.digest.c_str());
        results.push_back(r);
    }

    bool identical = true;
    for (const ModeResult& r : results)
        identical = identical && r.digest == results.front().digest &&
                    r.events == results.front().events &&
                    r.flagged == results.front().flagged;
    if (!identical) {
        std::fprintf(stderr, "FAIL: verdict digests differ across modes\n");
        return 1;
    }

    const long postmortem_rss = results.front().peak_rss_kb;
    const long incremental_rss = results.back().peak_rss_kb;
    const double reduction =
        incremental_rss == 0 ? 0.0
                             : static_cast<double>(postmortem_rss) /
                                   static_cast<double>(incremental_rss);

    std::FILE* out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
        std::perror("fopen");
        return 1;
    }
    std::fprintf(out, "{\n  \"benchmark\": \"incremental_vs_postmortem\",\n");
    std::fprintf(out, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(out, "  \"events\": %llu,\n",
                 static_cast<unsigned long long>(results.front().events));
    std::fprintf(out, "  \"verdicts_identical\": true,\n");
    std::fprintf(out, "  \"verdict_digest\": \"%s\",\n",
                 results.front().digest.c_str());
    std::fprintf(out, "  \"flagged_instances\": %zu,\n",
                 results.front().flagged);
    std::fprintf(out, "  \"peak_rss_reduction\": %.2f,\n", reduction);
    std::fprintf(out, "  \"modes\": {\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ModeResult& r = results[i];
        std::fprintf(out,
                     "    \"%s\": {\"peak_rss_kb\": %ld, "
                     "\"elapsed_ns\": %llu, \"events_per_sec\": %.1f}%s\n",
                     r.mode.c_str(), r.peak_rss_kb,
                     static_cast<unsigned long long>(r.elapsed_ns),
                     r.events_per_sec(), i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  }\n}\n");
    std::fclose(out);

    std::fprintf(stderr, "peak-RSS reduction: %.2fx -> %s\n", reduction,
                 out_path.c_str());
    if (reduction < 5.0) {
        std::fprintf(stderr,
                     "FAIL: expected >=5x peak-RSS reduction, got %.2fx\n",
                     reduction);
        return 1;
    }
    return 0;
}
