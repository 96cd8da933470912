// Capture-path overhead benchmark.
//
// Times the record() hot path post-mortem and with a live sink draining
// the chains, single- and multi-threaded, against the uninstrumented
// baseline, and writes the
// results as machine-readable JSON (default: BENCH_capture.json) so the
// perf trajectory of the capture path is tracked across PRs.  The paper
// reports an average 47x capture slowdown (Table IV); this file is the
// regression guard for our low-overhead reimplementation.
//
// It also measures the self-telemetry layer's own cost: the same record()
// loop with the metrics registry disabled vs enabled, written as
// BENCH_obs.json — the acceptance bound is that enabling telemetry stays
// within single-digit percent of the uninstrumented capture path.
//
// A third pass measures the span-tracing recorder the same way: record()
// with TraceRecorder off vs on, written as BENCH_trace_obs.json — the
// acceptance bound is <=2% on the hot path (spans only ride cold
// branches, so the delta should be indistinguishable from noise).
//
// The two on/off deltas report the median and quartiles of per-pair
// deltas over `rounds` pairs of ~20 ms rounds (96 sessions of 65,536
// records each per round), not a best-of: a single 0.2 ms round spreads
// by tens of percent on a shared host.
//
// Usage: capture_overhead [output.json] [rounds] [obs_output.json]
//                         [trace_output.json]
// (`rounds`: best-of rounds per capture-table entry, and on/off pairs per
// delta.)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ds/profiled_list.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/session.hpp"

namespace {

using namespace dsspy;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kOpsPerRound = 1u << 16;

double ns_per_op(Clock::time_point t0, Clock::time_point t1,
                 std::size_t ops) {
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                   .count()) /
           static_cast<double>(ops);
}

/// Run `body(ops)` `rounds` times; return the fastest ns/op observed (the
/// minimum is the most noise-robust statistic on a shared machine).
template <typename Body>
double best_ns_per_op(int rounds, Body body) {
    double best = 1e100;
    for (int r = 0; r < rounds; ++r) {
        const auto t0 = Clock::now();
        body(kOpsPerRound);
        const auto t1 = Clock::now();
        best = std::min(best, ns_per_op(t0, t1, kOpsPerRound));
    }
    return best;
}

double bench_plain_list(int rounds) {
    return best_ns_per_op(rounds, [](std::size_t ops) {
        ds::List<std::int64_t> list;
        for (std::size_t i = 0; i < ops; ++i)
            list.add(static_cast<std::int64_t>(i));
    });
}

double bench_null_session(int rounds) {
    return best_ns_per_op(rounds, [](std::size_t ops) {
        ds::ProfiledList<std::int64_t> list(nullptr, {"Bench", "Null", 1});
        for (std::size_t i = 0; i < ops; ++i)
            list.add(static_cast<std::int64_t>(i));
    });
}

/// The two sessions the benchmark compares: post-mortem capture, and the
/// live drain into a sink that only counts (AnalysisMode::Incremental, the
/// `dsspy watch` path minus the analyzer).
struct BenchSession {
    std::atomic<std::size_t> delivered{0};
    runtime::ProfilingSession session;

    explicit BenchSession(bool live_sink)
        : session(runtime::CaptureMode::Buffered, 64 * 1024,
                  live_sink ? runtime::AnalysisMode::Incremental
                            : runtime::AnalysisMode::Postmortem) {
        if (live_sink)
            session.set_event_sink(
                [this](std::span<const runtime::AccessEvent> events) {
                    delivered.fetch_add(events.size(),
                                        std::memory_order_relaxed);
                });
    }
};

/// Times only the record() loop; session setup and stop()/finalize stay
/// outside the timed window (they are not the per-event hot path).
double bench_record(bool live_sink, int rounds) {
    double best = 1e100;
    for (int r = 0; r < rounds; ++r) {
        BenchSession bench(live_sink);
        runtime::ProfilingSession& session = bench.session;
        const runtime::InstanceId id = session.register_instance(
            runtime::DsKind::List, "List<Int64>", {"Bench", "Record", 1});
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < kOpsPerRound; ++i)
            session.record(id, runtime::OpKind::Add,
                           static_cast<std::int64_t>(i),
                           static_cast<std::uint32_t>(i + 1));
        const auto t1 = Clock::now();
        session.stop();
        best = std::min(best, ns_per_op(t0, t1, kOpsPerRound));
    }
    return best;
}

double bench_profiled_list(bool live_sink, int rounds) {
    double best = 1e100;
    for (int r = 0; r < rounds; ++r) {
        BenchSession bench(live_sink);
        runtime::ProfilingSession& session = bench.session;
        ds::ProfiledList<std::int64_t> list(&session, {"Bench", "List", 1});
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < kOpsPerRound; ++i)
            list.add(static_cast<std::int64_t>(i));
        const auto t1 = Clock::now();
        session.stop();
        best = std::min(best, ns_per_op(t0, t1, kOpsPerRound));
    }
    return best;
}

/// Multi-producer record(): `threads` producers hammer one session; the
/// reported figure is wall-time per event across all producers.
double bench_record_mt(bool live_sink, unsigned threads, int rounds) {
    double best = 1e100;
    for (int r = 0; r < rounds; ++r) {
        BenchSession bench(live_sink);
        runtime::ProfilingSession& session = bench.session;
        std::vector<runtime::InstanceId> ids;
        for (unsigned t = 0; t < threads; ++t)
            ids.push_back(session.register_instance(
                runtime::DsKind::List, "List<Int64>", {"Bench", "MT", t}));
        const auto t0 = Clock::now();
        {
            std::vector<std::thread> workers;
            for (unsigned t = 0; t < threads; ++t) {
                workers.emplace_back([&session, &ids, t] {
                    const runtime::InstanceId id = ids[t];
                    for (std::size_t i = 0; i < kOpsPerRound; ++i)
                        session.record(id, runtime::OpKind::Add,
                                       static_cast<std::int64_t>(i),
                                       static_cast<std::uint32_t>(i + 1));
                });
            }
            for (auto& w : workers) w.join();
        }
        const auto t1 = Clock::now();
        session.stop();
        best = std::min(best, ns_per_op(t0, t1, kOpsPerRound * threads));
    }
    return best;
}

struct Result {
    std::string name;
    double ns;
};

/// Records per timed round of an on/off delta: kOpsPerRound records into
/// each of this many fresh sessions, record() windows summed.  About 20 ms
/// of record() per round at 3-4 ns/op: a 0.2 ms round of one session
/// cannot resolve a 2% bound on a shared host.
constexpr std::size_t kDeltaSessionsPerRound = 96;

/// ns/op of one delta round (setup and stop() of each session untimed).
double delta_round_ns(bool live_sink) {
    double ns = 0;
    for (std::size_t s = 0; s < kDeltaSessionsPerRound; ++s)
        ns += bench_record(live_sink, 1);
    return ns / static_cast<double>(kDeltaSessionsPerRound);
}

/// `q` in [0, 1] of sorted `v`, interpolated between order statistics.
double quantile(const std::vector<double>& v, double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return quantile(v, 0.5);
}

/// Instrumentation on/off delta for one kind of session: each side's
/// median ns/op and the quartiles of the per-pair deltas in percent.
struct ObsDelta {
    std::string name;
    double off_ns = 0;
    double on_ns = 0;
    double pct_q1 = 0;
    double pct_median = 0;
    double pct_q3 = 0;
};

/// Measure `pairs` pairs of rounds, run back to back in alternating order
/// so ambient drift (frequency, page cache, allocator state) hits both
/// sides equally.  `set_on(bool)` switches the instrumentation under test;
/// `after_pair` runs untimed after each pair.
template <typename SetOn, typename AfterPair>
ObsDelta measure_delta(bool live_sink, const char* name, int pairs,
                       SetOn set_on, AfterPair after_pair) {
    std::vector<double> off, on, pct;
    for (int r = 0; r < pairs; ++r) {
        const bool on_first = (r & 1) != 0;
        set_on(on_first);
        const double first = delta_round_ns(live_sink);
        set_on(!on_first);
        const double second = delta_round_ns(live_sink);
        off.push_back(on_first ? second : first);
        on.push_back(on_first ? first : second);
        pct.push_back((on.back() - off.back()) / off.back() * 100.0);
        after_pair();
    }
    std::sort(pct.begin(), pct.end());
    ObsDelta delta;
    delta.name = name;
    delta.off_ns = median(off);
    delta.on_ns = median(on);
    delta.pct_q1 = quantile(pct, 0.25);
    delta.pct_median = quantile(pct, 0.5);
    delta.pct_q3 = quantile(pct, 0.75);
    return delta;
}

/// Metrics-registry on/off delta.
ObsDelta bench_obs_delta(bool live_sink, const char* name, int pairs) {
    auto& reg = obs::MetricsRegistry::global();
    const ObsDelta delta = measure_delta(
        live_sink, name, pairs, [&reg](bool on) { reg.set_enabled(on); },
        [] {});
    reg.set_enabled(false);
    reg.reset();
    return delta;
}

/// Span-recorder on/off delta.  The metrics registry stays enabled on both
/// sides so the measured difference is the trace recorder alone, on top of
/// a realistically instrumented capture path.
ObsDelta bench_trace_delta(bool live_sink, const char* name, int pairs) {
    auto& reg = obs::MetricsRegistry::global();
    auto& tracer = obs::TraceRecorder::global();
    reg.set_enabled(true);
    const ObsDelta delta = measure_delta(
        live_sink, name, pairs,
        [&tracer](bool on) { tracer.set_enabled(on); },
        [&tracer] {
            // Drop the spans the on-side buffered so every pair starts
            // from the same recorder and allocator state; without this,
            // chunk allocations accumulate across pairs and read as
            // phantom capture-path overhead on the off side too.
            tracer.set_enabled(false);
            tracer.reset();
        });
    tracer.set_enabled(false);
    reg.set_enabled(false);
    reg.reset();
    return delta;
}

/// One delta file: provenance, then one result per kind of session.
bool write_delta_json(const std::string& path, const char* benchmark,
                      int pairs, const char* bound_pct,
                      const std::vector<ObsDelta>& deltas) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::perror("capture_overhead: fopen");
        return false;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"%s\",\n", benchmark);
    std::fprintf(f, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"ops_per_round\": %zu,\n",
                 kOpsPerRound * kDeltaSessionsPerRound);
    std::fprintf(f, "  \"sessions_per_round\": %zu,\n",
                 kDeltaSessionsPerRound);
    std::fprintf(f, "  \"pairs\": %d,\n", pairs);
    std::fprintf(f, "  \"statistic\": \"median and quartiles of per-pair "
                    "on/off deltas\",\n");
    if (bound_pct != nullptr)
        std::fprintf(f, "  \"acceptance_bound_pct\": %s,\n", bound_pct);
    std::fprintf(f, "  \"results\": [\n");
    for (std::size_t i = 0; i < deltas.size(); ++i) {
        const ObsDelta& d = deltas[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"ns_per_op_off\": %.3f, "
                     "\"ns_per_op_on\": %.3f, \"overhead_pct\": %.2f, "
                     "\"overhead_pct_q1\": %.2f, \"overhead_pct_q3\": %.2f}%s\n",
                     d.name.c_str(), d.off_ns, d.on_ns, d.pct_median,
                     d.pct_q1, d.pct_q3, i + 1 < deltas.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    for (const ObsDelta& d : deltas)
        std::printf("%-24s off %8.3f  on %8.3f ns/op  (%+.2f%% [%+.2f, %+.2f])\n",
                    d.name.c_str(), d.off_ns, d.on_ns, d.pct_median,
                    d.pct_q1, d.pct_q3);
    std::printf("wrote %s\n", path.c_str());
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    const std::string out_path = argc > 1 ? argv[1] : "BENCH_capture.json";
    const int rounds = argc > 2 ? std::atoi(argv[2]) : 9;

    // Measure the trace-recorder delta FIRST, in a pristine process: the
    // other sections churn gigabytes through the allocator, and on small
    // machines the resulting heap/page layout biases the buffered-mode
    // loop by several percent — dwarfing the sub-1% effect under
    // measurement.  (The delta loop itself still interleaves off/on
    // rounds, so ambient drift cancels.)  Output files keep their order.
    std::vector<ObsDelta> trace_deltas;
    trace_deltas.push_back(
        bench_trace_delta(/*live_sink=*/false, "record_buffered", rounds));
    trace_deltas.push_back(
        bench_trace_delta(/*live_sink=*/true, "record_live_sink", rounds));
    obs::TraceRecorder::global().reset();

    std::vector<Result> results;
    const double plain = bench_plain_list(rounds);
    results.push_back({"plain_list_add", plain});
    results.push_back({"null_session_list_add", bench_null_session(rounds)});
    results.push_back({"record_buffered", bench_record(false, rounds)});
    results.push_back({"record_live_sink", bench_record(true, rounds)});
    results.push_back(
        {"list_add_buffered", bench_profiled_list(false, rounds)});
    results.push_back(
        {"list_add_live_sink", bench_profiled_list(true, rounds)});
    results.push_back(
        {"record_buffered_mt4", bench_record_mt(false, 4, rounds)});
    results.push_back(
        {"record_live_sink_mt4", bench_record_mt(true, 4, rounds)});

    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::perror("capture_overhead: fopen");
        return 1;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"capture_overhead\",\n");
    std::fprintf(f, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"ops_per_round\": %zu,\n", kOpsPerRound);
    std::fprintf(f, "  \"rounds\": %d,\n", rounds);
    std::fprintf(f, "  \"seq_block_size\": %llu,\n",
                 static_cast<unsigned long long>(
                     runtime::ProfilingSession::kSeqBlockSize));
    std::fprintf(f, "  \"timestamp_stride\": %u,\n",
                 runtime::ProfilingSession::kTimestampStride);
    std::fprintf(f, "  \"results\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Result& res = results[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"ns_per_op\": %.2f, "
                     "\"slowdown_vs_plain\": %.2f}%s\n",
                     res.name.c_str(), res.ns,
                     plain > 0 ? res.ns / plain : 0.0,
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);

    for (const Result& res : results)
        std::printf("%-24s %10.2f ns/op  (%5.1fx plain)\n", res.name.c_str(),
                    res.ns, plain > 0 ? res.ns / plain : 0.0);
    std::printf("wrote %s\n", out_path.c_str());

    // Self-telemetry cost: the identical record() loop with the metrics
    // registry off vs on (instrumentation rides the cold branches, so the
    // delta should stay in the noise).
    const std::string obs_path = argc > 3 ? argv[3] : "BENCH_obs.json";
    std::vector<ObsDelta> deltas;
    deltas.push_back(
        bench_obs_delta(/*live_sink=*/false, "record_buffered", rounds));
    deltas.push_back(
        bench_obs_delta(/*live_sink=*/true, "record_live_sink", rounds));

    if (!write_delta_json(obs_path, "obs_overhead", rounds, nullptr, deltas))
        return 1;

    // Span-tracing cost: record() with the trace recorder off vs on
    // (measured at the top of main, see the comment there).  The hot
    // path gains no tracing code at all (spans ride the cold seq-refill
    // and drain branches only), so the acceptance bound is <=2%.
    const std::string trace_path = argc > 4 ? argv[4] : "BENCH_trace_obs.json";
    if (!write_delta_json(trace_path, "trace_obs_overhead", rounds, "2.0",
                          trace_deltas))
        return 1;
    return 0;
}
