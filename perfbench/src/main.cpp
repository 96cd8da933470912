// dsspy_perfbench — the repository benchmark program (see README.md).
//
//   dsspy_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --workdir DIR --digests FILE [--commit REV]
//
// Runs one workload as a closed loop (one client, each job waits for the
// previous one), checks every output, and prints two lines on stdout: a
// detail record with provenance and sample counts, then the result line
// {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set; a
// layer that a workload bypasses reports 0.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>
#include <unistd.h>

#include "core/detector_kernels.hpp"
#include "harness.hpp"
#include "parallel/thread_pool.hpp"

#ifndef DSSPY_PERFBENCH_BUILD_TYPE
#define DSSPY_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct MetricSpec {
    const char* name;
    const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"job_ms_p50", "ms"},
    {"job_ms_p90", "ms"},     {"events_per_s", "events/s"},
    {"slowdown_x", "x"},      {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"apps.workload_ms", "ms"},
    {"apps.plain_ms", "ms"},
    {"runtime.record_ns_per_event", "ns"},
    {"runtime.stop_ms", "ms"},
    {"runtime.stop_ns_per_event", "ns"},
    {"runtime.rss_after_stop_mb", "MB"},
    {"runtime.decode_ms", "ms"},
    {"runtime.decode_mb_per_s", "MB/s"},
    {"runtime.trace_bytes", "bytes"},
    {"runtime.events", "count"},
    {"core.fold_ms", "ms"},
    {"core.finish_ms", "ms"},
    {"core.analyze_ms", "ms"},
    {"core.instances", "count"},
    {"pipeline.render_ms", "ms"},
    {"parallel.seq_ms", "ms"},
    {"parallel.par_ms", "ms"},
    {"parallel.speedup_x", "x"},
    {"parallel.sim_ms", "ms"},
    {"parallel.sim_error_pct", "%"},
    {"adapt.ops", "count"},
    {"adapt.ops_per_s", "ops/s"},
    {"adapt.op_ns_p50", "ns"},
    {"adapt.op_ns_p99", "ns"},
    {"adapt.switches", "count"},
    {"bench.unattributed_pct", "%"},
};

/// Per-layer metrics that carry one value per app (suffix ".<app>").
constexpr MetricSpec kPerApp[] = {
    {"apps.workload_ms", "ms"},
    {"apps.plain_ms", "ms"},
    {"runtime.record_ns_per_event", "ns"},
    {"runtime.stop_ms", "ms"},
    {"runtime.stop_ns_per_event", "ns"},
    {"core.analyze_ms", "ms"},
    {"parallel.seq_ms", "ms"},
    {"parallel.par_ms", "ms"},
    {"parallel.sim_error_pct", "%"},
};

constexpr const char* kApps[] = {
    "Algorithmia", "Astrogrep",  "Contentfinder",  "CPU_Benchmarks",
    "Gpdotnet",    "Mandelbrot", "WordWheelSolver",
};

/// (name, unit) of every metric the mode reports, in spec order.
std::vector<std::pair<std::string, std::string>> expected_metrics(
    bool trace) {
    std::vector<std::pair<std::string, std::string>> specs;
    if (!trace) {
        for (const MetricSpec& m : kEndToEnd) specs.emplace_back(m.name, m.unit);
        return specs;
    }
    for (const MetricSpec& m : kPerLayer) specs.emplace_back(m.name, m.unit);
    for (const MetricSpec& m : kPerApp)
        for (const char* app : kApps)
            specs.emplace_back(std::string(m.name) + "." + app, m.unit);
    return specs;
}

/// Order the workload's metrics as the spec lists them and fill layers
/// the workload bypasses with 0.  A name outside the spec, a value that is
/// not finite, or an end-to-end value that is not positive is a benchmark
/// bug: it fails the run instead of printing a wrong number.
void normalize_metrics(Result& result, bool trace) {
    const auto fail = [&result](const std::string& why) {
        ++result.failed;
        result.errors.push_back(why);
    };
    std::vector<Metric> ordered;
    for (const auto& [name, unit] : expected_metrics(trace)) {
        Metric m{name, 0.0, unit, 0};
        for (const Metric& got : result.metrics)
            if (got.name == name) m = got;
        if (!std::isfinite(m.value)) {
            fail("metric " + name + " is not finite");
            m.value = 0.0;
        } else if (!trace && m.value <= 0.0) {
            fail("metric " + name + " is not positive");
        }
        ordered.push_back(m);
    }
    for (const Metric& got : result.metrics) {
        bool known = false;
        for (const Metric& m : ordered) known = known || m.name == got.name;
        if (!known) fail("unknown metric " + got.name);
    }
    result.metrics = std::move(ordered);
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

void print_result(const Options& o, const Result& r) {
    const std::string_view simd = dsspy::core::kernels::simd_level_name(
        dsspy::core::kernels::active_simd_level());
    std::printf(
        "{\"perfbench\": {\"workload\": \"%s\", \"seed\": %llu, "
        "\"seconds\": %g, \"trace\": %d, \"provenance\": {\"nproc\": %ld, "
        "\"hardware_concurrency\": %u, \"effective_default_threads\": %u, "
        "\"simd_level\": \"%.*s\", \"build_type\": \"%s\", "
        "\"commit\": \"%s\"}, \"samples\": {",
        o.workload.c_str(), static_cast<unsigned long long>(o.seed),
        o.seconds, o.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
        std::thread::hardware_concurrency(),
        dsspy::par::ThreadPool::effective_default_threads(),
        static_cast<int>(simd.size()), simd.data(),
        DSSPY_PERFBENCH_BUILD_TYPE, json_escape(o.commit).c_str());
    for (std::size_t i = 0; i < r.metrics.size(); ++i)
        std::printf("%s\"%s\": %zu", i == 0 ? "" : ", ",
                    r.metrics[i].name.c_str(), r.metrics[i].samples);
    std::printf("}, \"errors\": [");
    for (std::size_t i = 0; i < r.errors.size(); ++i)
        std::printf("%s\"%s\"", i == 0 ? "" : ", ",
                    json_escape(r.errors[i]).c_str());
    std::printf("]}}\n");

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (std::size_t i = 0; i < r.metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", r.metrics[i].name.c_str(),
                    r.metrics[i].value, r.metrics[i].unit.c_str());
    std::printf("}}\n");
}

int usage(const char* why) {
    std::fprintf(stderr,
                 "dsspy_perfbench: %s\nusage: dsspy_perfbench --workload "
                 "apps_live|trace_offline|parallel_exec|adaptive_shared "
                 "--seed N --seconds S --trace 0|1 --workdir DIR "
                 "--digests FILE [--commit REV]\n",
                 why);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Options o;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload") {
            o.workload = value;
        } else if (key == "--seed") {
            o.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "--seconds") {
            o.seconds = std::strtod(value.c_str(), nullptr);
        } else if (key == "--trace") {
            o.trace = value == "1";
        } else if (key == "--workdir") {
            o.workdir = value;
        } else if (key == "--digests") {
            o.digests_path = value;
        } else if (key == "--commit") {
            o.commit = value;
        } else {
            return usage(("unknown option " + key).c_str());
        }
    }
    if (argc % 2 == 0) return usage("options take one value each");
    if (o.workdir.empty() || o.digests_path.empty())
        return usage("--workdir and --digests are required");
    if (!(o.seconds > 0.0)) return usage("--seconds must be positive");

    Result (*run)(const Options&) = nullptr;
    if (o.workload == "apps_live") {
        run = run_apps_live;
    } else if (o.workload == "trace_offline") {
        run = run_trace_offline;
    } else if (o.workload == "parallel_exec") {
        run = run_parallel_exec;
    } else if (o.workload == "adaptive_shared") {
        run = run_adaptive_shared;
    } else {
        return usage(("unknown workload " + o.workload).c_str());
    }
    Result result;
    try {
        result = run(o);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "dsspy_perfbench: %s\n", e.what());
        return 1;
    }
    normalize_metrics(result, o.trace);
    print_result(o, result);
    return 0;
}
