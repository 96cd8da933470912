// dsspy — command-line front end for the DSspy analysis pipeline.
//
// The CLI is a thin parser over the pipeline service layer (DESIGN.md
// §10): every subcommand builds a declarative pipeline::RunPlan and hands
// it to pipeline::PipelineRunner; `dsspy batch` builds many plans and runs
// them concurrently through pipeline::run_batch.
//
// Subcommands:
//   dsspy analyze <trace> [output options] [--set key=value ...]
//       Offline analysis of a recorded trace (CSV or DST1 binary; the
//       format is auto-detected — see runtime/trace_io.hpp).  Streams the
//       trace through the incremental analyzer by default; --postmortem
//       runs the post-mortem pipeline over the whole trace (required for
//       --json/--html/--csv-patterns/--plan, which need materialized
//       patterns); it loads the trace, either format, straight into
//       columns (and re-emits it from them with --trace).
//   dsspy convert <in> <out> [--format=csv|binary]
//       Re-encode a trace (default: to the compact DST1 binary format).
//   dsspy run <app> [--trace FILE [--format=csv|binary]] [output options]
//       Run one of the seven evaluation apps instrumented and analyze it
//       (alias: demo).
//   dsspy watch <app> [--interval-ms N] [output options]
//       Run an app with the incremental analyzer attached and print live
//       snapshots while it runs, then the final report.
//   dsspy corpus <program> [output options]
//       Replay one empirical-study program's workload and analyze it.
//   dsspy batch <target>... [output options] [--threads=N]
//       Run several jobs concurrently, one ProfilingSession each.  A
//       target is an app name, a corpus program name, or a trace path
//       (auto-detected in that order), or explicit with an `app:`,
//       `corpus:`, or `trace:` prefix.  Per-job outputs are buffered and
//       flushed in job order, byte-identical to running the same jobs
//       sequentially.
//   dsspy metrics <app>
//       Run an app instrumented with self-telemetry enabled and print the
//       profiler's own metrics (Prometheus text by default, --json for the
//       JSON document) including the self-overhead estimate.
//   dsspy serve [--listen SPEC] [--max-tenants=N] [--set key=value ...]
//       Host the multi-tenant profiling daemon (docs/SERVE.md, DESIGN.md
//       §12) in the foreground until SIGINT/SIGTERM.  SPEC is unix:PATH
//       (default unix:dsspy.sock) or tcp://host:port (port 0 lets the
//       kernel choose; the resolved address is printed).  Clients stream
//       framed traces over the DSRV protocol; status endpoints answer
//       plain HTTP GETs on the same socket.
//   dsspy push <trace> [--connect SPEC] [--tenant NAME]
//       Send a recorded trace (CSV or DST1) to a running daemon and print
//       the daemon's one-line verdict — `dsspy analyze` executed remotely.
//   dsspy list
//       List available demo apps and corpus programs.
//   dsspy config
//       Print all detector thresholds and the effective thread-pool width.
//
// Output options (default: the Table V style text report):
//   --report          human-readable use-case report (default)
//   --summary         one-line-per-instance table
//   --json            full analysis as JSON on stdout
//   --csv-usecases    use cases as CSV on stdout
//   --csv-instances   per-instance aggregates as CSV on stdout
//   --csv-patterns    detected patterns as CSV on stdout
//   --html FILE       self-contained HTML report with embedded charts
//   --set key=value   override a detector threshold (repeatable)
//   --threads=N       worker threads for analysis parallelism and batch
//                     concurrency (default: hardware concurrency)
//
// Self-telemetry (DESIGN.md §9): `--metrics-out=FILE` on any pipeline
// command additionally enables the metrics registry and writes its JSON
// snapshot to FILE when the command finishes.
//
// Span tracing (DESIGN.md §13): `--trace-spans-out=FILE` on any pipeline
// command (and `dsspy serve`) enables the span recorder and writes the
// recorded span trees as Chrome trace-event / Perfetto JSON to FILE when
// the command finishes; `--slow-op-ms=N` additionally logs a [slow-op]
// stderr line for every span at least N ms long.
//
// Exit codes: 0 success, 1 runtime failure (unknown app/program, missing
// or unwritable file, failed job), 2 usage error (unknown command or flag,
// conflicting options).
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "apps/app_registry.hpp"
#include "core/config_parse.hpp"
#include "core/detector_kernels.hpp"
#include "core/report.hpp"
#include "corpus/program_model.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/self_overhead.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/batch.hpp"
#include "pipeline/report_sink.hpp"
#include "pipeline/run_plan.hpp"
#include "pipeline/runner.hpp"
#include "pipeline/serve_plan.hpp"

namespace {

using namespace dsspy;

struct Options {
    std::string command;
    std::string target;
    std::vector<std::string> batch_targets;
    std::string convert_out;
    std::optional<runtime::TraceFormat> format;
    pipeline::OutputSelection outputs;
    bool json = false;         ///< Raw --json flag (metrics doc vs export).
    bool incremental = false;  ///< Force the streaming engine.
    bool postmortem = false;   ///< Force the post-mortem engine.
    int interval_ms = 500;     ///< watch: snapshot period.
    pipeline::ServePlan serve;  ///< serve: daemon configuration.
    pipeline::PushPlan push;    ///< push: client configuration.
    std::string trace_path;
    std::string metrics_out;   ///< Write the metrics JSON snapshot here.
    std::string trace_spans_out;  ///< Write the span-tree JSON here.
    int slow_op_ms = 0;        ///< [slow-op] log threshold (0 = off).
    unsigned threads = 0;      ///< --threads override (0 = hardware).
    std::vector<std::string> overrides;
};

int usage(const char* argv0) {
    std::cerr
        << "Usage: " << argv0 << " <command> [args]\n\n"
        << "Commands:\n"
        << "  analyze <trace>       analyze a recorded trace offline\n"
        << "                        (CSV or DST1 binary, auto-detected;\n"
        << "                        streamed incrementally by default)\n"
        << "  convert <in> <out>    re-encode a trace (--format, default\n"
        << "                        binary)\n"
        << "  run <app>             run an evaluation app instrumented\n"
        << "                        (alias: demo)\n"
        << "  watch <app>           run an app with live incremental\n"
        << "                        snapshots (--interval-ms, default 500)\n"
        << "  corpus <program>      replay an empirical-study workload\n"
        << "  batch <target>...     run several jobs concurrently (targets\n"
        << "                        are app/corpus names or trace paths;\n"
        << "                        app:/corpus:/trace: prefixes override\n"
        << "                        the auto-detection)\n"
        << "  metrics <app>         run an app and print the profiler's own\n"
        << "                        telemetry (Prometheus text; --json for\n"
        << "                        the JSON document)\n"
        << "  serve                 host the multi-tenant profiling daemon\n"
        << "                        (--listen unix:PATH|tcp://host:port,\n"
        << "                        --max-tenants=N, --max-finished-tenants=N,\n"
        << "                        --max-frame-bytes=N, --max-instances=N,\n"
        << "                        --client-timeout-ms=N, --slow-op-ms=N,\n"
        << "                        --trace-spans-out=FILE; docs/SERVE.md)\n"
        << "  push <trace>          send a recorded trace to a daemon\n"
        << "                        (--connect SPEC, --tenant NAME,\n"
        << "                        --frame-bytes=N)\n"
        << "  advise <target>       emit the structured advice document\n"
        << "                        (machine-consumable verdicts: action,\n"
        << "                        confidence, evidence) as JSON; targets\n"
        << "                        resolve like batch targets\n"
        << "  list                  list demo apps and corpus programs\n"
        << "  config                print detector thresholds\n\n"
        << "Output: --report (default) --summary --plan --json --csv-usecases\n"
        << "        --csv-instances --csv-patterns --html FILE\n"
        << "Extras: --trace FILE (run/corpus: also write the raw trace)\n"
        << "        --format=csv|binary (trace encoding for convert/--trace)\n"
        << "        --incremental | --postmortem (pick the engine)\n"
        << "        --interval-ms N (watch: snapshot period)\n"
        << "        --threads=N (analysis/batch worker threads; default\n"
        << "        hardware concurrency — `dsspy config` prints it)\n"
        << "        --metrics-out=FILE (enable self-telemetry; write the\n"
        << "        metrics JSON snapshot to FILE on exit)\n"
        << "        --trace-spans-out=FILE (enable span tracing; write the\n"
        << "        span trees as Chrome trace-event / Perfetto JSON)\n"
        << "        --slow-op-ms=N (log a [slow-op] stderr line for every\n"
        << "        span at least N ms long)\n"
        << "        --set key=value (threshold override, repeatable)\n"
        << "Exit codes: 0 success, 1 runtime failure, 2 usage error\n";
    return pipeline::kExitUsageError;
}

std::optional<Options> parse_args(int argc, char** argv) {
    if (argc < 2) return std::nullopt;
    Options opt;
    opt.command = argv[1];
    int i = 2;
    if (opt.command == "analyze" || opt.command == "run" ||
        opt.command == "demo" || opt.command == "watch" ||
        opt.command == "corpus" || opt.command == "convert" ||
        opt.command == "metrics" || opt.command == "push" ||
        opt.command == "advise") {
        if (i >= argc || argv[i][0] == '-') return std::nullopt;
        opt.target = argv[i++];
    }
    if (opt.command == "convert") {
        if (i >= argc || argv[i][0] == '-') return std::nullopt;
        opt.convert_out = argv[i++];
    }
    if (opt.command == "batch") {
        while (i < argc && argv[i][0] != '-')
            opt.batch_targets.emplace_back(argv[i++]);
        if (opt.batch_targets.empty()) {
            std::cerr << "batch needs at least one target\n";
            return std::nullopt;
        }
    }
    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--report") {
            opt.outputs.report = true;
        } else if (arg == "--summary") {
            opt.outputs.summary = true;
        } else if (arg == "--plan") {
            opt.outputs.plan = true;
        } else if (arg == "--json") {
            opt.json = true;
        } else if (arg == "--csv-usecases") {
            opt.outputs.csv_usecases = true;
        } else if (arg == "--csv-instances") {
            opt.outputs.csv_instances = true;
        } else if (arg == "--csv-patterns") {
            opt.outputs.csv_patterns = true;
        } else if (arg == "--html" && i + 1 < argc) {
            opt.outputs.html_path = argv[++i];
        } else if (arg == "--trace" && i + 1 < argc) {
            opt.trace_path = argv[++i];
        } else if (arg == "--format=csv") {
            opt.format = runtime::TraceFormat::Csv;
        } else if (arg == "--format=binary") {
            opt.format = runtime::TraceFormat::Binary;
        } else if (arg == "--incremental") {
            opt.incremental = true;
        } else if (arg == "--postmortem") {
            opt.postmortem = true;
        } else if (arg == "--interval-ms" && i + 1 < argc) {
            opt.interval_ms = std::atoi(argv[++i]);
            if (opt.interval_ms <= 0) opt.interval_ms = 500;
        } else if (arg.rfind("--threads=", 0) == 0) {
            const int n = std::atoi(arg.c_str() + std::strlen("--threads="));
            if (n <= 0) {
                std::cerr << "--threads needs a positive thread count\n";
                return std::nullopt;
            }
            opt.threads = static_cast<unsigned>(n);
        } else if (arg == "--threads" && i + 1 < argc) {
            const int n = std::atoi(argv[++i]);
            if (n <= 0) {
                std::cerr << "--threads needs a positive thread count\n";
                return std::nullopt;
            }
            opt.threads = static_cast<unsigned>(n);
        } else if (arg.rfind("--metrics-out=", 0) == 0) {
            opt.metrics_out = arg.substr(std::strlen("--metrics-out="));
            if (opt.metrics_out.empty()) {
                std::cerr << "--metrics-out needs a file path\n";
                return std::nullopt;
            }
        } else if (arg.rfind("--trace-spans-out=", 0) == 0) {
            opt.trace_spans_out =
                arg.substr(std::strlen("--trace-spans-out="));
            if (opt.trace_spans_out.empty()) {
                std::cerr << "--trace-spans-out needs a file path\n";
                return std::nullopt;
            }
        } else if (arg.rfind("--slow-op-ms=", 0) == 0) {
            const int n =
                std::atoi(arg.c_str() + std::strlen("--slow-op-ms="));
            if (n <= 0) {
                std::cerr << "--slow-op-ms needs a positive threshold\n";
                return std::nullopt;
            }
            opt.slow_op_ms = n;
        } else if (arg == "--set" && i + 1 < argc) {
            opt.overrides.emplace_back(argv[++i]);
        } else if (arg == "--listen" && i + 1 < argc) {
            opt.serve.listen = argv[++i];
        } else if (arg == "--connect" && i + 1 < argc) {
            opt.push.connect = argv[++i];
        } else if (arg == "--tenant" && i + 1 < argc) {
            opt.push.tenant_name = argv[++i];
        } else if (arg.rfind("--max-tenants=", 0) == 0) {
            const int n = std::atoi(arg.c_str() + std::strlen("--max-tenants="));
            if (n <= 0) {
                std::cerr << "--max-tenants needs a positive count\n";
                return std::nullopt;
            }
            opt.serve.max_tenants = static_cast<std::size_t>(n);
        } else if (arg.rfind("--max-finished-tenants=", 0) == 0) {
            const int n = std::atoi(
                arg.c_str() + std::strlen("--max-finished-tenants="));
            if (n < 0) {
                std::cerr << "--max-finished-tenants needs a count >= 0\n";
                return std::nullopt;
            }
            opt.serve.max_finished_tenants = static_cast<std::size_t>(n);
        } else if (arg.rfind("--max-frame-bytes=", 0) == 0) {
            const long n =
                std::atol(arg.c_str() + std::strlen("--max-frame-bytes="));
            if (n <= 0) {
                std::cerr << "--max-frame-bytes needs a positive size\n";
                return std::nullopt;
            }
            opt.serve.max_frame_bytes = static_cast<std::size_t>(n);
        } else if (arg.rfind("--max-instances=", 0) == 0) {
            const long n =
                std::atol(arg.c_str() + std::strlen("--max-instances="));
            if (n <= 0) {
                std::cerr << "--max-instances needs a positive count\n";
                return std::nullopt;
            }
            opt.serve.max_tenant_instances = static_cast<std::size_t>(n);
        } else if (arg.rfind("--frame-bytes=", 0) == 0) {
            const long n =
                std::atol(arg.c_str() + std::strlen("--frame-bytes="));
            if (n <= 0) {
                std::cerr << "--frame-bytes needs a positive size\n";
                return std::nullopt;
            }
            opt.push.frame_bytes = static_cast<std::size_t>(n);
        } else if (arg.rfind("--client-timeout-ms=", 0) == 0) {
            const int n =
                std::atoi(arg.c_str() + std::strlen("--client-timeout-ms="));
            if (n <= 0) {
                std::cerr << "--client-timeout-ms needs a positive period\n";
                return std::nullopt;
            }
            opt.serve.client_timeout_ms = n;
        } else {
            std::cerr << "Unknown argument: " << arg << '\n';
            return std::nullopt;
        }
    }
    // `metrics` prints the telemetry document, `convert` re-encodes: no
    // default analysis report for either (explicit output flags still
    // work).  Every analysis command defaults to the Table V report.
    const bool analysis_command = opt.command != "metrics" &&
                                  opt.command != "convert" &&
                                  opt.command != "list" &&
                                  opt.command != "config" &&
                                  opt.command != "serve" &&
                                  opt.command != "push";
    // `advise` emits the advice document whether or not --json is given
    // (JSON is its native format); --json does not add the full analysis
    // export on top.
    if (opt.command == "advise") {
        opt.outputs.advice = true;
    } else if (opt.json && opt.command != "metrics") {
        opt.outputs.json = true;
    }
    if (analysis_command && !opt.outputs.any_analysis_output())
        opt.outputs.report = true;
    return opt;
}

/// The shared plan fields every subcommand inherits from the parsed flags.
pipeline::RunPlan base_plan(const Options& opt,
                            const core::DetectorConfig& config) {
    pipeline::RunPlan plan;
    plan.config = config;
    plan.outputs = opt.outputs;
    plan.outputs.metrics_out = opt.metrics_out;
    plan.outputs.trace_spans_out = opt.trace_spans_out;
    if (opt.incremental) plan.engine = pipeline::EngineChoice::Incremental;
    if (opt.postmortem) plan.engine = pipeline::EngineChoice::Postmortem;
    plan.trace_out = opt.trace_path;
    plan.trace_format = opt.format;
    plan.snapshot_interval_ms = opt.interval_ms;
    return plan;
}

/// Resolve one batch target to an input kind: explicit `app:` / `corpus:`
/// / `trace:` prefix, else app name, else corpus program name, else a
/// trace path.
void resolve_batch_target(const std::string& target,
                          pipeline::RunPlan& plan) {
    if (target.rfind("app:", 0) == 0) {
        plan.input = pipeline::InputKind::App;
        plan.target = target.substr(std::strlen("app:"));
        return;
    }
    if (target.rfind("corpus:", 0) == 0) {
        plan.input = pipeline::InputKind::CorpusProgram;
        plan.target = target.substr(std::strlen("corpus:"));
        return;
    }
    if (target.rfind("trace:", 0) == 0) {
        plan.input = pipeline::InputKind::TraceFile;
        plan.target = target.substr(std::strlen("trace:"));
        return;
    }
    plan.target = target;
    if (apps::find_app(target) != nullptr) {
        plan.input = pipeline::InputKind::App;
        return;
    }
    for (const corpus::ProgramModel& m : corpus::all_programs()) {
        if (m.name == target) {
            plan.input = pipeline::InputKind::CorpusProgram;
            return;
        }
    }
    plan.input = pipeline::InputKind::TraceFile;
}

/// The `[watch]` ticker printed between live snapshots, including the
/// self-telemetry line when the registry is enabled.
void print_watch_tick(const Options& opt, const pipeline::WatchTick& tick) {
    std::cout << "[watch] " << tick.events_folded << " events folded, "
              << tick.snapshot.total_instances() << " instances, "
              << tick.snapshot.all_use_cases().size() << " use cases so far\n";
    if (obs::enabled()) {
        // Watermark lag: events captured but not yet folded — how far the
        // live snapshot trails the workload.
        auto& reg = obs::MetricsRegistry::global();
        static const obs::MetricId lag_metric =
            reg.gauge("incremental.watermark_lag_events");
        const std::uint64_t lag = tick.events_captured > tick.events_folded
                                      ? tick.events_captured -
                                            tick.events_folded
                                      : 0;
        reg.gauge_max(lag_metric, lag);
        std::cout << "[metrics] captured " << tick.events_captured
                  << ", watermark lag " << lag << " events, peak rss "
                  << obs::sample_peak_rss_bytes() / 1024 << " KiB";
        if (obs::trace_enabled()) {
            // Live span view: how deep the busiest thread is nested and
            // which open span has been running longest.
            const obs::OpenSpanInfo open =
                obs::TraceRecorder::global().slowest_open_span();
            std::cout << ", span depth " << open.depth << ", slowest open "
                      << (open.name != nullptr ? open.name : "-");
        }
        std::cout << '\n';
    }
    if (opt.outputs.summary) {
        core::print_instance_summary(std::cout, tick.snapshot);
        std::cout << '\n';
    }
}

int cmd_batch(const Options& opt, const core::DetectorConfig& config) {
    // Per-job side files would collide across concurrent jobs: reject.
    if (!opt.trace_path.empty() || !opt.outputs.html_path.empty()) {
        std::cerr << "batch does not support --trace/--html (jobs would "
                     "write the same file)\n";
        return pipeline::kExitUsageError;
    }
    std::vector<pipeline::RunPlan> plans;
    plans.reserve(opt.batch_targets.size());
    for (const std::string& target : opt.batch_targets) {
        pipeline::RunPlan plan = base_plan(opt, config);
        // The combined snapshot is written once after the batch, not once
        // per job.
        plan.outputs.metrics_out.clear();
        plan.outputs.trace_spans_out.clear();
        resolve_batch_target(target, plan);
        if (const std::string problem =
                pipeline::PipelineRunner::validate(plan);
            !problem.empty()) {
            std::cerr << "batch target " << target << ": " << problem << '\n';
            return pipeline::kExitUsageError;
        }
        plans.push_back(std::move(plan));
    }
    const pipeline::PipelineRunner runner;
    const pipeline::BatchSummary summary = pipeline::run_batch(
        runner, plans, opt.threads, std::cout, std::cerr);
    // One combined span file after every job finished: the batch root and
    // each job's tree export together.
    pipeline::write_trace_spans(opt.trace_spans_out, std::cerr);
    if (!opt.metrics_out.empty() && obs::enabled()) {
        const std::vector<obs::MetricValue> metrics =
            obs::MetricsRegistry::global().collect();
        if (obs::write_metrics_json_file(opt.metrics_out, metrics, nullptr))
            std::cerr << "Wrote metrics to " << opt.metrics_out << '\n';
        else
            std::cerr << "Failed to write metrics to " << opt.metrics_out
                      << '\n';
    }
    return summary.exit_code;
}

int cmd_list() {
    std::cout << "Demo apps (dsspy demo <name>):\n";
    for (const apps::AppInfo& app : apps::evaluation_apps())
        std::cout << "  \"" << app.name << "\" (" << app.domain << ", "
                  << app.paper_instances << " data structures)\n";
    std::cout << "\nCorpus programs (dsspy corpus <name>):\n";
    for (const corpus::ProgramModel& m : corpus::all_programs())
        std::cout << "  " << m.name << " ("
                  << corpus::domain_short_name(m.domain)
                  << (m.in_eval23 ? ", Table III" : "")
                  << (m.in_study15 ? ", Table II" : "") << ")\n";
    return pipeline::kExitOk;
}

/// SIGINT/SIGTERM raise this; the serve loop polls it and shuts down
/// cleanly (finalizing streaming tenants as aborted).
std::atomic<bool> g_serve_stop{false};

extern "C" void handle_serve_signal(int) {
    g_serve_stop.store(true, std::memory_order_release);
}

int cmd_serve(const Options& opt, const core::DetectorConfig& config) {
    pipeline::ServePlan plan = opt.serve;
    plan.config = config;
    plan.slow_op_ms = opt.slow_op_ms;
    plan.trace_spans_out = opt.trace_spans_out;
    std::signal(SIGINT, handle_serve_signal);
    std::signal(SIGTERM, handle_serve_signal);
    return pipeline::run_serve(plan, std::cout, std::cerr, g_serve_stop);
}

int cmd_push(const Options& opt) {
    pipeline::PushPlan plan = opt.push;
    plan.trace_path = opt.target;
    return pipeline::run_push(plan, std::cout, std::cerr);
}

int cmd_config(const core::DetectorConfig& config) {
    std::cout << "Detector thresholds (override with --set key=value):\n";
    for (const std::string& line : core::config_to_strings(config))
        std::cout << "  " << line << '\n';
    std::cout << "Thread pool: "
              << par::ThreadPool::effective_default_threads()
              << " worker threads (override with --threads=N)\n";
    std::cout << "SIMD path: "
              << core::kernels::simd_level_name(
                     core::kernels::active_simd_level())
              << " (detector kernels, DESIGN.md §11; force scalar with "
                 "DSSPY_FORCE_SCALAR=1)\n";
    return pipeline::kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
    const std::optional<Options> opt = parse_args(argc, argv);
    if (!opt) return usage(argv[0]);

    core::DetectorConfig config;
    const std::vector<std::string> rejected =
        core::apply_config_overrides(config, opt->overrides);
    for (const std::string& entry : rejected)
        std::cerr << "Ignoring unknown/invalid override: " << entry << '\n';

    // --threads plumbs into every pool the process creates: the shared
    // analysis pool (created on first use) and the batch driver pool.
    if (opt->threads != 0)
        par::ThreadPool::set_default_threads(opt->threads);

    // Self-telemetry is opt-in: the registry stays disabled (and every
    // instrumentation site costs one predicted branch) unless asked for.
    if (!opt->metrics_out.empty() || opt->command == "metrics")
        obs::MetricsRegistry::global().set_enabled(true);

    // Span tracing likewise; --slow-op-ms implies it (the slow-op check
    // runs where spans are recorded).  `dsspy serve` enables both in
    // Daemon::start instead, so in-process daemon embedding gets them too.
    if (!opt->trace_spans_out.empty() || opt->slow_op_ms > 0) {
        obs::TraceRecorder::global().set_enabled(true);
        if (opt->slow_op_ms > 0)
            obs::TraceRecorder::global().set_slow_op_threshold_ns(
                static_cast<std::uint64_t>(opt->slow_op_ms) * 1000000u);
    }

    if (opt->command == "list") return cmd_list();
    if (opt->command == "config") return cmd_config(config);
    if (opt->command == "batch") return cmd_batch(*opt, config);
    if (opt->command == "serve") return cmd_serve(*opt, config);
    if (opt->command == "push") return cmd_push(*opt);

    pipeline::RunPlan plan = base_plan(*opt, config);
    plan.target = opt->target;
    if (opt->command == "analyze") {
        if (opt->incremental && opt->postmortem) {
            std::cerr << "--incremental and --postmortem are mutually "
                         "exclusive\n";
            return pipeline::kExitUsageError;
        }
        plan.input = pipeline::InputKind::TraceFile;
    } else if (opt->command == "convert") {
        plan.input = pipeline::InputKind::TraceFile;
        plan.engine = pipeline::EngineChoice::Postmortem;
        plan.trace_out = opt->convert_out;
        plan.trace_note = pipeline::TraceNoteStyle::ConvertNote;
    } else if (opt->command == "run" || opt->command == "demo") {
        plan.input = pipeline::InputKind::App;
    } else if (opt->command == "watch") {
        plan.input = pipeline::InputKind::App;
        plan.watch = true;
    } else if (opt->command == "corpus") {
        plan.input = pipeline::InputKind::CorpusProgram;
    } else if (opt->command == "advise") {
        resolve_batch_target(opt->target, plan);
    } else if (opt->command == "metrics") {
        plan.input = pipeline::InputKind::App;
        plan.outputs.metrics_doc = opt->json ? pipeline::MetricsDoc::Json
                                             : pipeline::MetricsDoc::Prometheus;
    } else {
        return usage(argv[0]);
    }

    const pipeline::PipelineRunner runner;
    const pipeline::WatchCallback on_tick =
        plan.watch ? pipeline::WatchCallback(
                         [&opt](const pipeline::WatchTick& tick) {
                             print_watch_tick(*opt, tick);
                         })
                   : pipeline::WatchCallback();
    const pipeline::RunOutcome outcome =
        runner.run(plan, std::cout, std::cerr, on_tick);
    return outcome.exit_code;
}
