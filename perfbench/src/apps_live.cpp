// apps_live: one job is `dsspy run <app> --summary` through PipelineRunner
// with the default engine and capture mode.  Each round runs all seven
// apps in a seeded order, so every app carries the same weight: the
// median job falls on a mid-size app and the 90th percentile on
// Algorithmia.  Each job is paired with the uninstrumented program
// (run_sequential(nullptr)), the denominator of the profiling slowdown.
//
// Checks: the job exits 0, its checksum equals the uninstrumented
// checksum, and its summary bytes match the committed digest.
#include <algorithm>
#include <map>
#include <memory>
#include <sstream>

#include "apps/app_registry.hpp"
#include "core/dsspy.hpp"
#include "core/incremental.hpp"
#include "harness.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/report_sink.hpp"
#include "pipeline/runner.hpp"
#include "runtime/session.hpp"

namespace perfbench {

namespace {

using dsspy::apps::AppInfo;
using dsspy::pipeline::EngineChoice;
using dsspy::pipeline::RunOutcome;
using dsspy::pipeline::RunPlan;

RunPlan summary_plan(const AppInfo& app) {
    RunPlan plan;
    plan.target = app.name;
    plan.outputs.summary = true;
    return plan;
}

/// Check one job's outputs; returns an empty string when they are right.
std::string check_job(const AppInfo& app, double plain_checksum,
                      bool exit_ok, double checksum, const std::string& out,
                      const Digests& digests) {
    if (!exit_ok) return app.name + ": job failed";
    if (checksum != plain_checksum)
        return app.name + ": instrumented checksum differs from plain";
    const std::string key = "apps_live." + metric_suffix(app.name);
    const std::string got = digest_hex(out);
    const std::string want = digests.get(key);
    if (got != want)
        return app.name + ": summary digest " + got + " != committed " +
               (want.empty() ? "(none)" : want) + " (" + key + ")";
    return {};
}

/// Per-app layer samples of the traced run.
struct Layers {
    std::vector<double> untraced, layer_sum, plain, workload, stop, analyze,
        finish, render;
    std::uint64_t events = 0;
    std::size_t instances = 0;
};

/// The traced decomposition of one job: the calls PipelineRunner::run
/// makes for `plan`, each wrapped in a benchmark-side span.  The path is
/// chosen from plan.resolved_engine(), as the runner chooses it.
RunOutcome traced_job(const AppInfo& app, const RunPlan& plan, SpanLog& log,
                      Layers& layers, double& rss_after_stop,
                      std::ostringstream& out) {
    std::ostringstream err;
    RunOutcome outcome;
    outcome.label = plan.display_name();
    outcome.has_checksum = true;
    dsspy::par::ThreadPool& pool = dsspy::par::ThreadPool::default_pool();
    double workload_ms = 0.0, stop_ms = 0.0, analyze_ms = 0.0,
           finish_ms = 0.0;

    if (plan.resolved_engine() == EngineChoice::Incremental) {
        auto session = std::make_unique<dsspy::runtime::ProfilingSession>(
            dsspy::runtime::CaptureMode::Buffered, 64 * 1024,
            dsspy::runtime::AnalysisMode::Incremental);
        dsspy::core::IncrementalAnalyzer incremental(plan.config);
        dsspy::core::attach_incremental(*session, incremental);
        {
            Span s(&log, "apps.workload");
            outcome.checksum = app.run_sequential(session.get()).checksum;
            workload_ms = s.stop();
        }
        {
            Span s(&log, "runtime.stop");  // Merge plus the fold it feeds.
            session->stop();
            stop_ms = s.stop();
        }
        rss_after_stop = std::max(rss_after_stop, current_rss_mb());
        outcome.events = incremental.events_folded();
        {
            Span s(&log, "core.finish");
            outcome.stream = dsspy::core::Dsspy::finish(incremental, *session);
            finish_ms = s.stop();
        }
        outcome.session = std::move(session);
    } else {
        auto session = std::make_unique<dsspy::runtime::ProfilingSession>();
        {
            Span s(&log, "apps.workload");
            outcome.checksum = app.run_sequential(session.get()).checksum;
            workload_ms = s.stop();
        }
        {
            Span s(&log, "runtime.stop");
            session->stop();
            stop_ms = s.stop();
        }
        rss_after_stop = std::max(rss_after_stop, current_rss_mb());
        outcome.events = session->store().total_events();
        {
            Span s(&log, "core.analyze");
            outcome.analysis =
                dsspy::core::Dsspy(plan.config).analyze(*session, &pool);
            analyze_ms = s.stop();
        }
        outcome.session = std::move(session);
    }
    double render_ms = 0.0;
    {
        Span s(&log, "pipeline.render");
        err << app.name << ": checksum " << outcome.checksum << ", "
            << outcome.events << " events\n";
        if (!dsspy::pipeline::emit_reports(plan.outputs, outcome, out, err))
            outcome.exit_code = dsspy::pipeline::kExitRuntimeError;
        render_ms = s.stop();
    }
    layers.workload.push_back(workload_ms);
    layers.stop.push_back(stop_ms);
    layers.analyze.push_back(analyze_ms);
    layers.finish.push_back(finish_ms);
    layers.render.push_back(render_ms);
    layers.layer_sum.push_back(workload_ms + stop_ms + analyze_ms +
                               finish_ms + render_ms);
    layers.events = outcome.events;
    layers.instances = outcome.analysis ? outcome.analysis->total_instances()
                                        : outcome.stream->total_instances();
    return outcome;
}

void report_layers(const std::vector<AppInfo>& apps,
                   const std::map<std::string, Layers>& by_app,
                   double rss_after_stop, Result& result) {
    std::vector<double> workload, plain, stop, analyze, finish, render;
    double untraced_total = 0.0, layer_total = 0.0, extra_ms = 0.0,
           stop_total = 0.0;
    std::uint64_t events = 0;
    std::size_t instances = 0, samples = 0;
    for (const AppInfo& app : apps) {
        const Layers& l = by_app.at(app.name);
        const std::string sfx = "." + metric_suffix(app.name);
        const double n = static_cast<double>(l.events);
        samples = l.workload.size();
        const double w = median(l.workload), p = median(l.plain),
                     st = median(l.stop),
                     core = median(l.analyze) + median(l.finish);
        result.add("apps.workload_ms" + sfx, w, "ms", samples);
        result.add("apps.plain_ms" + sfx, p, "ms", l.plain.size());
        result.add("runtime.record_ns_per_event" + sfx, (w - p) * 1e6 / n,
                   "ns", samples);
        result.add("runtime.stop_ms" + sfx, st, "ms", samples);
        result.add("runtime.stop_ns_per_event" + sfx, st * 1e6 / n, "ns",
                   samples);
        result.add("core.analyze_ms" + sfx, core, "ms", samples);
        workload.push_back(w);
        plain.push_back(p);
        stop.push_back(st);
        analyze.push_back(median(l.analyze));
        finish.push_back(median(l.finish));
        render.push_back(median(l.render));
        untraced_total += median(l.untraced);
        layer_total += median(l.layer_sum);
        extra_ms += w - p;
        stop_total += st;
        events += l.events;
        instances += l.instances;
    }
    const double n_events = static_cast<double>(events);
    result.add("apps.workload_ms", mean(workload), "ms", samples);
    result.add("apps.plain_ms", mean(plain), "ms", samples);
    result.add("runtime.record_ns_per_event", extra_ms * 1e6 / n_events,
               "ns", samples);
    result.add("runtime.stop_ms", mean(stop), "ms", samples);
    result.add("runtime.stop_ns_per_event", stop_total * 1e6 / n_events,
               "ns", samples);
    result.add("runtime.rss_after_stop_mb", rss_after_stop, "MB", samples);
    result.add("runtime.events", n_events, "count");
    result.add("core.analyze_ms", mean(analyze), "ms", samples);
    result.add("core.finish_ms", mean(finish), "ms", samples);
    result.add("core.instances", static_cast<double>(instances), "count");
    result.add("pipeline.render_ms", mean(render), "ms", samples);
    result.add("bench.unattributed_pct",
               100.0 * (untraced_total - layer_total) / untraced_total, "%",
               samples * apps.size());
}

}  // namespace

Result run_apps_live(const Options& o) {
    Result result;
    const Digests digests(o.digests_path);
    const std::vector<AppInfo>& apps = dsspy::apps::evaluation_apps();
    const dsspy::pipeline::PipelineRunner runner;
    std::uint64_t rng = o.seed;

    // Set-up: create the default pool and page in every app's code and
    // data once, uninstrumented, plus one instrumented job of the
    // smallest app.
    const double setup_s = timed_setup([&] {
        (void)dsspy::par::ThreadPool::default_pool();
        for (const AppInfo& app : apps) (void)app.run_sequential(nullptr);
        std::ostringstream out, err;
        (void)runner.run(summary_plan(*dsspy::apps::find_app("Contentfinder")),
                         out, err);
    });
    reset_peak_rss();

    std::map<std::string, std::vector<double>> job_ms, plain_ms;
    std::map<std::string, Layers> layers;
    SpanLog log;
    double rss_after_stop = 0.0;
    std::vector<double> all_jobs;
    double wall_s = 0.0, events = 0.0;
    std::uint64_t jobs = 0;
    const std::uint64_t start = now_ns();
    // Traced runs time three variants per job, so they settle for fewer
    // rounds; the per-app medians need only a handful.
    const std::size_t min_jobs = o.trace ? 3 * apps.size() : kMinJobs;
    while (keep_measuring(start, o.seconds, jobs, min_jobs)) {
        for (const std::size_t i : seeded_order(apps.size(), rng)) {
            const AppInfo& app = apps[i];
            const RunPlan plan = summary_plan(app);

            const std::uint64_t t = now_ns();
            const double plain_checksum = app.run_sequential(nullptr).checksum;
            const double plain = static_cast<double>(now_ns() - t) / 1e6;

            // The untraced job.  Its outcome (the whole session) is freed
            // before a traced job runs; traced runs alternate which of the
            // two goes first.
            double wall = 0.0;
            std::uint64_t job_events = 0;
            std::string problem, traced_problem;
            const auto untraced_job = [&] {
                std::ostringstream out, err;
                const std::uint64_t t0 = now_ns();
                const RunOutcome outcome = runner.run(plan, out, err);
                wall = static_cast<double>(now_ns() - t0) / 1e6;
                problem = check_job(app, plain_checksum, outcome.ok(),
                                    outcome.checksum, out.str(), digests);
                job_events = outcome.events;
            };
            const auto decomposed_job = [&] {
                log.begin_job(jobs);
                std::ostringstream traced_out;
                const RunOutcome traced =
                    traced_job(app, plan, log, layers[app.name],
                               rss_after_stop, traced_out);
                traced_problem =
                    check_job(app, plain_checksum, traced.ok(),
                              traced.checksum, traced_out.str(), digests);
            };
            ++jobs;
            if (o.trace && jobs % 2 == 0) decomposed_job();
            untraced_job();
            if (o.trace && jobs % 2 == 1) decomposed_job();

            if (o.trace) {
                layers[app.name].untraced.push_back(wall);
                layers[app.name].plain.push_back(plain);
                if (problem.empty()) problem = traced_problem;
                result.job(problem.empty(), problem);
                continue;
            }
            result.job(problem.empty(), problem);
            job_ms[app.name].push_back(wall);
            plain_ms[app.name].push_back(plain);
            all_jobs.push_back(wall);
            wall_s += wall / 1e3;
            events += static_cast<double>(job_events);
        }
    }

    if (o.trace) {
        report_layers(apps, layers, rss_after_stop, result);
        (void)log.write_json(o.workdir + "/spans-apps_live.json");
        return result;
    }
    std::vector<double> ratios;
    for (const AppInfo& app : apps)
        ratios.push_back(median(job_ms[app.name]) /
                         median(plain_ms[app.name]));
    result.add("setup_s", setup_s, "s", kSetupReps);
    result.add("job_ms_p50", quantile(all_jobs, 0.5), "ms", all_jobs.size());
    result.add("job_ms_p90", quantile(all_jobs, 0.9), "ms", all_jobs.size());
    result.add("events_per_s", events / wall_s, "events/s", all_jobs.size());
    result.add("slowdown_x", geomean(ratios), "x", all_jobs.size());
    result.add("peak_rss_mb", peak_rss_mb(), "MB", all_jobs.size());
    return result;
}

}  // namespace perfbench
