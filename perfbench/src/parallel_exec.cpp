// parallel_exec: one job runs an app's recommended parallelization,
// run_parallel(pool) at pool width min(nproc, 4), paired with the original
// sequential program, run_sequential(nullptr).  Apps run in seeded rounds;
// which half of a pair runs first alternates.  Capture and analysis are
// bypassed: this is the paper's payoff claim (Table IV's measured speedup)
// and stresses parallel/ alone.
//
// Check: the parallel checksum equals the sequential one up to the
// floating-point reassociation a parallel reduction may apply (relative
// 1e-6, the tolerance the app tests use).
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <thread>

#include "apps/app_registry.hpp"
#include "harness.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/session.hpp"

namespace perfbench {

namespace {

using dsspy::apps::AppInfo;

unsigned pool_width() {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    return std::min(n, 4u);
}

bool checksums_match(double seq, double par) {
    return std::abs(par - seq) <= 1e-6 * std::max(1.0, std::abs(seq));
}

struct PerApp {
    std::vector<double> seq, par, untraced, sim;
    double events = 0.0;
};

}  // namespace

Result run_parallel_exec(const Options& o) {
    Result result;
    const std::vector<AppInfo>& apps = dsspy::apps::evaluation_apps();
    const unsigned width = pool_width();

    // The unit of work for events_per_s: the access events each app emits
    // when profiled.  Counted once, before set-up; the count is fixed per
    // app and does not depend on the parallel layer.
    std::map<std::string, PerApp> per_app;
    for (const AppInfo& app : apps) {
        dsspy::runtime::ProfilingSession session;
        (void)app.run_sequential(&session);
        session.stop();
        per_app[app.name].events =
            static_cast<double>(session.events_recorded());
    }

    std::unique_ptr<dsspy::par::ThreadPool> pool;
    const double setup_s = timed_setup([&] {
        pool = std::make_unique<dsspy::par::ThreadPool>(width);
        for (const AppInfo& app : apps) {
            (void)app.run_sequential(nullptr);
            (void)app.run_parallel(*pool);
        }
    });
    reset_peak_rss();

    SpanLog log;
    std::vector<double> all_jobs;
    double wall_s = 0.0, events = 0.0;
    std::uint64_t rng = o.seed, jobs = 0;
    const std::uint64_t start = now_ns();
    const std::size_t min_jobs = o.trace ? 5 * apps.size() : kMinJobs;
    while (keep_measuring(start, o.seconds, jobs, min_jobs)) {
        for (const std::size_t i : seeded_order(apps.size(), rng)) {
            const AppInfo& app = apps[i];
            PerApp& a = per_app[app.name];
            const bool seq_first = jobs % 2 == 0;
            ++jobs;
            double seq_checksum = 0.0, par_checksum = 0.0;
            double seq_ms = 0.0, par_ms = 0.0;
            SpanLog* spans = o.trace ? &log : nullptr;
            log.begin_job(jobs);
            const std::uint64_t job_start = now_ns();
            for (int half = 0; half < 2; ++half) {
                if ((half == 0) == seq_first) {
                    Span s(spans, "parallel.seq");
                    seq_checksum = app.run_sequential(nullptr).checksum;
                    seq_ms = s.stop();
                } else {
                    Span s(spans, "parallel.par");
                    par_checksum = app.run_parallel(*pool).checksum;
                    par_ms = s.stop();
                }
            }
            const double wall =
                static_cast<double>(now_ns() - job_start) / 1e6;
            const bool ok = checksums_match(seq_checksum, par_checksum);
            result.job(ok, app.name + ": parallel checksum differs");
            a.seq.push_back(seq_ms);
            a.par.push_back(par_ms);
            a.untraced.push_back(wall);
            all_jobs.push_back(wall);
            wall_s += wall / 1e3;
            events += a.events;
            if (o.trace) {
                // The simulator's projection for the same width, whose
                // error against the measured parallel wall is the
                // calibration target.
                Span s(&log, "parallel.simulate");
                a.sim.push_back(
                    static_cast<double>(app.run_simulated(width).total_ns) /
                    1e6);
            }
        }
    }

    if (o.trace) {
        std::vector<double> seq, par, sim, speedups, errors;
        double untraced = 0.0, layers = 0.0;
        std::size_t samples = 0;
        for (const AppInfo& app : apps) {
            const PerApp& a = per_app[app.name];
            const std::string sfx = "." + metric_suffix(app.name);
            samples = a.seq.size();
            const double s = median(a.seq), p = median(a.par),
                         m = median(a.sim);
            const double error = 100.0 * std::abs(m - p) / p;
            result.add("parallel.seq_ms" + sfx, s, "ms", samples);
            result.add("parallel.par_ms" + sfx, p, "ms", samples);
            result.add("parallel.sim_error_pct" + sfx, error, "%", samples);
            seq.push_back(s);
            par.push_back(p);
            sim.push_back(m);
            speedups.push_back(s / p);
            errors.push_back(error);
            untraced += median(a.untraced);
            layers += s + p;
        }
        result.add("parallel.seq_ms", mean(seq), "ms", samples);
        result.add("parallel.par_ms", mean(par), "ms", samples);
        result.add("parallel.speedup_x", geomean(speedups), "x", samples);
        result.add("parallel.sim_ms", mean(sim), "ms", samples);
        result.add("parallel.sim_error_pct", mean(errors), "%", samples);
        result.add("bench.unattributed_pct",
                   100.0 * (untraced - layers) / untraced, "%",
                   samples * apps.size());
        (void)log.write_json(o.workdir + "/spans-parallel_exec.json");
        return result;
    }
    std::vector<double> ratios;
    for (const AppInfo& app : apps)
        ratios.push_back(median(per_app[app.name].par) /
                         median(per_app[app.name].seq));
    result.add("setup_s", setup_s, "s", kSetupReps);
    result.add("job_ms_p50", quantile(all_jobs, 0.5), "ms", all_jobs.size());
    result.add("job_ms_p90", quantile(all_jobs, 0.9), "ms", all_jobs.size());
    result.add("events_per_s", events / wall_s, "events/s", all_jobs.size());
    result.add("slowdown_x", geomean(ratios), "x", all_jobs.size());
    result.add("peak_rss_mb", peak_rss_mb(), "MB", all_jobs.size());
    return result;
}

}  // namespace perfbench
