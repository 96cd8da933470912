// trace_offline: one job is `dsspy analyze <trace>` through PipelineRunner
// over a seeded DST1 trace built once at set-up.  Each seeded group of
// four jobs holds three default `--summary` jobs (streaming decode plus
// incremental fold) and one `--plan` job (mmap columnar decode plus the
// SIMD analysis), so the median job is a default-engine job and the 90th
// percentile a post-mortem one.  No capture runs: decode and the detector
// kernels do the work.
//
// The trace skews instance sizes: two instances of more than 1M events
// each (larger than L2) and a 150K-event queue beside 300 small ones.
// Together they trigger all eight use cases, and events come from two
// threads.
// Timestamps are synthetic, so the same seed writes the same bytes.
//
// Checks: every job exits 0; the verdict digests of the two engines agree,
// and on the default seed they equal the committed digest.
#include <algorithm>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "core/dsspy.hpp"
#include "core/incremental.hpp"
#include "harness.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/report_sink.hpp"
#include "pipeline/runner.hpp"
#include "runtime/profile_store.hpp"
#include "runtime/trace_io.hpp"
#include "runtime/trace_mmap.hpp"

namespace perfbench {

namespace {

using dsspy::pipeline::EngineChoice;
using dsspy::pipeline::RunOutcome;
using dsspy::pipeline::RunPlan;
using dsspy::runtime::AccessEvent;
using dsspy::runtime::DsKind;
using dsspy::runtime::InstanceId;
using dsspy::runtime::OpKind;

// Hundreds, not thousands: IncrementalAnalyzer::declare_instance grows its
// state vector one slot at a time, so the default engine copies a
// quadratic number of bytes in the instance count.  At 3,000 instances a
// job took over a second; at 800 that copying made job times swing with
// the host's memory bandwidth.
constexpr std::size_t kSmallInstances = 300;
constexpr std::uint32_t kBigEvents = 1'050'000;

/// Builds the trace in memory with synthetic, deterministic timestamps.
class TraceBuilder {
public:
    InstanceId add(DsKind kind, const char* type, std::uint32_t line) {
        dsspy::runtime::InstanceInfo info;
        info.id = static_cast<InstanceId>(instances_.size());
        info.kind = kind;
        info.type_name = type;
        info.location = {"Bench.Offline", "Run", line};
        instances_.push_back(info);
        return info.id;
    }

    void emit(InstanceId id, OpKind op, std::int64_t position,
              std::uint32_t size) {
        AccessEvent ev;
        ev.seq = seq_++;
        ev.time_ns = ev.seq * 40;
        ev.position = position;
        ev.instance = id;
        ev.size = size;
        ev.op = op;
        // A big instance's events alternate between the two threads in
        // 64K-event runs.
        ev.thread = alternate_ ? static_cast<dsspy::runtime::ThreadId>(
                                     (ev.seq >> 16) & 1)
                               : thread_;
        buffer_.push_back(ev);
        if (buffer_.size() >= (1u << 16)) flush();
    }

    /// Events from here on come from `thread` (0 or 1), or from both
    /// when `alternate`.
    void set_thread(dsspy::runtime::ThreadId thread, bool alternate = false) {
        thread_ = thread;
        alternate_ = alternate;
    }

    void flush() {
        store_.append(buffer_);
        buffer_.clear();
    }

    [[nodiscard]] std::uint64_t events() const { return seq_; }

    /// Write DST1 to `path`; returns false on I/O failure.
    bool write(const std::string& path) {
        flush();
        store_.finalize();
        return dsspy::runtime::write_trace_file(
            path, instances_, store_, dsspy::runtime::TraceFormat::Binary);
    }

private:
    std::vector<dsspy::runtime::InstanceInfo> instances_;
    dsspy::runtime::ProfileStore store_;
    std::vector<AccessEvent> buffer_;
    std::uint64_t seq_ = 0;
    dsspy::runtime::ThreadId thread_ = 0;
    bool alternate_ = false;
};

/// One instance whose events follow one use-case shape.  Small instances
/// draw their phase lengths from `rng`; the big ones have fixed lengths of
/// at least kBigEvents, so every seed costs about the same to analyze.
void emit_instance(TraceBuilder& b, unsigned shape, std::uint64_t& rng,
                   std::uint32_t line, bool big) {
    const auto rand_in = [&rng](std::uint32_t lo, std::uint32_t hi) {
        return lo + static_cast<std::uint32_t>(next_random(rng) % (hi - lo));
    };
    std::uint32_t size = 0;
    const auto add_n = [&](InstanceId id, std::uint32_t n) {
        for (std::uint32_t k = 0; k < n; ++k) {
            b.emit(id, OpKind::Add, size, size + 1);
            ++size;
        }
    };
    const auto sweep = [&](InstanceId id) {
        for (std::uint32_t p = 0; p < size; ++p)
            b.emit(id, OpKind::Get, p, size);
    };
    switch (shape % 8) {
        case 0: {  // Long-Insert.
            const InstanceId id = b.add(DsKind::List, "List<Int64>", line);
            add_n(id, rand_in(120, 400));
            for (std::uint32_t k = 0; k < 20; ++k)
                b.emit(id, OpKind::Get, k % size, size);
            break;
        }
        case 1: {  // Sort-After-Insert.
            const InstanceId id = b.add(DsKind::List, "List<Int32>", line);
            add_n(id, rand_in(150, 350));
            b.emit(id, OpKind::Sort, dsspy::runtime::kWholeContainer, size);
            break;
        }
        case 2: {  // Implement-Queue: append at the back, pop the front.
            const InstanceId id = b.add(DsKind::List, "List<Job>", line);
            add_n(id, 16);
            const std::uint32_t n = big ? kBigEvents / 28 : rand_in(30, 80);
            for (std::uint32_t k = 0; k < n; ++k) {
                b.emit(id, OpKind::Add, size, size + 1);
                ++size;
                b.emit(id, OpKind::Get, 0, size);
                b.emit(id, OpKind::Get, size - 1, size);
                --size;
                b.emit(id, OpKind::RemoveAt, 0, size);
            }
            break;
        }
        case 3: {  // Frequent-Search with forward read sweeps.
            const InstanceId id = b.add(DsKind::List, "List<String>", line);
            add_n(id, 64);
            const std::uint32_t searches =
                big ? kBigEvents : rand_in(1100, 1600);
            for (std::uint32_t k = 0; k < searches; ++k) {
                b.emit(id, OpKind::IndexOf,
                       static_cast<std::int64_t>(next_random(rng) % size),
                       size);
                if (k % 512 == 0) sweep(id);
            }
            break;
        }
        case 4: {  // Frequent-Long-Read: repeated whole sweeps.
            const InstanceId id = b.add(DsKind::Array, "Double[]", line);
            add_n(id, big ? 14000 : rand_in(24, 64));
            const std::uint32_t sweeps =
                big ? kBigEvents / size + 1 : rand_in(12, 20);
            for (std::uint32_t k = 0; k < sweeps; ++k) sweep(id);
            break;
        }
        case 5: {  // Insert/Delete-Front.
            const InstanceId id = b.add(DsKind::List, "List<Int64>", line);
            add_n(id, 8);
            const std::uint32_t n = rand_in(55, 90);
            for (std::uint32_t k = 0; k < n; ++k) {
                b.emit(id, OpKind::InsertAt, 0, size + 1);
                ++size;
            }
            for (std::uint32_t k = 0; k < n; ++k) {
                --size;
                b.emit(id, OpKind::RemoveAt, 0, size);
            }
            break;
        }
        case 6: {  // Stack-Implementation: push and pop at the back.
            const InstanceId id = b.add(DsKind::List, "List<Frame>", line);
            const std::uint32_t n = rand_in(20, 60);
            for (std::uint32_t k = 0; k < n; ++k) {
                b.emit(id, OpKind::Add, size, size + 1);
                ++size;
                b.emit(id, OpKind::Add, size, size + 1);
                ++size;
                --size;
                b.emit(id, OpKind::RemoveAt, size, size);
            }
            break;
        }
        default: {  // Write-Without-Read: a covering write tail.
            const InstanceId id = b.add(DsKind::Array, "Int32[]", line);
            add_n(id, rand_in(20, 120));
            for (std::uint32_t p = 0; p < size; ++p)
                b.emit(id, OpKind::Set, p, size);
            break;
        }
    }
}

struct TraceFile {
    std::string path;
    std::uint64_t bytes = 0;
    std::uint64_t events = 0;
};

/// Generate the seeded trace; the same seed writes the same bytes.
TraceFile generate_trace(const Options& o) {
    TraceBuilder b;
    std::uint64_t rng = o.seed * 0x9e3779b97f4a7c15ull + 17;
    std::uint32_t line = 1;
    const auto small = [&](std::size_t count) {
        for (std::size_t i = 0; i < count; ++i) {
            b.set_thread(static_cast<dsspy::runtime::ThreadId>(line % 2));
            emit_instance(b, static_cast<unsigned>(next_random(rng) % 8), rng,
                          line++, false);
        }
    };
    small(kSmallInstances / 2);
    // The big instances: a queue, then a search-heavy list and a
    // read-heavy array of more than kBigEvents events each, each recorded
    // from both threads.
    for (const unsigned shape : {2u, 3u, 4u}) {
        b.set_thread(0, true);
        emit_instance(b, shape, rng, line++, true);
    }
    small(kSmallInstances - kSmallInstances / 2);

    TraceFile file;
    file.path = o.workdir + "/trace.dst1";  // Overwritten by the next run.
    if (!b.write(file.path))
        throw std::runtime_error("cannot write " + file.path);
    file.bytes = std::filesystem::file_size(file.path);
    file.events = b.events();
    return file;
}

/// Both engines' verdicts reduce to the same lines: instance id, use case
/// and its rendered evidence.  Sorted, so engine iteration order is moot.
template <typename Report>
std::string verdict_digest(const Report& report) {
    std::vector<std::string> lines;
    for (const dsspy::core::UseCase& uc : report.all_use_cases()) {
        std::ostringstream line;
        line << uc.instance.id << ' '
             << dsspy::core::use_case_name(uc.kind) << ' ' << uc.reason()
             << ' ' << uc.confidence();
        lines.push_back(line.str());
    }
    std::sort(lines.begin(), lines.end());
    std::string all;
    for (const std::string& l : lines) all += l + '\n';
    return digest_hex(all);
}

std::string outcome_digest(const RunOutcome& outcome) {
    if (outcome.analysis) return verdict_digest(*outcome.analysis);
    if (outcome.stream) return verdict_digest(*outcome.stream);
    return "no-result";
}

/// Use-case kinds present in a report (all eight should be).
template <typename Report>
std::size_t kinds_present(const Report& report) {
    std::size_t n = 0;
    for (const std::size_t count : report.use_case_counts()) n += count > 0;
    return n;
}

RunPlan trace_plan(const std::string& path, bool plan_output) {
    RunPlan plan;
    plan.input = dsspy::pipeline::InputKind::TraceFile;
    plan.target = path;
    if (plan_output) {
        plan.outputs.plan = true;
    } else {
        plan.outputs.summary = true;
    }
    return plan;
}

/// The benchmark's own TraceSink: what the runner's sink does, with the
/// analyzer's declare and fold calls timed (core.fold) apart from the
/// decode around them.
class TimedSink final : public dsspy::runtime::TraceSink {
public:
    explicit TimedSink(dsspy::core::IncrementalAnalyzer& analyzer)
        : analyzer_(analyzer) {}
    void on_instance(const dsspy::runtime::InstanceInfo& info) override {
        instances.push_back(info);
        const std::uint64_t t = now_ns();
        analyzer_.declare_instance(info);
        fold_ns += now_ns() - t;
    }
    void on_events(std::span<const AccessEvent> events) override {
        const std::uint64_t t = now_ns();
        analyzer_.fold(events);
        fold_ns += now_ns() - t;
    }
    std::vector<dsspy::runtime::InstanceInfo> instances;
    std::uint64_t fold_ns = 0;

private:
    dsspy::core::IncrementalAnalyzer& analyzer_;
};

struct Layers {
    std::vector<double> untraced, layer_sum, decode, fold, finish, analyze,
        render;
};

/// The traced decomposition of one job, following the branch
/// PipelineRunner::run_trace takes for `plan`.
RunOutcome traced_job(const RunPlan& plan, SpanLog& log, Layers& l) {
    std::ostringstream out, err;
    RunOutcome outcome;
    outcome.label = plan.display_name();
    dsspy::par::ThreadPool& pool = dsspy::par::ThreadPool::default_pool();
    double decode = 0.0, fold = 0.0, finish = 0.0, analyze = 0.0;
    if (plan.resolved_engine() == EngineChoice::Incremental) {
        dsspy::core::IncrementalAnalyzer incremental(plan.config);
        TimedSink sink(incremental);
        {
            Span s(&log, "runtime.decode");
            outcome.events =
                dsspy::runtime::read_trace_stream_file(plan.target, sink);
            fold = static_cast<double>(sink.fold_ns) / 1e6;
            decode = s.stop() - fold;
        }
        {
            Span s(&log, "core.finish");
            outcome.stream = incremental.finish(sink.instances);
            finish = s.stop();
        }
    } else if (plan.trace_out.empty() && plan.outputs.html_path.empty() &&
               dsspy::runtime::is_binary_trace_file(plan.target)) {
        auto columns = std::make_unique<dsspy::runtime::ColumnTrace>();
        {
            Span s(&log, "runtime.decode");
            *columns =
                dsspy::runtime::read_trace_columns_file(plan.target, &pool);
            decode = s.stop();
        }
        outcome.events = columns->columns.total_events();
        {
            Span s(&log, "core.analyze");
            outcome.analysis = dsspy::core::Dsspy(plan.config)
                                   .analyze(columns->instances,
                                            columns->columns, &pool);
            analyze = s.stop();
        }
        outcome.column_trace = std::move(columns);
    } else {
        outcome.exit_code = dsspy::pipeline::kExitRuntimeError;
        outcome.error = "runner path not covered by the traced run";
        return outcome;
    }
    double render = 0.0;
    {
        Span s(&log, "pipeline.render");
        if (!dsspy::pipeline::emit_reports(plan.outputs, outcome, out, err))
            outcome.exit_code = dsspy::pipeline::kExitRuntimeError;
        render = s.stop();
    }
    l.decode.push_back(decode);
    l.fold.push_back(fold);
    l.finish.push_back(finish);
    l.analyze.push_back(analyze);
    l.render.push_back(render);
    l.layer_sum.push_back(decode + fold + finish + analyze + render);
    return outcome;
}

/// Counts what the streaming decoder delivers and does nothing else.
class CountingSink final : public dsspy::runtime::TraceSink {
public:
    void on_instance(const dsspy::runtime::InstanceInfo&) override {}
    void on_events(std::span<const AccessEvent> events) override {
        count += events.size();
    }
    std::uint64_t count = 0;
};

/// Plain counterpart of a job: decode the trace without analyzing it.
/// Returns the wall time in ms, or -1 when events went missing.
double decode_only_ms(const TraceFile& trace) {
    CountingSink sink;
    const std::uint64_t t = now_ns();
    dsspy::runtime::read_trace_stream_file(trace.path, sink);
    const double ms = static_cast<double>(now_ns() - t) / 1e6;
    return sink.count == trace.events ? ms : -1.0;
}

}  // namespace

Result run_trace_offline(const Options& o) {
    Result result;
    const Digests digests(o.digests_path);
    const dsspy::pipeline::PipelineRunner runner;
    TraceFile trace;
    const double setup_s = timed_setup([&] {
        (void)dsspy::par::ThreadPool::default_pool();
        trace = generate_trace(o);
        for (const bool plan_output : {false, true}) {
            std::ostringstream out, err;
            (void)runner.run(trace_plan(trace.path, plan_output), out, err);
        }
    });
    reset_peak_rss();

    const std::string committed = o.seed == kDefaultSeed
                                      ? digests.get("trace_offline.seed1")
                                      : std::string{};
    std::string first_digest;
    std::uint64_t events = 0;
    std::size_t instances = 0, kinds = 0;
    // Index 0: default (--summary) jobs, 1: --plan jobs.
    std::vector<double> job_ms[2], decode_ms, all_jobs;
    Layers layers[2];
    SpanLog log;
    double wall_s = 0.0, analyzed = 0.0;
    std::uint64_t rng = o.seed, jobs = 0;
    const std::uint64_t start = now_ns();
    const std::size_t min_jobs = o.trace ? 12 : kMinJobs;
    while (keep_measuring(start, o.seconds, jobs, min_jobs)) {
        decode_ms.push_back(decode_only_ms(trace));
        if (decode_ms.back() < 0.0) result.job(false, "decode lost events");
        for (const std::size_t slot : seeded_order(4, rng)) {
            const int kind = slot == 0 ? 1 : 0;
            const RunPlan plan = trace_plan(trace.path, kind == 1);
            ++jobs;
            // Traced runs alternate which of the runner's job and the
            // decomposition goes first.
            std::string problem, traced_digest;
            const auto decomposed_job = [&] {
                log.begin_job(jobs);
                const RunOutcome traced = traced_job(plan, log, layers[kind]);
                if (!traced.ok()) problem = "traced job: " + traced.error;
                traced_digest = outcome_digest(traced);
            };
            if (o.trace && jobs % 2 == 0) decomposed_job();
            std::ostringstream out, err;
            const std::uint64_t t = now_ns();
            const RunOutcome outcome = runner.run(plan, out, err);
            const double wall = static_cast<double>(now_ns() - t) / 1e6;
            if (o.trace && jobs % 2 == 1) decomposed_job();

            const std::string digest = outcome_digest(outcome);
            if (o.trace) {
                layers[kind].untraced.push_back(wall);
                if (problem.empty() && traced_digest != digest)
                    problem = "traced verdicts differ from the runner's";
            }
            if (!outcome.ok()) problem = "job failed: " + outcome.error;
            if (first_digest.empty()) first_digest = digest;
            if (problem.empty() && digest != first_digest)
                problem = "verdict digests of the two engines differ";
            if (problem.empty() && !committed.empty() && digest != committed)
                problem = "verdict digest " + digest + " != committed " +
                          committed;
            if (problem.empty() && o.seed == kDefaultSeed && committed.empty())
                problem = "no committed digest (trace_offline.seed1 " +
                          digest + ")";
            if (kind == 1 && outcome.analysis) {
                instances = outcome.analysis->total_instances();
                kinds = kinds_present(*outcome.analysis);
                if (problem.empty() && kinds != 8)
                    problem = "trace triggers " + std::to_string(kinds) +
                              " of the 8 use cases";
            }
            events = outcome.events;
            result.job(problem.empty(), problem);
            job_ms[kind].push_back(wall);
            all_jobs.push_back(wall);
            wall_s += wall / 1e3;
            analyzed += static_cast<double>(outcome.events);
        }
    }

    if (o.trace) {
        // Layer times per job over the 3:1 mix.
        const auto mix = [&](auto member) {
            return (3.0 * median(layers[0].*member) +
                    median(layers[1].*member)) /
                   4.0;
        };
        const double decode = mix(&Layers::decode);
        const std::size_t samples =
            layers[0].untraced.size() + layers[1].untraced.size();
        result.add("runtime.decode_ms", decode, "ms", samples);
        result.add("runtime.decode_mb_per_s",
                   static_cast<double>(trace.bytes) / 1e6 / (decode / 1e3),
                   "MB/s", samples);
        result.add("runtime.trace_bytes", static_cast<double>(trace.bytes),
                   "bytes");
        result.add("runtime.events", static_cast<double>(events), "count");
        result.add("core.fold_ms", median(layers[0].fold), "ms",
                   layers[0].fold.size());
        result.add("core.finish_ms", median(layers[0].finish), "ms",
                   layers[0].finish.size());
        result.add("core.analyze_ms", median(layers[1].analyze), "ms",
                   layers[1].analyze.size());
        result.add("core.instances", static_cast<double>(instances), "count");
        result.add("pipeline.render_ms", mix(&Layers::render), "ms", samples);
        const double untraced = mix(&Layers::untraced);
        result.add("bench.unattributed_pct",
                   100.0 * (untraced - mix(&Layers::layer_sum)) / untraced,
                   "%", samples);
        (void)log.write_json(o.workdir + "/spans-trace_offline.json");
        return result;
    }
    const double decode = median(decode_ms);
    result.add("setup_s", setup_s, "s", kSetupReps);
    result.add("job_ms_p50", quantile(all_jobs, 0.5), "ms", all_jobs.size());
    result.add("job_ms_p90", quantile(all_jobs, 0.9), "ms", all_jobs.size());
    result.add("events_per_s", analyzed / wall_s, "events/s",
               all_jobs.size());
    result.add("slowdown_x",
               geomean({median(job_ms[0]) / decode,
                        median(job_ms[1]) / decode}),
               "x", all_jobs.size());
    result.add("peak_rss_mb", peak_rss_mb(), "MB", all_jobs.size());
    return result;
}

}  // namespace perfbench
