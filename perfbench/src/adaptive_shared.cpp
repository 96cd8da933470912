// adaptive_shared: a multi-threaded user program.  kMutators threads run
// seeded op lists against one shared AdaptiveList and one shared
// AdaptiveDictionary, in four phases separated by barriers: load, search,
// queue and long-read.  Each thread also writes to its own ProfiledLists
// in one default-constructed ProfilingSession, so several per-thread runs
// merge at stop().  A job ends with stop(), the analysis and the summary.
//
// Mutators plus the default pool's width stay within nproc: the pool that
// the Parallel strategy and the analysis use gets nproc - kMutators.
//
// Every op touches only values and keys the thread owns, and the long-read
// phase has no writers, so each thread's read results and the final
// contents are independent of the interleaving.  Check: they equal a
// single-threaded replay of the same op lists on plain containers, which
// is also the slowdown's denominator.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <exception>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "adapt/adaptive_dictionary.hpp"
#include "adapt/adaptive_list.hpp"
#include "core/dsspy.hpp"
#include "ds/list.hpp"
#include "ds/profiled_list.hpp"
#include "harness.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/report_sink.hpp"
#include "pipeline/run_plan.hpp"
#include "runtime/session.hpp"

namespace perfbench {

namespace {

constexpr unsigned kMutators = 2;
constexpr std::size_t kLoad = 1024;        ///< Values loaded per thread.
constexpr std::size_t kSearchOps = 3000;   ///< Per thread.
constexpr std::size_t kQueueOps = 800;    ///< Per thread.
constexpr std::size_t kReadRounds = 16;    ///< Per thread.
constexpr std::size_t kSampleEvery = 16;   ///< Traced op-latency sampling.
constexpr std::size_t kPhases = 4;

enum class Op : std::uint8_t {
    ListAdd,
    ListRemove,
    ListContains,
    ListForEach,
    DictSet,
    DictRemove,
    DictGet,
    DictFindKey,
    DictForEach,
    LogAdd,     ///< The thread's own ProfiledList "log".
    LogGet,
    LogSweep,
    QueuePush,  ///< The thread's own ProfiledList "queue".
    QueuePop,
};

struct Step {
    Op op;
    long arg;
};

/// One thread's op list, one vector per phase.
using Script = std::array<std::vector<Step>, kPhases>;

long value_of(std::size_t k, unsigned t) {
    return static_cast<long>((k * kMutators + t) * 7 + 1);
}
long key_of(std::size_t k, unsigned t) {
    return static_cast<long>(k * kMutators + t);
}
long dict_value(long key) { return key * 11 + 5; }

bool is_adaptive(Op op) { return op < Op::LogAdd; }

/// Seeded op lists.  The generator tracks which of the thread's own values
/// and keys are present, so reads hit present entries.
Script make_script(unsigned t, std::uint64_t seed) {
    std::uint64_t rng = seed * 0x9e3779b97f4a7c15ull + t + 1;
    Script s;
    std::vector<long> values, keys;  // Present, oldest first.
    std::size_t next_value = 0, next_key = 0, log_size = 0, head = 0,
                key_head = 0;
    const auto pick = [&rng](const std::vector<long>& v, std::size_t from) {
        return v[from + next_random(rng) % (v.size() - from)];
    };

    for (std::size_t k = 0; k < kLoad; ++k) {
        values.push_back(value_of(next_value++, t));
        keys.push_back(key_of(next_key++, t));
        s[0].push_back({Op::ListAdd, values.back()});
        s[0].push_back({Op::DictSet, keys.back()});
        s[0].push_back({Op::LogAdd, values.back()});
        ++log_size;
        if (k % 16 == 15)
            s[0].push_back({Op::ListContains, pick(values, 0)});
    }
    for (std::size_t k = 0; k < kSearchOps; ++k) {
        const std::uint64_t r = next_random(rng) % 10;
        if (r < 4) {
            s[1].push_back({Op::ListContains, pick(values, head)});
        } else if (r < 6) {
            s[1].push_back({Op::DictFindKey, dict_value(pick(keys, key_head))});
        } else if (r < 8) {
            s[1].push_back({Op::DictGet, pick(keys, key_head)});
        } else if (r < 9) {
            values.push_back(value_of(next_value++, t));
            s[1].push_back({Op::ListAdd, values.back()});
        } else {
            keys.push_back(key_of(next_key++, t));
            s[1].push_back({Op::DictSet, keys.back()});
        }
        if (k % 4 == 0)
            s[1].push_back({Op::LogGet, static_cast<long>(
                                            next_random(rng) % log_size)});
    }
    for (std::size_t k = 0; k < kQueueOps; ++k) {
        values.push_back(value_of(next_value++, t));
        s[2].push_back({Op::ListAdd, values.back()});
        s[2].push_back({Op::ListRemove, values[head++]});
        keys.push_back(key_of(next_key++, t));
        s[2].push_back({Op::DictSet, keys.back()});
        s[2].push_back({Op::DictRemove, keys[key_head++]});
        s[2].push_back({Op::QueuePush, static_cast<long>(k)});
        if (k % 2 == 1) {
            s[2].push_back({Op::QueuePop, 0});
            s[2].push_back({Op::QueuePop, 0});
        }
        if (k % 8 == 0)
            s[2].push_back({Op::ListContains, pick(values, head)});
    }
    for (std::size_t k = 0; k < kReadRounds; ++k) {
        s[3].push_back({Op::ListForEach, 0});
        if (k % 2 == 0) s[3].push_back({Op::DictForEach, 0});
        s[3].push_back({Op::LogSweep, 0});
    }
    return s;
}

/// The containers one job runs against: adaptive ones shared by all
/// threads plus each thread's profiled lists, or plain ones for the
/// replay.
template <typename ListT, typename DictT, typename LogT>
struct Containers {
    ListT list;
    DictT dict;
    std::vector<std::unique_ptr<LogT>> logs, queues;  // One per thread.
};

/// The plain dictionary a programmer writes first: a position map for
/// keys, a linear scan for value -> key (closed_loop's PlainWordIndex
/// with an order-preserving remove).
struct PlainDict {
    std::vector<std::pair<long, long>> entries;
    std::unordered_map<long, std::size_t> pos;

    void set(long key, long value) {
        const auto it = pos.find(key);
        if (it != pos.end()) {
            entries[it->second].second = value;
            return;
        }
        pos[key] = entries.size();
        entries.emplace_back(key, value);
    }
    [[nodiscard]] long get(long key) const {
        return entries[pos.at(key)].second;
    }
    [[nodiscard]] std::optional<long> find_key(long value) const {
        for (const auto& [k, v] : entries)
            if (v == value) return k;
        return std::nullopt;
    }
    bool remove(long key) {
        const auto it = pos.find(key);
        if (it == pos.end()) return false;
        const std::size_t idx = it->second;
        pos.erase(it);
        entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(idx));
        for (std::size_t i = idx; i < entries.size(); ++i)
            pos[entries[i].first] = i;
        return true;
    }
    template <typename Fn>
    void for_each(Fn fn) const {
        for (const auto& [k, v] : entries) fn(k, v);
    }
};

/// Execute one step; folds its read result into `checksum`.
template <typename C>
void run_step(C& c, unsigned t, const Step& step, std::uint64_t& checksum) {
    const auto mix = [&checksum](std::uint64_t v) {
        checksum = checksum * 1099511628211ull + v;
    };
    auto& log = *c.logs[t];
    auto& queue = *c.queues[t];
    switch (step.op) {
        case Op::ListAdd: c.list.add(step.arg); break;
        case Op::ListRemove: mix(c.list.remove(step.arg)); break;
        case Op::ListContains: mix(c.list.contains(step.arg)); break;
        case Op::ListForEach: {
            std::atomic<long long> sum{0};
            c.list.for_each([&sum](long v) {
                sum.fetch_add(v, std::memory_order_relaxed);
            });
            mix(static_cast<std::uint64_t>(sum.load()));
            break;
        }
        case Op::DictSet: c.dict.set(step.arg, dict_value(step.arg)); break;
        case Op::DictRemove: mix(c.dict.remove(step.arg)); break;
        case Op::DictGet:
            mix(static_cast<std::uint64_t>(c.dict.get(step.arg)));
            break;
        case Op::DictFindKey: {
            const std::optional<long> key = c.dict.find_key(step.arg);
            mix(key ? static_cast<std::uint64_t>(*key) : ~0ull);
            break;
        }
        case Op::DictForEach: {
            std::atomic<long long> sum{0};
            c.dict.for_each([&sum](long k, long v) {
                sum.fetch_add(k ^ v, std::memory_order_relaxed);
            });
            mix(static_cast<std::uint64_t>(sum.load()));
            break;
        }
        case Op::LogAdd: log.add(step.arg); break;
        case Op::LogGet:
            mix(static_cast<std::uint64_t>(
                log.get(static_cast<std::size_t>(step.arg))));
            break;
        case Op::LogSweep: {
            long long sum = 0;
            for (std::size_t i = 0; i < log.count(); ++i) sum += log.get(i);
            mix(static_cast<std::uint64_t>(sum));
            break;
        }
        case Op::QueuePush: queue.add(step.arg); break;
        case Op::QueuePop:
            mix(static_cast<std::uint64_t>(queue.get(0)));
            queue.remove_at(0);
            break;
    }
}

/// What a job or the replay leaves behind, compared between the two.
struct Outcome {
    std::array<std::uint64_t, kMutators> checksums{};
    std::vector<long> list;                      ///< Sorted.
    std::vector<std::pair<long, long>> dict;     ///< Sorted.
    std::vector<std::vector<long>> logs, queues;

    friend bool operator==(const Outcome&, const Outcome&) = default;
};

/// The list behind a per-thread container, read without recording
/// events (the session has stopped by then).
const dsspy::ds::List<long>& unrecorded(const dsspy::ds::List<long>& l) {
    return l;
}
const dsspy::ds::List<long>& unrecorded(
    const dsspy::ds::ProfiledList<long>& l) {
    return l.raw();
}

template <typename C>
void collect(C& c, Outcome& out) {
    c.list.for_each([&out](long v) { out.list.push_back(v); });
    c.dict.for_each([&out](long k, long v) { out.dict.emplace_back(k, v); });
    std::sort(out.list.begin(), out.list.end());
    std::sort(out.dict.begin(), out.dict.end());
    for (unsigned t = 0; t < kMutators; ++t) {
        out.logs.emplace_back();
        out.queues.emplace_back();
        for (const long v : unrecorded(*c.logs[t]))
            out.logs.back().push_back(v);
        for (const long v : unrecorded(*c.queues[t]))
            out.queues.back().push_back(v);
    }
}

using PlainContainers = Containers<dsspy::ds::List<long>, PlainDict,
                                   dsspy::ds::List<long>>;
using LiveContainers =
    Containers<dsspy::adapt::AdaptiveList<long>,
               dsspy::adapt::AdaptiveDictionary<long, long>,
               dsspy::ds::ProfiledList<long>>;

/// Single-threaded replay: each phase runs thread 0's ops, then thread
/// 1's, on plain containers.
Outcome replay(const std::array<Script, kMutators>& scripts) {
    PlainContainers c;
    for (unsigned t = 0; t < kMutators; ++t) {
        c.logs.push_back(std::make_unique<dsspy::ds::List<long>>());
        c.queues.push_back(std::make_unique<dsspy::ds::List<long>>());
    }
    Outcome out;
    for (std::size_t p = 0; p < kPhases; ++p)
        for (unsigned t = 0; t < kMutators; ++t)
            for (const Step& step : scripts[t][p])
                run_step(c, t, step, out.checksums[t]);
    collect(c, out);
    return out;
}

/// Per-job measurements.
struct JobStats {
    double mutators_ms = 0.0, stop_ms = 0.0, analyze_ms = 0.0,
           render_ms = 0.0, wall_ms = 0.0;
    std::uint64_t session_events = 0, folded_events = 0;
    std::size_t instances = 0, switches = 0;
    std::vector<double> op_ns;  ///< Sampled adaptive-op latencies.
    Outcome outcome;
    bool render_ok = true;
    std::string error;  ///< A mutator's exception, if any.
};

/// One job.  `profile` false runs the same threads with unprofiled
/// ProfiledLists (null session) and skips stop/analysis: the traced
/// run's reference for the record cost.
JobStats run_job(const std::array<Script, kMutators>& scripts, SpanLog* log,
                 bool sample, bool profile = true) {
    JobStats st;
    const std::uint64_t job_start = now_ns();
    auto session = std::make_unique<dsspy::runtime::ProfilingSession>();
    dsspy::runtime::ProfilingSession* sess = profile ? session.get() : nullptr;
    LiveContainers c;
    for (unsigned t = 0; t < kMutators; ++t) {
        const auto line = static_cast<std::uint32_t>(t);
        c.logs.push_back(std::make_unique<dsspy::ds::ProfiledList<long>>(
            sess, dsspy::support::SourceLoc{"Bench.Shared", "Log", line}));
        c.queues.push_back(std::make_unique<dsspy::ds::ProfiledList<long>>(
            sess, dsspy::support::SourceLoc{"Bench.Shared", "Queue", line}));
    }

    std::barrier sync(kMutators);
    std::array<std::vector<double>, kMutators> samples;
    std::array<std::string, kMutators> errors;
    {
        Span s(log, "adapt.mutators");
        std::vector<std::jthread> threads;
        for (unsigned t = 0; t < kMutators; ++t)
            threads.emplace_back([&, t] {
                std::uint64_t checksum = 0;
                std::size_t n = 0;
                try {
                    for (std::size_t p = 0; p < kPhases; ++p) {
                        sync.arrive_and_wait();
                        for (const Step& step : scripts[t][p]) {
                            if (sample && is_adaptive(step.op) &&
                                ++n % kSampleEvery == 0) {
                                const std::uint64_t t0 = now_ns();
                                run_step(c, t, step, checksum);
                                samples[t].push_back(
                                    static_cast<double>(now_ns() - t0));
                            } else {
                                run_step(c, t, step, checksum);
                            }
                        }
                    }
                } catch (const std::exception& e) {
                    // Record the failure and leave the barrier so the
                    // other mutators do not wait for this one.
                    errors[t] = e.what();
                    sync.arrive_and_drop();
                }
                st.outcome.checksums[t] = checksum;
            });
        threads.clear();  // Joins.
        st.mutators_ms = s.stop();
    }
    for (const auto& v : samples)
        st.op_ns.insert(st.op_ns.end(), v.begin(), v.end());
    for (const std::string& e : errors)
        if (!e.empty()) st.error = "mutator threw: " + e;
    st.switches = c.list.switch_count() + c.dict.switch_count();
    st.folded_events = c.list.events_folded() + c.dict.events_folded();
    if (!profile) return st;

    dsspy::pipeline::RunOutcome outcome;
    {
        Span s(log, "runtime.stop");
        session->stop();
        st.stop_ms = s.stop();
    }
    st.session_events = session->events_recorded();
    {
        Span s(log, "core.analyze");
        outcome.analysis = dsspy::core::Dsspy{}.analyze(
            *session, &dsspy::par::ThreadPool::default_pool());
        st.analyze_ms = s.stop();
    }
    st.instances = outcome.analysis->total_instances();
    outcome.events = st.session_events;
    outcome.session = std::move(session);
    {
        Span s(log, "pipeline.render");
        dsspy::pipeline::OutputSelection outputs;
        outputs.summary = true;
        std::ostringstream out, err;
        st.render_ok = dsspy::pipeline::emit_reports(outputs, outcome, out, err);
        st.render_ms = s.stop();
    }
    st.wall_ms = static_cast<double>(now_ns() - job_start) / 1e6;
    // Outside the timed job: read back the final contents.
    collect(c, st.outcome);
    return st;
}

std::string check(const JobStats& st, const Outcome& expected) {
    if (!st.error.empty()) return st.error;
    if (!st.render_ok) return "summary render failed";
    if (st.outcome.checksums != expected.checksums)
        return "read results differ from the single-threaded replay";
    if (!(st.outcome == expected))
        return "final contents differ from the single-threaded replay";
    return {};
}

std::size_t count_ops(const std::array<Script, kMutators>& scripts,
                      bool adaptive_only) {
    std::size_t n = 0;
    for (const Script& s : scripts)
        for (const auto& phase : s)
            for (const Step& step : phase)
                n += !adaptive_only || is_adaptive(step.op);
    return n;
}

}  // namespace

Result run_adaptive_shared(const Options& o) {
    Result result;
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    dsspy::par::ThreadPool::set_default_threads(
        nproc > kMutators ? nproc - kMutators : 1);

    std::array<Script, kMutators> scripts;
    Outcome expected;
    const double setup_s = timed_setup([&] {
        (void)dsspy::par::ThreadPool::default_pool();
        for (unsigned t = 0; t < kMutators; ++t)
            scripts[t] = make_script(t, o.seed);
        expected = replay(scripts);
        (void)run_job(scripts, nullptr, false);
    });
    reset_peak_rss();
    const double all_ops = static_cast<double>(count_ops(scripts, false));

    SpanLog log;
    std::vector<double> job_ms, plain_ms, untraced, traced_sum, mutators,
        unprofiled, stop, analyze, render, op_ns, switches;
    double wall_s = 0.0, events = 0.0;
    std::uint64_t session_events = 0;
    std::size_t instances = 0, jobs = 0;
    const std::uint64_t start = now_ns();
    const std::size_t min_jobs = o.trace ? 20 : kMinJobs;
    while (keep_measuring(start, o.seconds, jobs, min_jobs)) {
        ++jobs;
        std::uint64_t t = now_ns();
        const Outcome plain = replay(scripts);
        plain_ms.push_back(static_cast<double>(now_ns() - t) / 1e6);

        const JobStats st = run_job(scripts, nullptr, false);
        std::string problem = check(st, expected);
        if (problem.empty() && !(plain == expected))
            problem = "replay is not deterministic";
        job_ms.push_back(st.wall_ms);
        wall_s += st.wall_ms / 1e3;
        events += static_cast<double>(st.session_events + st.folded_events);
        if (o.trace) {
            log.begin_job(jobs);
            const JobStats tr = run_job(scripts, &log, true);
            if (problem.empty()) problem = check(tr, expected);
            const JobStats ref = run_job(scripts, nullptr, false, false);
            untraced.push_back(st.wall_ms);
            traced_sum.push_back(tr.mutators_ms + tr.stop_ms + tr.analyze_ms +
                                 tr.render_ms);
            mutators.push_back(tr.mutators_ms);
            unprofiled.push_back(ref.mutators_ms);
            stop.push_back(tr.stop_ms);
            analyze.push_back(tr.analyze_ms);
            render.push_back(tr.render_ms);
            op_ns.insert(op_ns.end(), tr.op_ns.begin(), tr.op_ns.end());
            switches.push_back(static_cast<double>(tr.switches));
            session_events = tr.session_events;
            instances = tr.instances;
        }
        result.job(problem.empty(), problem);
    }

    if (o.trace) {
        const std::size_t n = mutators.size();
        const double ev = static_cast<double>(session_events);
        result.add("runtime.record_ns_per_event",
                   (median(mutators) - median(unprofiled)) * 1e6 / ev, "ns",
                   n);
        result.add("runtime.stop_ms", median(stop), "ms", n);
        result.add("runtime.stop_ns_per_event", median(stop) * 1e6 / ev, "ns",
                   n);
        result.add("runtime.events", ev, "count");
        result.add("core.analyze_ms", median(analyze), "ms", n);
        result.add("core.instances", static_cast<double>(instances), "count");
        result.add("pipeline.render_ms", median(render), "ms", n);
        result.add("adapt.ops", static_cast<double>(count_ops(scripts, true)),
                   "count");
        result.add("adapt.ops_per_s", all_ops / (median(mutators) / 1e3),
                   "ops/s", n);
        result.add("adapt.op_ns_p50", quantile(op_ns, 0.5), "ns",
                   op_ns.size());
        result.add("adapt.op_ns_p99", quantile(op_ns, 0.99), "ns",
                   op_ns.size());
        result.add("adapt.switches", median(switches), "count", n);
        result.add("bench.unattributed_pct",
                   100.0 * (median(untraced) - median(traced_sum)) /
                       median(untraced),
                   "%", n);
        (void)log.write_json(o.workdir + "/spans-adaptive_shared.json");
        return result;
    }
    result.add("setup_s", setup_s, "s", kSetupReps);
    result.add("job_ms_p50", quantile(job_ms, 0.5), "ms", job_ms.size());
    result.add("job_ms_p90", quantile(job_ms, 0.9), "ms", job_ms.size());
    result.add("events_per_s", events / wall_s, "events/s", job_ms.size());
    result.add("slowdown_x", median(job_ms) / median(plain_ms), "x",
               job_ms.size());
    result.add("peak_rss_mb", peak_rss_mb(), "MB", job_ms.size());
    return result;
}

}  // namespace perfbench
