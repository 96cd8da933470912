#include "core/incremental.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/session.hpp"

// Sort-After-Insert, streamed
// ---------------------------
// Post-mortem SAI picks the earliest Sort event that trails a qualifying
// insertion pattern (length >= sai_min_phase_events, pattern.last < sort,
// gap <= sai_max_gap_events); among that Sort's matches it reports the
// pattern with the smallest first index.  That selection is the
// lexicographic minimum over all (sort_index, pattern_first) match pairs.
//
// The stream discovers every such pair without keeping the events:
//   * patterns flushed before a Sort sit in `sai_closed`, pruned once they
//     fall out of the gap window (a per-thread run sequence has strictly
//     increasing last-indices, so the deque holds at most threads x gap
//     candidates);
//   * a run still open when the Sort arrives has its last-index frozen at
//     a value < sort (an extension would push it past the Sort and void
//     the match), so the Sort is parked in `sai_pending` and re-checked
//     whenever a pattern completes.
// Each discovered pair goes through merge_sai, which keeps the running
// lexicographic minimum — equal to the post-mortem selection.

namespace dsspy::core {

namespace {

/// Self-telemetry ids for the streaming engine (lazy-registered; call
/// sites guard on obs::enabled()).
struct IncrementalMetricIds {
    obs::MetricId events_folded;
    obs::MetricId fold_batch;  ///< Histogram of fold(span) batch sizes.
};

const IncrementalMetricIds& incremental_metrics() {
    static const IncrementalMetricIds ids = [] {
        auto& reg = obs::MetricsRegistry::global();
        return IncrementalMetricIds{
            reg.counter("incremental.events_folded"),
            reg.histogram("incremental.fold_batch_events"),
        };
    }();
    return ids;
}

}  // namespace

IncrementalAnalyzer::State& IncrementalAnalyzer::state_for(
    runtime::InstanceId id) {
    if (id >= states_.size()) {
        while (states_.size() <= id) {
            states_.emplace_back();
            states_.back().machine =
                detail::PatternMachine(config_.min_pattern_events);
        }
    }
    return states_[id];
}

void IncrementalAnalyzer::declare_instance(
    const runtime::InstanceInfo& info) {
    const std::lock_guard<std::mutex> lock(mutex_);
    State& st = state_for(info.id);
    st.declared = true;
    st.kind = info.kind;
}

void IncrementalAnalyzer::fold(const runtime::AccessEvent& ev) {
    if (obs::enabled())
        obs::MetricsRegistry::global().add(
            incremental_metrics().events_folded);
    const std::lock_guard<std::mutex> lock(mutex_);
    fold_locked(ev);
}

void IncrementalAnalyzer::fold(
    std::span<const runtime::AccessEvent> events) {
    if (obs::enabled() && !events.empty()) {
        auto& reg = obs::MetricsRegistry::global();
        const IncrementalMetricIds& m = incremental_metrics();
        reg.add(m.events_folded, events.size());
        reg.observe(m.fold_batch, events.size());
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const runtime::AccessEvent& ev : events) fold_locked(ev);
}

std::uint64_t IncrementalAnalyzer::events_folded() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return events_folded_;
}

void IncrementalAnalyzer::fold_locked(const runtime::AccessEvent& ev) {
    ++events_folded_;
    State& st = state_for(ev.instance);
    const std::uint32_t index = st.next_index++;
    const AccessType type = derive_access_type(ev.op);

    ++st.counts[static_cast<std::size_t>(type)];
    st.max_size = std::max(st.max_size, static_cast<std::size_t>(ev.size));
    if (std::find(st.threads.begin(), st.threads.end(), ev.thread) ==
        st.threads.end())
        st.threads.push_back(ev.thread);
    if (index == 0) st.first_ns = ev.time_ns;
    st.last_ns = ev.time_ns;

    // Tail phase: a phase is a maximal run of one derived access type over
    // the instance's whole (cross-thread) event sequence.
    if (index == 0 || type != st.tail_type) {
        st.tail_type = type;
        st.tail_length = 1;
    } else {
        ++st.tail_length;
    }
    st.tail_last_size = ev.size;

    const double weight = type == AccessType::ForAll && ev.size > 0
                              ? static_cast<double>(ev.size)
                              : 1.0;
    st.weighted_total += weight;
    if (is_read_like(type)) st.weighted_reads += weight;
    if (ev.op == runtime::OpKind::Resize) ++st.resizes;
    accumulate_end_traffic(st.iq_traffic, ev, config_.iq_end_window);
    accumulate_end_traffic(st.edge_traffic, ev, 1);

    // Expire closed SAI candidates that left the gap window.  Per-thread
    // last-indices grow monotonically across flushes, so once the front
    // survives, everything that could expire behind it already has.
    while (!st.sai_closed.empty() &&
           st.sai_closed.front().last + config_.sai_max_gap_events < index)
        st.sai_closed.pop_front();

    st.machine.step(index, ev,
                    [this, &st](const Pattern& p, std::uint64_t first_ns,
                                std::uint64_t last_ns) {
                        absorb_pattern(st, p, first_ns, last_ns);
                    });

    if (type == AccessType::Sort) on_sort(st, index);
}

void IncrementalAnalyzer::absorb_pattern(State& st, const Pattern& p,
                                         std::uint64_t first_ns,
                                         std::uint64_t last_ns) const {
    ++st.pattern_counts[static_cast<std::size_t>(p.kind)];
    if (is_read_pattern(p.kind)) {
        if (!p.synthetic) st.read_pattern_events += p.length;
        if (p.coverage >= config_.flr_min_coverage) ++st.long_read_patterns;
    }
    if (!counts_as_insertion_pattern(p, st.kind)) return;
    if (p.length >= config_.li_min_phase_events) {
        st.long_insert_events += p.length;
        if (!p.synthetic) st.long_insert_ns += last_ns - first_ns;
        // Longest qualifying phase, earliest-first tie-break — the same
        // winner the post-mortem first-ordered scan picks.
        if (!st.has_longest_insert ||
            p.length > st.longest_insert_length ||
            (p.length == st.longest_insert_length &&
             p.first < st.longest_insert_first)) {
            st.has_longest_insert = true;
            st.longest_insert_length = p.length;
            st.longest_insert_first = p.first;
            st.longest_insert_front = p.kind == PatternKind::InsertFront;
        }
    }
    if (p.length >= config_.sai_min_phase_events) {
        for (const std::uint32_t sort_index : st.sai_pending) {
            if (p.last < sort_index &&
                sort_index - p.last <= config_.sai_max_gap_events)
                merge_sai(st, sort_index, p.first, p.length);
        }
        st.sai_closed.push_back({p.first, p.last, p.length});
    }
}

void IncrementalAnalyzer::on_sort(State& st, std::uint32_t index) {
    const std::size_t gap = config_.sai_max_gap_events;
    // A strictly earlier matched Sort can never be beaten; later Sorts
    // need no bookkeeping at all.
    if (!(st.sai_match && st.sai_sort < index)) {
        for (const SaiCandidate& c : st.sai_closed) {
            if (c.last < index && index - c.last <= gap)
                merge_sai(st, index, c.first, c.length);
        }
        // A run still open now may flush later with its current (frozen)
        // extent and match this Sort — park it for the flush-time check.
        bool possible = false;
        st.machine.visit_open_runs([&](const detail::PatternRun& run) {
            if (run.last < index && index - run.last <= gap)
                possible = true;
        });
        if (possible) st.sai_pending.push_back(index);
    }
    // Sweep parked Sorts that can no longer be matched or improved upon,
    // keeping the pending list bounded by threads x gap window.
    std::erase_if(st.sai_pending, [&](std::uint32_t sort_index) {
        if (st.sai_match && st.sai_sort < sort_index) return true;
        bool live = false;
        st.machine.visit_open_runs([&](const detail::PatternRun& run) {
            if (run.last < sort_index && sort_index - run.last <= gap)
                live = true;
        });
        return !live;
    });
}

void IncrementalAnalyzer::merge_sai(State& st, std::uint32_t sort_index,
                                    std::uint32_t first,
                                    std::uint32_t length) {
    if (!st.sai_match || sort_index < st.sai_sort ||
        (sort_index == st.sai_sort && first < st.sai_first)) {
        st.sai_match = true;
        st.sai_sort = sort_index;
        st.sai_first = first;
        st.sai_length = length;
    }
}

InstanceStats IncrementalAnalyzer::to_stats(
    const State& st, const runtime::InstanceInfo& info) {
    InstanceStats s;
    s.info = info;
    s.total = st.next_index;
    s.counts = st.counts;
    s.thread_count = st.threads.size();
    s.duration_ns = st.next_index > 0 ? st.last_ns - st.first_ns : 0;
    s.max_size = st.max_size;
    s.pattern_counts = st.pattern_counts;
    s.long_insert_events = st.long_insert_events;
    s.long_insert_ns = st.long_insert_ns;
    s.has_longest_insert = st.has_longest_insert;
    s.longest_insert_length = st.longest_insert_length;
    s.longest_insert_front = st.longest_insert_front;
    s.sai_match = st.sai_match;
    s.sai_phase_length = st.sai_length;
    s.iq_traffic = st.iq_traffic;
    s.edge_traffic = st.edge_traffic;
    s.resizes = st.resizes;
    s.read_pattern_events = st.read_pattern_events;
    s.long_read_patterns = st.long_read_patterns;
    s.weighted_reads = st.weighted_reads;
    s.weighted_total = st.weighted_total;
    s.tail_type = st.tail_type;
    s.tail_length = st.tail_length;
    s.tail_last_size = st.tail_last_size;
    return s;
}

AnalysisResult IncrementalAnalyzer::report_from(
    std::vector<State> states,
    const std::vector<runtime::InstanceInfo>& instances) const {
    // Flush open runs as if the stream ended here; the pending-Sort checks
    // inside absorb_pattern still apply (a Sort near the stream's end may
    // be matched by a final flush).
    for (State& st : states) {
        st.machine.finish([this, &st](const Pattern& p,
                                      std::uint64_t first_ns,
                                      std::uint64_t last_ns) {
            absorb_pattern(st, p, first_ns, last_ns);
        });
    }

    std::size_t total_events = 0;
    for (const State& st : states) total_events += st.next_index;
    AnalysisResult result;
    result.reset(instances, total_events);
    static const State kEmptyState;
    for (std::size_t i = 0; i < instances.size(); ++i) {
        const runtime::InstanceInfo& info = instances[i];
        const State& st =
            info.id < states.size() ? states[info.id] : kEmptyState;
        InstanceAnalysis& ia = result.instances_[i];
        ia.stats = to_stats(st, info);
        ia.use_cases = engine_.classify(ia.stats);
    }
    return result;
}

AnalysisResult IncrementalAnalyzer::snapshot(
    const std::vector<runtime::InstanceInfo>& instances) const {
    DSSPY_TRACE_SPAN("incremental.snapshot");
    std::vector<State> copy;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        copy = states_;
    }
    return report_from(std::move(copy), instances);
}

AnalysisResult IncrementalAnalyzer::finish(
    const std::vector<runtime::InstanceInfo>& instances) {
    DSSPY_TRACE_SPAN("incremental.finish");
    const std::lock_guard<std::mutex> lock(mutex_);
    return report_from(std::move(states_), instances);
}

void attach_incremental(runtime::ProfilingSession& session,
                        IncrementalAnalyzer& analyzer) {
    for (const runtime::InstanceInfo& info : session.registry().snapshot())
        analyzer.declare_instance(info);
    session.set_instance_sink([&analyzer](const runtime::InstanceInfo& info) {
        analyzer.declare_instance(info);
    });
    session.set_event_sink(
        [&analyzer](std::span<const runtime::AccessEvent> events) {
            analyzer.fold(events);
        });
}

}  // namespace dsspy::core
