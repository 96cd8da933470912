#include "core/incremental.hpp"

#include <algorithm>
#include <utility>

#include "core/column_analysis.hpp"
#include "core/detector_kernels.hpp"
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
//     candidates).  Pruning is lazy — at each Sort and each push — which
//     is exact because on_sort filters the candidates by the gap anyway;
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
    obs::MetricId bulk_events;     ///< Folded through the columnar path.
    obs::MetricId stepped_events;  ///< Folded one event at a time.
};

const IncrementalMetricIds& incremental_metrics() {
    static const IncrementalMetricIds ids = [] {
        auto& reg = obs::MetricsRegistry::global();
        return IncrementalMetricIds{
            reg.counter("incremental.events_folded"),
            reg.histogram("incremental.fold_batch_events"),
            reg.counter("incremental.bulk_events"),
            reg.counter("incremental.stepped_events"),
        };
    }();
    return ids;
}

/// Add `thread` to an instance's seen-thread set.
[[gnu::always_inline]] inline void note_thread(
    std::vector<runtime::ThreadId>& threads, runtime::ThreadId thread) {
    if (std::find(threads.begin(), threads.end(), thread) == threads.end())
        threads.push_back(thread);
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
    if (obs::enabled()) {
        auto& reg = obs::MetricsRegistry::global();
        const IncrementalMetricIds& m = incremental_metrics();
        reg.add(m.events_folded);
        reg.add(m.stepped_events);
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    fold_locked(ev);
}

void IncrementalAnalyzer::fold(
    std::span<const runtime::AccessEvent> events) {
    std::size_t bulk = 0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        std::size_t i = 0;
        while (i < events.size()) {
            const runtime::InstanceId id = events[i].instance;
            std::size_t end = i + 1;
            while (end < events.size() && events[end].instance == id) ++end;
            if (end - i < kMinBulkRun) {
                for (; i < end; ++i) fold_locked(events[i]);
                continue;
            }
            fold_run(state_for(id), events.subspan(i, end - i));
            bulk += end - i;
            i = end;
        }
    }
    if (obs::enabled() && !events.empty()) {
        auto& reg = obs::MetricsRegistry::global();
        const IncrementalMetricIds& m = incremental_metrics();
        reg.add(m.events_folded, events.size());
        reg.observe(m.fold_batch, events.size());
        reg.add(m.bulk_events, bulk);
        reg.add(m.stepped_events, events.size() - bulk);
    }
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
    note_thread(st.threads, ev.thread);
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

    const std::uint64_t weight =
        type == AccessType::ForAll && ev.size > 0 ? ev.size : 1;
    st.weighted_total += weight;
    if (is_read_like(type)) st.weighted_reads += weight;
    if (ev.op == runtime::OpKind::Resize) ++st.resizes;
    accumulate_end_traffic(st.iq_traffic, ev, config_.iq_end_window);
    accumulate_end_traffic(st.edge_traffic, ev, 1);

    st.machine.step(index, ev, type,
                    [this, &st](const Pattern& p, std::uint64_t first_ns,
                                std::uint64_t last_ns) {
                        absorb_pattern(st, p, first_ns, last_ns);
                    });

    if (type == AccessType::Sort) on_sort(st, index);
}

void IncrementalAnalyzer::fold_run(
    State& st, std::span<const runtime::AccessEvent> run) {
    events_folded_ += run.size();
    // Sized on the first bulk run: analyzers that only fold single events
    // (one per adaptive container) never hold the ~100 KB of columns.
    if (tile_.ops.empty()) {
        tile_.time_ns.resize(kTileRows);
        tile_.positions.resize(kTileRows);
        tile_.sizes.resize(kTileRows);
        tile_.ops.resize(kTileRows);
        tile_.types.resize(kTileRows);
        tile_.threads.resize(kTileRows);
    }
    for (std::size_t begin = 0; begin < run.size(); begin += kTileRows)
        fold_tile(st, run.subspan(begin,
                                  std::min(kTileRows, run.size() - begin)));
}

// One tile of a same-instance run: the same state fold_locked reaches
// row by row, from whole-tile kernels.  Nothing that absorb_pattern or
// on_sort reads depends on the aggregates, so they are folded first.
void IncrementalAnalyzer::fold_tile(
    State& st, std::span<const runtime::AccessEvent> rows) {
    const std::size_t n = rows.size();
    Tile& t = tile_;
    // Transpose; the thread set is looked up only where the id changes.
    runtime::ThreadId thread = rows[0].thread;
    note_thread(st.threads, thread);
    for (std::size_t i = 0; i < n; ++i) {
        const runtime::AccessEvent& ev = rows[i];
        t.time_ns[i] = ev.time_ns;
        t.positions[i] = ev.position;
        t.sizes[i] = ev.size;
        t.ops[i] = static_cast<std::uint8_t>(ev.op);
        t.threads[i] = ev.thread;
        if (ev.thread != thread) {
            thread = ev.thread;
            note_thread(st.threads, thread);
        }
    }
    kernels::derive_types(t.ops.data(), n, t.types.data());
    const ColumnSlice s{t.time_ns.data(), t.positions.data(),
                        t.sizes.data(),   t.ops.data(),
                        t.types.data(),   t.threads.data(),
                        n};

    st.max_size = std::max<std::size_t>(st.max_size,
                                        kernels::max_size_u32(s.sizes, n));
    if (st.next_index == 0) st.first_ns = s.time_ns[0];
    st.last_ns = s.time_ns[n - 1];
    st.resizes += kernels::count_op(s.ops, n, runtime::OpKind::Resize);

    // Same-type phases give the type histogram, the tail phase, the
    // ForAll weights, the end-traffic split and the Sort rows.
    kernels::phases_from_types(s.types, n, t.phases);
    const PhaseList& phases = t.phases;
    std::array<std::size_t, kAccessTypeCount> hist{};
    std::uint64_t forall_extra = 0;
    for (const Phase& ph : phases) {
        hist[static_cast<std::size_t>(ph.type)] += ph.length();
        if (ph.type != AccessType::ForAll) continue;
        for (std::uint32_t r = ph.first; r <= ph.last; ++r)
            if (s.sizes[r] > 0) forall_extra += s.sizes[r] - 1;
    }
    for (std::size_t k = 0; k < kAccessTypeCount; ++k)
        st.counts[k] += hist[k];

    // Tail phase: the tile's last phase, joined to the carried one when it
    // covers the whole tile and continues its type.
    const Phase& tail = phases.back();
    if (phases.size() == 1 && st.next_index > 0 &&
        st.tail_type == tail.type) {
        st.tail_length += n;
    } else {
        st.tail_type = tail.type;
        st.tail_length = tail.length();
    }
    st.tail_last_size = s.sizes[n - 1];

    // Every row weighs 1 except ForAll rows with size > 0, which weigh
    // their size (the per-event weights, summed).
    const std::size_t forall_rows =
        hist[static_cast<std::size_t>(AccessType::ForAll)];
    st.weighted_total += n + forall_extra;
    st.weighted_reads +=
        hist[static_cast<std::size_t>(AccessType::Read)] +
        hist[static_cast<std::size_t>(AccessType::Search)] +
        hist[static_cast<std::size_t>(AccessType::Copy)] + forall_rows +
        forall_extra;

    detail::end_traffic_by_phase(s, phases, config_.iq_end_window,
                                 st.iq_traffic, st.edge_traffic);

    // Patterns: the streak loop would skip a Sort row of a closed run in
    // bulk, but every Sort must reach on_sort in order, so the tile is
    // driven in segments that each end at a Sort row.
    const auto absorb = [this, &st](const Pattern& p, std::uint64_t first_ns,
                                    std::uint64_t last_ns) {
        absorb_pattern(st, p, first_ns, last_ns);
    };
    const std::uint32_t base = st.next_index;
    std::size_t begin = 0;
    for (const Phase& ph : phases) {
        if (ph.type != AccessType::Sort) continue;
        for (std::size_t r = ph.first; r <= ph.last; ++r) {
            detail::drive_patterns(st.machine, s.rows(begin, r + 1),
                                   base + static_cast<std::uint32_t>(begin),
                                   absorb);
            on_sort(st, base + static_cast<std::uint32_t>(r));
            begin = r + 1;
        }
    }
    detail::drive_patterns(st.machine, s.rows(begin, n),
                           base + static_cast<std::uint32_t>(begin), absorb);
    st.next_index += static_cast<std::uint32_t>(n);
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
        expire_sai(st, p.last);
        st.sai_closed.push_back({p.first, p.last, p.length});
    }
}

void IncrementalAnalyzer::expire_sai(State& st, std::uint32_t index) const {
    // Per-thread last-indices grow monotonically across flushes, so once
    // the front survives, everything that could expire behind it already
    // has.
    while (!st.sai_closed.empty() &&
           st.sai_closed.front().last + config_.sai_max_gap_events < index)
        st.sai_closed.pop_front();
}

void IncrementalAnalyzer::on_sort(State& st, std::uint32_t index) {
    expire_sai(st, index);
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
    s.weighted_reads = static_cast<double>(st.weighted_reads);
    s.weighted_total = static_cast<double>(st.weighted_total);
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
    std::vector<InstanceAnalysis> analyses(instances.size());
    static const State kEmptyState;
    for (std::size_t i = 0; i < instances.size(); ++i) {
        const runtime::InstanceInfo& info = instances[i];
        const State& st =
            info.id < states.size() ? states[info.id] : kEmptyState;
        InstanceAnalysis& ia = analyses[i];
        ia.stats = to_stats(st, info);
        ia.use_cases = engine_.classify(ia.stats);
    }
    return AnalysisResult(std::move(analyses), total_events);
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
