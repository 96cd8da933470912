#include "aos_oracle.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "core/detector_kernels.hpp"
#include "core/pattern_machine.hpp"
#include "core/use_cases.hpp"

namespace dsspy::oracle {

namespace {

std::vector<runtime::AccessEvent> events_of(
    const runtime::ColumnStore& columns, const std::uint64_t* seq,
    runtime::InstanceId id) {
    std::vector<runtime::AccessEvent> out;
    runtime::for_each_event(
        columns, seq, id,
        [&out](const runtime::AccessEvent& ev) { out.push_back(ev); });
    return out;
}

}  // namespace

std::vector<runtime::AccessEvent> events_of(
    const runtime::ProfileStore& store, runtime::InstanceId id) {
    const runtime::ColumnStore& columns = store.columns();
    return events_of(columns, store.seq(), id);
}

std::vector<runtime::AccessEvent> events_of(
    const runtime::ColumnTrace& trace, runtime::InstanceId id) {
    return events_of(trace.columns, trace.seq.get(), id);
}

EventsById events_by_id(const runtime::ProfileStore& store) {
    EventsById out(store.instance_slots());
    for (std::size_t id = 0; id < out.size(); ++id)
        out[id] = events_of(store, static_cast<runtime::InstanceId>(id));
    return out;
}

ProfileAggregates aggregates(
    std::span<const runtime::AccessEvent> events) {
    ProfileAggregates agg;
    agg.total_events = events.size();
    if (events.empty()) return agg;

    std::vector<runtime::ThreadId> threads;
    core::AccessType current = core::derive_access_type(events.front().op);
    std::uint32_t phase_start = 0;
    for (std::uint32_t i = 0; i < events.size(); ++i) {
        const runtime::AccessEvent& ev = events[i];
        const core::AccessType type = core::derive_access_type(ev.op);
        ++agg.counts[static_cast<std::size_t>(type)];
        agg.max_size = std::max<std::size_t>(agg.max_size, ev.size);
        if (std::find(threads.begin(), threads.end(), ev.thread) ==
            threads.end())
            threads.push_back(ev.thread);
        if (type != current) {
            agg.phases.push_back(core::Phase{current, phase_start, i - 1});
            current = type;
            phase_start = i;
        }
    }
    agg.phases.push_back(
        core::Phase{current, phase_start,
                    static_cast<std::uint32_t>(events.size()) - 1});
    agg.duration_ns = events.back().time_ns - events.front().time_ns;
    agg.thread_count = threads.size();
    return agg;
}

std::vector<core::Pattern> detect_patterns(
    std::span<const runtime::AccessEvent> events,
    const core::DetectorConfig& config) {
    std::vector<core::Pattern> out;
    core::detail::PatternMachine machine(config.min_pattern_events);
    const auto collect = [&out](const core::Pattern& p,
                                std::uint64_t /*first_ns*/,
                                std::uint64_t /*last_ns*/) {
        out.push_back(p);
    };
    for (std::uint32_t i = 0; i < events.size(); ++i)
        machine.step(i, events[i], collect);
    machine.finish(collect);
    std::sort(out.begin(), out.end(),
              [](const core::Pattern& a, const core::Pattern& b) {
                  return a.first < b.first;
              });
    return out;
}

core::InstanceStats instance_stats(
    const runtime::InstanceInfo& info,
    std::span<const runtime::AccessEvent> events,
    const ProfileAggregates& agg,
    const std::vector<core::Pattern>& patterns,
    const core::DetectorConfig& config) {
    using core::AccessType;
    core::InstanceStats s;
    s.info = info;
    s.total = agg.total_events;
    s.counts = agg.counts;
    s.thread_count = agg.thread_count;
    s.duration_ns = agg.duration_ns;
    s.max_size = agg.max_size;

    for (const runtime::AccessEvent& ev : events) {
        core::accumulate_end_traffic(s.iq_traffic, ev, config.iq_end_window);
        core::accumulate_end_traffic(s.edge_traffic, ev, 1);
        if (ev.op == runtime::OpKind::Resize) ++s.resizes;
        // ForAll traversals weigh as many reads as elements they touch:
        // one for_each over n elements is n reads for the 50%-reads rule.
        const AccessType type = core::derive_access_type(ev.op);
        const double weight = type == AccessType::ForAll && ev.size > 0
                                  ? static_cast<double>(ev.size)
                                  : 1.0;
        s.weighted_total += weight;
        if (core::is_read_like(type)) s.weighted_reads += weight;
    }

    for (const core::Pattern& p : patterns) {
        ++s.pattern_counts[static_cast<std::size_t>(p.kind)];
        if (core::is_read_pattern(p.kind)) {
            if (!p.synthetic) s.read_pattern_events += p.length;
            if (p.coverage >= config.flr_min_coverage) ++s.long_read_patterns;
        }
        if (!core::counts_as_insertion_pattern(p, info.kind)) continue;
        if (p.length >= config.li_min_phase_events) {
            s.long_insert_events += p.length;
            if (!p.synthetic)
                s.long_insert_ns +=
                    events[p.last].time_ns - events[p.first].time_ns;
            // Longest qualifying phase; first-seen wins ties (patterns are
            // ordered by first event index).
            if (!s.has_longest_insert ||
                p.length > s.longest_insert_length) {
                s.has_longest_insert = true;
                s.longest_insert_length = p.length;
                s.longest_insert_front =
                    p.kind == core::PatternKind::InsertFront;
            }
        }
    }

    // Sort-After-Insert: the earliest Sort trailing a qualifying insertion
    // phase within the gap window; among that Sort's phases, the earliest.
    for (std::uint32_t i = 0; i < events.size() && !s.sai_match; ++i) {
        if (core::derive_access_type(events[i].op) != AccessType::Sort)
            continue;
        for (const core::Pattern& p : patterns) {
            if (!core::counts_as_insertion_pattern(p, info.kind)) continue;
            if (p.length < config.sai_min_phase_events) continue;
            if (p.last < i && i - p.last <= config.sai_max_gap_events) {
                s.sai_match = true;
                s.sai_phase_length = p.length;
                break;
            }
        }
    }

    if (!agg.phases.empty()) {
        const core::Phase& tail = agg.phases.back();
        s.tail_type = tail.type;
        s.tail_length = tail.length();
        s.tail_last_size = events[tail.last].size;
    }
    return s;
}

Analysis analyze(const std::vector<runtime::InstanceInfo>& instances,
                 const EventsById& events,
                 const core::DetectorConfig& config) {
    const core::UseCaseEngine engine(config);
    std::vector<core::InstanceAnalysis> analyses(instances.size());
    Analysis out;
    out.aggregates.resize(instances.size());
    for (std::size_t i = 0; i < instances.size(); ++i) {
        const runtime::InstanceInfo& info = instances[i];
        const std::span<const runtime::AccessEvent> evs =
            info.id < events.size()
                ? std::span<const runtime::AccessEvent>(events[info.id])
                : std::span<const runtime::AccessEvent>();
        core::InstanceAnalysis& ia = analyses[i];
        out.aggregates[i] = aggregates(evs);
        ia.patterns = detect_patterns(evs, config);
        ia.stats =
            instance_stats(info, evs, out.aggregates[i], ia.patterns, config);
        ia.use_cases = engine.classify(ia.stats);
    }
    std::size_t total_events = 0;
    for (const std::vector<runtime::AccessEvent>& evs : events)
        total_events += evs.size();
    out.result = core::AnalysisResult(std::move(analyses), total_events);
    return out;
}

Analysis analyze(const std::vector<runtime::InstanceInfo>& instances,
                 const runtime::ProfileStore& store,
                 const core::DetectorConfig& config) {
    return analyze(instances, events_by_id(store), config);
}

std::vector<ProfileAggregates> column_aggregates(
    const core::AnalysisResult& result) {
    const runtime::ColumnStore& columns = *result.columns();
    std::vector<std::uint8_t> types(columns.total_events());
    core::kernels::derive_types(columns.op(), columns.total_events(),
                                types.data());
    std::vector<ProfileAggregates> out;
    for (const core::InstanceAnalysis& ia : result.instances()) {
        const core::InstanceStats& st = ia.stats;
        ProfileAggregates& agg = out.emplace_back();
        agg.total_events = st.total;
        agg.counts = st.counts;
        agg.max_size = st.max_size;
        agg.duration_ns = st.duration_ns;
        agg.thread_count = st.thread_count;
        const runtime::ColumnRange range = columns.range(st.info.id);
        core::kernels::phases_from_types(types.data() + range.begin,
                                         range.size(), agg.phases);
    }
    return out;
}

}  // namespace dsspy::oracle
