#include "core/instance_fold.hpp"

#include <algorithm>

#include "core/detector_kernels.hpp"

// Sort-After-Insert, streamed
// ---------------------------
// SAI picks the earliest Sort event that trails a qualifying insertion
// pattern (length >= sai_min_phase_events, pattern.last < sort,
// gap <= sai_max_gap_events); among that Sort's matches it reports the
// pattern with the smallest first index.  That selection is the
// lexicographic minimum over all (sort_index, pattern_first) match pairs.
//
// The fold discovers every such pair without keeping the events:
//   * patterns flushed before a Sort sit in `sai_closed_`, pruned once they
//     fall out of the gap window (a per-thread run sequence has strictly
//     increasing last-indices, so the deque holds at most threads x gap
//     candidates).  Pruning is lazy — at each Sort and each push — which
//     is exact because on_sort filters the candidates by the gap anyway;
//   * a run still open when the Sort arrives has its last-index frozen at
//     a value < sort (an extension would push it past the Sort and void
//     the match), so the Sort is parked in `sai_pending_` and re-checked
//     whenever a pattern completes.
// Each discovered pair goes through merge_sai, which keeps the running
// lexicographic minimum.  tests/aos_oracle.cpp computes the same selection
// from the whole event list.

namespace dsspy::core {

namespace {

constexpr std::uint8_t kTypeRead =
    static_cast<std::uint8_t>(AccessType::Read);
constexpr std::uint8_t kTypeWrite =
    static_cast<std::uint8_t>(AccessType::Write);
constexpr std::uint8_t kTypeInsert =
    static_cast<std::uint8_t>(AccessType::Insert);
constexpr std::uint8_t kTypeDelete =
    static_cast<std::uint8_t>(AccessType::Delete);
constexpr std::uint8_t kTypeSearch =
    static_cast<std::uint8_t>(AccessType::Search);
constexpr std::uint8_t kTypeSort =
    static_cast<std::uint8_t>(AccessType::Sort);
constexpr std::uint8_t kTypeForAll =
    static_cast<std::uint8_t>(AccessType::ForAll);

/// Longest prefix of rows starting at `i` that provably extend `run`
/// (kernels::* streak scans); 0 when no bulk fast path applies and the
/// row must go through the generic machine step.
///
/// Each case first tests row `i` alone with the scalar predicate: when the
/// very first row does not continue the run the kernel would return 0
/// anyway, and skipping its dispatch/setup keeps streak-hostile streams
/// (alternating categories, queue churn) no slower than the plain
/// per-event machine.
std::size_t run_streak(const ColumnSlice& s, std::size_t i,
                       const detail::PatternRun& run) {
    using detail::RunCat;
    const std::size_t n = s.n - i;
    const std::uint16_t tid = s.threads[i];
    switch (run.cat) {
        case RunCat::Read:
        case RunCat::Write: {
            // Direction still open after one event: the next row fixes it
            // (generic step).  Locked direction: monotone position chain.
            if (run.direction == 0) return 0;
            const std::uint8_t code =
                run.cat == RunCat::Read ? kTypeRead : kTypeWrite;
            const std::int64_t expect = run.last_pos + run.direction;
            if (expect < 0 || s.types[i] != code || s.positions[i] != expect)
                return 0;
            return kernels::monotone_streak(s.types + i, s.positions + i,
                                            s.threads + i, n, code, tid,
                                            run.last_pos, run.direction);
        }
        case RunCat::Insert:
        case RunCat::Delete: {
            // Ambiguous runs (every access both front and back so far,
            // e.g. inserts while size stays 1) keep stepping generically;
            // single-anchor runs are absorbing and scan in bulk.
            if (run.all_front == run.all_back) return 0;
            const bool is_insert = run.cat == RunCat::Insert;
            const std::uint8_t code = is_insert ? kTypeInsert : kTypeDelete;
            const kernels::EndAnchor anchor =
                run.all_front ? kernels::EndAnchor::Front
                : is_insert   ? kernels::EndAnchor::InsertBack
                              : kernels::EndAnchor::DeleteBack;
            const std::int64_t want =
                anchor == kernels::EndAnchor::Front ? 0
                : anchor == kernels::EndAnchor::InsertBack
                    ? static_cast<std::int64_t>(s.sizes[i]) - 1
                    : static_cast<std::int64_t>(s.sizes[i]);
            if (s.types[i] != code || s.positions[i] != want) return 0;
            return kernels::end_anchor_streak(s.types + i, s.positions + i,
                                              s.sizes + i, s.threads + i, n,
                                              code, tid, anchor);
        }
        case RunCat::None: {
            // Closed run: category-None rows on this thread are no-ops.
            const std::uint8_t ty = s.types[i];
            const bool flushable =
                (ty >= kTypeSearch && ty < kTypeForAll) ||
                (ty <= kTypeWrite && s.positions[i] < 0);
            if (!flushable) return 0;
            return kernels::flushable_streak(s.types + i, s.positions + i,
                                             s.threads + i, n, tid);
        }
    }
    return 0;
}

/// The event-struct view of row `i` for the generic machine step (the
/// slow path of the detector: rows that open, close, or redirect a run).
runtime::AccessEvent row_event(const ColumnSlice& s, std::size_t i) {
    runtime::AccessEvent ev{};
    ev.seq = i;
    ev.time_ns = s.time_ns[i];
    ev.position = s.positions[i];
    ev.size = s.sizes[i];
    ev.op = static_cast<runtime::OpKind>(s.ops[i]);
    ev.thread = s.threads[i];
    return ev;
}

/// Feed rows [0, s.n) through `machine`, row `i` at per-instance index
/// `index_base + i`: rows that provably extend the current run are
/// consumed in bulk by the streak scans, every other row takes one
/// PatternMachine::step.  Patterns reach `sink` in the order stepping each
/// row would emit them.
template <class Sink>
void drive_patterns(detail::PatternMachine& machine, const ColumnSlice& s,
                    std::uint32_t index_base, Sink&& sink) {
    std::size_t i = 0;
    while (i < s.n) {
        const std::uint16_t tid = s.threads[i];
        const detail::PatternRun& run = machine.peek_run(tid);
        const std::size_t streak = run_streak(s, i, run);
        if (streak > 0) {
            if (run.cat != detail::RunCat::None) {
                const std::size_t tail = i + streak - 1;
                machine.extend_run(
                    tid, index_base + static_cast<std::uint32_t>(tail),
                    s.positions[tail], s.sizes[tail], s.time_ns[tail],
                    static_cast<std::uint32_t>(streak));
            }
            // RunCat::None streaks are pure skips: flushing a closed run
            // does nothing, so the machine state is already right.
            i += streak;
            continue;
        }
        machine.step(index_base + static_cast<std::uint32_t>(i),
                     row_event(s, i), static_cast<AccessType>(s.types[i]),
                     sink);
        ++i;
    }
}

// End traffic is a set of integer counts, so the rows may be folded in
// any order.  Long phases fold per constant-type phase: types other than
// Insert/Delete/Read/Write never touch the counters
// (accumulate_end_traffic), so their phases are skipped outright and the
// span kernel hoists the type test out of the row loop.  When phases are
// short (alternating reads and writes), one pass over all rows beats a
// kernel call per phase.
void end_traffic_by_phase(const ColumnSlice& s, const PhaseList& phases,
                          std::size_t iq_window, EndTraffic& iq,
                          EndTraffic& edge) {
    constexpr std::size_t kMinRowsPerPhase = 8;
    if (phases.size() * kMinRowsPerPhase > s.n) {
        kernels::end_traffic(s.types, s.positions, s.sizes, s.n, iq_window,
                             iq, edge);
        return;
    }
    for (const Phase& ph : phases) {
        const auto ty = static_cast<std::uint8_t>(ph.type);
        if (ty > kTypeDelete) continue;
        kernels::end_traffic_span(ty, s.positions + ph.first,
                                  s.sizes + ph.first, ph.length(), iq_window,
                                  iq, edge);
    }
}

}  // namespace

// ------------------------------------------------------------ aggregates

void AggregateFold::fold(const ColumnSlice& s, PhaseList& phases) {
    const std::size_t n = s.n;
    if (n == 0) return;

    // Thread set: one scan of the thread column, looking ids up only where
    // they change.  Most instances have one recording thread, so 32-row
    // blocks equal to the current id are skipped with an or-fold that
    // vectorizes.
    constexpr std::size_t kBlock = 32;
    std::uint16_t thread = s.threads[0];
    note_thread(thread);
    for (std::size_t i = 1; i < n;) {
        if (i + kBlock <= n) {
            std::uint16_t diff = 0;
            for (std::size_t k = 0; k < kBlock; ++k)
                diff = static_cast<std::uint16_t>(diff |
                                                  (s.threads[i + k] ^ thread));
            if (diff == 0) {
                i += kBlock;
                continue;
            }
        }
        for (const std::size_t end = std::min(i + kBlock, n); i < end; ++i) {
            if (s.threads[i] == thread) continue;
            thread = s.threads[i];
            note_thread(thread);
        }
    }

    max_size_ = std::max<std::size_t>(max_size_,
                                      kernels::max_size_u32(s.sizes, n));
    if (events_ == 0) first_ns_ = s.time_ns[0];
    last_ns_ = s.time_ns[n - 1];
    resizes_ += kernels::count_op(s.ops, n, runtime::OpKind::Resize);

    // Same-type phases give the type histogram, the tail phase, the
    // ForAll weights and the end-traffic split.
    kernels::phases_from_types(s.types, n, phases);
    std::array<std::size_t, kAccessTypeCount> hist{};
    std::uint64_t forall_extra = 0;
    for (const Phase& ph : phases) {
        hist[static_cast<std::size_t>(ph.type)] += ph.length();
        if (ph.type != AccessType::ForAll) continue;
        for (std::uint32_t r = ph.first; r <= ph.last; ++r)
            if (s.sizes[r] > 0) forall_extra += s.sizes[r] - 1;
    }
    for (std::size_t k = 0; k < kAccessTypeCount; ++k) counts_[k] += hist[k];

    // Tail phase: the slice's last phase, joined to the carried one when
    // it covers the whole slice and continues its type.
    const Phase& tail = phases.back();
    if (phases.size() == 1 && events_ > 0 && tail_type_ == tail.type) {
        tail_length_ += n;
    } else {
        tail_type_ = tail.type;
        tail_length_ = tail.length();
    }
    tail_last_size_ = s.sizes[n - 1];

    // Every row weighs 1 except ForAll rows with size > 0, which weigh
    // their size (the per-event weights, summed).
    const std::size_t forall_rows =
        hist[static_cast<std::size_t>(AccessType::ForAll)];
    weighted_total_ += n + forall_extra;
    weighted_reads_ += hist[static_cast<std::size_t>(AccessType::Read)] +
                       hist[static_cast<std::size_t>(AccessType::Search)] +
                       hist[static_cast<std::size_t>(AccessType::Copy)] +
                       forall_rows + forall_extra;

    end_traffic_by_phase(s, phases, iq_window_, iq_traffic_, edge_traffic_);
    events_ += static_cast<std::uint32_t>(n);
}

void AggregateFold::write(InstanceStats& st) const {
    st.total = events_;
    st.counts = counts_;
    st.thread_count = threads_.size();
    st.duration_ns = events_ > 0 ? last_ns_ - first_ns_ : 0;
    st.max_size = max_size_;
    st.iq_traffic = iq_traffic_;
    st.edge_traffic = edge_traffic_;
    st.resizes = resizes_;
    st.weighted_reads = static_cast<double>(weighted_reads_);
    st.weighted_total = static_cast<double>(weighted_total_);
    st.tail_type = tail_type_;
    st.tail_length = tail_length_;
    st.tail_last_size = tail_last_size_;
}

// -------------------------------------------------------------- patterns

void PatternFold::fold(const ColumnSlice& s, std::uint32_t base,
                       std::vector<Pattern>* out) {
    const auto sink = [this, out](const Pattern& p, std::uint64_t first_ns,
                                  std::uint64_t last_ns) {
        absorb(p, first_ns, last_ns);
        if (out != nullptr) out->push_back(p);
    };
    // The streak loop would skip a Sort row of a closed run in bulk, but
    // every Sort must reach on_sort in order, so the slice is driven in
    // segments that each end at a Sort row.
    std::vector<std::uint32_t> sorts;
    kernels::collect_type_indices(s.types, s.n, kTypeSort, sorts);
    std::size_t begin = 0;
    for (const std::uint32_t r : sorts) {
        drive_patterns(machine_, s.rows(begin, r + 1),
                       base + static_cast<std::uint32_t>(begin), sink);
        on_sort(base + r);
        begin = r + 1;
    }
    drive_patterns(machine_, s.rows(begin, s.n),
                   base + static_cast<std::uint32_t>(begin), sink);
}

void PatternFold::finish(std::vector<Pattern>* out) {
    // The pending-Sort checks inside absorb still apply: a Sort near the
    // stream's end may be matched by a final flush.
    machine_.finish([this, out](const Pattern& p, std::uint64_t first_ns,
                                std::uint64_t last_ns) {
        absorb(p, first_ns, last_ns);
        if (out != nullptr) out->push_back(p);
    });
}

void PatternFold::absorb(const Pattern& p, std::uint64_t first_ns,
                         std::uint64_t last_ns) {
    const DetectorConfig& config = *config_;
    ++pattern_counts_[static_cast<std::size_t>(p.kind)];
    if (is_read_pattern(p.kind)) {
        if (!p.synthetic) read_pattern_events_ += p.length;
        if (p.coverage >= config.flr_min_coverage) ++long_read_patterns_;
    }
    if (!counts_as_insertion_pattern(p, kind_)) return;
    if (p.length >= config.li_min_phase_events) {
        long_insert_events_ += p.length;
        if (!p.synthetic) long_insert_ns_ += last_ns - first_ns;
        // Longest qualifying phase, earliest-first tie-break: patterns
        // complete out of first-index order across threads.
        if (!has_longest_insert_ || p.length > longest_insert_length_ ||
            (p.length == longest_insert_length_ &&
             p.first < longest_insert_first_)) {
            has_longest_insert_ = true;
            longest_insert_length_ = p.length;
            longest_insert_first_ = p.first;
            longest_insert_front_ = p.kind == PatternKind::InsertFront;
        }
    }
    if (p.length >= config.sai_min_phase_events) {
        for (const std::uint32_t sort_index : sai_pending_) {
            if (p.last < sort_index &&
                sort_index - p.last <= config.sai_max_gap_events)
                merge_sai(sort_index, p.first, p.length);
        }
        expire_sai(p.last);
        sai_closed_.push_back({p.first, p.last, p.length});
    }
}

void PatternFold::expire_sai(std::uint32_t index) {
    // Per-thread last-indices grow monotonically across flushes, so once
    // the front survives, everything that could expire behind it already
    // has.
    while (!sai_closed_.empty() &&
           sai_closed_.front().last + config_->sai_max_gap_events < index)
        sai_closed_.pop_front();
}

void PatternFold::on_sort(std::uint32_t index) {
    expire_sai(index);
    const std::size_t gap = config_->sai_max_gap_events;
    // A strictly earlier matched Sort can never be beaten; later Sorts
    // need no bookkeeping at all.
    if (!(sai_match_ && sai_sort_ < index)) {
        for (const SaiCandidate& c : sai_closed_) {
            if (c.last < index && index - c.last <= gap)
                merge_sai(index, c.first, c.length);
        }
        // A run still open now may flush later with its current (frozen)
        // extent and match this Sort — park it for the flush-time check.
        bool possible = false;
        machine_.visit_open_runs([&](const detail::PatternRun& run) {
            if (run.last < index && index - run.last <= gap) possible = true;
        });
        if (possible) sai_pending_.push_back(index);
    }
    // Sweep parked Sorts that can no longer be matched or improved upon,
    // keeping the pending list bounded by threads x gap window.
    std::erase_if(sai_pending_, [&](std::uint32_t sort_index) {
        if (sai_match_ && sai_sort_ < sort_index) return true;
        bool live = false;
        machine_.visit_open_runs([&](const detail::PatternRun& run) {
            if (run.last < sort_index && sort_index - run.last <= gap)
                live = true;
        });
        return !live;
    });
}

void PatternFold::merge_sai(std::uint32_t sort_index, std::uint32_t first,
                            std::uint32_t length) {
    if (!sai_match_ || sort_index < sai_sort_ ||
        (sort_index == sai_sort_ && first < sai_first_)) {
        sai_match_ = true;
        sai_sort_ = sort_index;
        sai_first_ = first;
        sai_length_ = length;
    }
}

void PatternFold::write(InstanceStats& st) const {
    st.pattern_counts = pattern_counts_;
    st.long_insert_events = long_insert_events_;
    st.long_insert_ns = long_insert_ns_;
    st.has_longest_insert = has_longest_insert_;
    st.longest_insert_length = longest_insert_length_;
    st.longest_insert_front = longest_insert_front_;
    st.sai_match = sai_match_;
    st.sai_phase_length = sai_length_;
    st.read_pattern_events = read_pattern_events_;
    st.long_read_patterns = long_read_patterns_;
}

// ---------------------------------------------------------------- whole

void InstanceFold::fold(const ColumnSlice& s, PhaseList& phases) {
    const std::uint32_t base = aggregates.events();
    aggregates.fold(s, phases);
    patterns.fold(s, base);
}

InstanceStats InstanceFold::to_stats(const runtime::InstanceInfo& info) const {
    InstanceStats st;
    st.info = info;
    aggregates.write(st);
    patterns.write(st);
    return st;
}

}  // namespace dsspy::core
