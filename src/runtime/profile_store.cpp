#include "runtime/profile_store.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>
#include <variant>

#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"

namespace dsspy::runtime {

namespace {

/// next_chunk_bytes's first request, and its largest (2.5 MiB, which
/// becomes a whole 4 MiB mapping).
constexpr std::size_t kFirstChunkBytes = std::size_t{160} << 10;
constexpr std::size_t kMaxChunkBytes = std::size_t{5} << 19;

/// Run `fn(i)` for i in [0, n), on `pool` when one is given.
template <class Fn>
void for_each_index(par::ThreadPool* pool, std::size_t n, Fn&& fn) {
    const auto range = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
    };
    if (pool != nullptr && n > 1) {
        par::parallel_for_chunks(*pool, 0, n, range);
    } else {
        range(0, n);
    }
}

/// Bytes to request for the chunk after one of `previous` bytes (0 for
/// the first); see next_event_chunk.
std::size_t next_chunk_bytes(std::size_t previous) noexcept {
    return previous == 0 ? kFirstChunkBytes
                         : std::min(previous * 2, kMaxChunkBytes);
}

/// Bytes a capture chunk of `rows` rows needs: the rows, then every seq
/// base and clock reading of the blocks and strides they can overlap.
constexpr std::size_t capture_chunk_bytes(std::size_t rows) noexcept {
    return rows * sizeof(CaptureRow) +
           (rows / CaptureChunk::kSeqBlock + 2) * sizeof(std::uint64_t) +
           (rows / CaptureChunk::kStampStride + 2) * sizeof(std::uint64_t);
}

/// How the scatter reads a chunk of AccessEvents: every field is stored.
struct EventRows {
    const AccessEvent* events;
    [[nodiscard]] const AccessEvent& at(std::size_t i) const noexcept {
        return events[i];
    }
};

/// How the scatter reads a chunk of capture rows: seq and time come from
/// the chunk's side tables, the thread from its chain.
struct CaptureRows {
    const CaptureChunk* chunk;
    ThreadId thread;
    [[nodiscard]] AccessEvent at(std::size_t i) const noexcept {
        return chunk->event(i, thread);
    }
};

}  // namespace

template <class Rows>
void ProfileStore::ChunkCounts::add(const Rows& rows, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        const AccessEvent ev = rows.at(i);
        if (ev.instance == kInvalidInstance) continue;
        if (ev.instance >= per_instance.size())
            per_instance.resize(std::size_t{ev.instance} + 1);
        ++per_instance[ev.instance];
        if (!any)
            first_seq = ev.seq;
        else if (ev.seq < last_seq)
            ordered = false;
        last_seq = ev.seq;
        any = true;
    }
}

EventChunk next_event_chunk(std::size_t previous) {
    EventChunk chunk;
    chunk.events = make_bulk_buffer<AccessEvent>(
        next_chunk_bytes(previous * sizeof(AccessEvent)) / sizeof(AccessEvent),
        &chunk.capacity);
    return chunk;
}

CaptureChunk next_capture_chunk(std::size_t previous, std::size_t first) {
    CaptureChunk chunk;
    const std::size_t request =
        next_chunk_bytes(previous == 0 ? 0 : capture_chunk_bytes(previous));
    chunk.storage = allocate_bulk(request, /*use_all=*/true);
    const std::size_t bytes =
        std::max(chunk.storage.get_deleter().mapped_bytes, request);
    // The most rows whose tables fit beside them.  The tables take at most
    // 136 bytes per 1024 rows plus four slots, so this estimate fits and
    // falls short by a few rows at most.
    std::size_t rows = (bytes - 4 * sizeof(std::uint64_t)) * 1024 /
                       (sizeof(CaptureRow) * 1024 + 136);
    while (capture_chunk_bytes(rows + 1) <= bytes) ++rows;
    chunk.rows = reinterpret_cast<CaptureRow*>(chunk.storage.get());
    chunk.seq_bases = reinterpret_cast<std::uint64_t*>(chunk.rows + rows);
    chunk.stamps = chunk.seq_bases + rows / CaptureChunk::kSeqBlock + 2;
    chunk.first = first;
    chunk.capacity = rows;
    return chunk;
}

ProfileStore::ProfileStore(ProfileStore&& other) noexcept {
    *this = std::move(other);
}

ProfileStore& ProfileStore::operator=(ProfileStore&& other) noexcept {
    if (this != &other) {
        std::scoped_lock lock(mutex_, other.mutex_);
        pending_ = std::exchange(other.pending_, {});
        columns_ = std::move(other.columns_);
        seq_ = std::move(other.seq_);
    }
    return *this;
}

void ProfileStore::append(std::span<const AccessEvent> events) {
    std::scoped_lock lock(mutex_);
    // Fill the room left in the last pending chunk, then fresh chunks,
    // counting each batch as it is copied.
    while (!events.empty()) {
        PendingChunk* tail = pending_.empty() ? nullptr : &pending_.back();
        EventChunk* rows =
            tail == nullptr ? nullptr : std::get_if<EventChunk>(&tail->rows);
        if (rows == nullptr || rows->size == rows->capacity) {
            const std::size_t previous = rows != nullptr ? rows->capacity : 0;
            tail = &pending_.emplace_back();
            rows = &tail->rows.emplace<EventChunk>(next_event_chunk(previous));
        }
        const std::size_t n =
            std::min(events.size(), rows->capacity - rows->size);
        std::copy_n(events.begin(), n, rows->events.get() + rows->size);
        tail->counts.add(EventRows{events.data()}, n);
        rows->size += n;
        events = events.subspan(n);
    }
}

void ProfileStore::adopt(CaptureChain chain) {
    std::scoped_lock lock(mutex_);
    for (CaptureChunk& chunk : chain.chunks) {
        if (chunk.size == 0) continue;
        PendingChunk& pending = pending_.emplace_back();
        ChunkCounts& counts = pending.counts;
        if (chunk.counted) {
            // A tally holds registered ids only, never the sentinel, and
            // seqs ascend within a chain: the span is the first and last
            // rows' seqs, read off the side tables.
            counts.per_instance = std::move(chunk.tally);
            counts.any = true;
            counts.first_seq = chunk.seq(0);
            counts.last_seq = chunk.seq(chunk.size - 1);
        } else {
            counts.add(CaptureRows{&chunk, chain.thread}, chunk.size);
        }
        pending.rows = ThreadChunk{std::move(chunk), chain.thread};
    }
}

void ProfileStore::finalize(par::ThreadPool* pool) {
    std::scoped_lock lock(mutex_);
    finalize_locked(pool);
}

void ProfileStore::finalize_locked(par::ThreadPool* pool) const {
    if (pending_.empty()) return;
    if (columns_.total_events() > 0) {
        // Appends after an earlier finalize: the placed rows rejoin the
        // pending events in front, as events in row order, counted off
        // their ranges, and the placement below sorts it out.
        const std::size_t rows = columns_.total_events();
        PendingChunk placed{
            EventChunk{make_bulk_buffer<AccessEvent>(rows), rows, rows},
            placed_counts_locked()};
        AccessEvent* out = std::get<EventChunk>(placed.rows).events.get();
        for (std::size_t slot = 0; slot < columns_.instance_slots(); ++slot) {
            const auto id = static_cast<InstanceId>(slot);
            const ColumnRange range = columns_.range(id);
            for (std::size_t row = range.begin; row < range.end; ++row)
                out[row] = columns_.event(row, id, seq_[row]);
        }
        pending_.insert(pending_.begin(), std::move(placed));
    }

    // The placement reads a chunk through `fn(rows, n)`, compiled once per
    // row layout, and returns what `fn` returns.
    const auto visit_rows = [](const PendingChunk& chunk, auto&& fn) {
        return std::visit(
            [&](const auto& c) {
                if constexpr (std::is_same_v<std::decay_t<decltype(c)>,
                                             EventChunk>)
                    return fn(EventRows{c.events.get()}, c.size);
                else
                    return fn(CaptureRows{&c.rows, c.thread}, c.rows.size);
            },
            chunk.rows);
    };
    const auto chunk_size = [&](const PendingChunk& chunk) {
        return visit_rows(chunk, [](const auto&, std::size_t n) { return n; });
    };

    // Contiguous groups of chunks with roughly equal event totals, one per
    // pool chunk (the whole chain is one group without a pool).
    const std::size_t chunk_count = pending_.size();
    std::size_t staged = 0;
    for (const PendingChunk& chunk : pending_) staged += chunk_size(chunk);
    const std::size_t group_target =
        pool == nullptr
            ? 1
            : std::min(chunk_count, std::size_t{pool->thread_count()} * 4);
    std::vector<std::size_t> bounds{0};
    for (std::size_t c = 0, seen = 0; c < chunk_count; ++c) {
        seen += chunk_size(pending_[c]);
        if (seen * group_target >= staged * bounds.size() &&
            bounds.size() < group_target)
            bounds.push_back(c + 1);
    }
    if (bounds.back() != chunk_count) bounds.push_back(chunk_count);
    const std::size_t groups = bounds.size() - 1;

    // Sum each group's chunk counts per instance, and note whether the
    // chunks' seqs ascend end to end.  Slots end at the highest id with
    // an event (a tally spans every registered id).
    std::size_t slots = 0;
    bool ordered = true;
    const ChunkCounts* prev = nullptr;
    for (const PendingChunk& chunk : pending_) {
        const ChunkCounts& counts = chunk.counts;
        if (!counts.any) continue;
        const std::vector<std::uint32_t>& per = counts.per_instance;
        for (std::size_t id = per.size(); id > slots; --id)
            if (per[id - 1] != 0) slots = id;
        if (!counts.ordered ||
            (prev != nullptr && counts.first_seq < prev->last_seq))
            ordered = false;
        prev = &counts;
    }
    std::vector<std::vector<std::size_t>> next_rows(
        groups, std::vector<std::size_t>(slots, 0));
    for (std::size_t g = 0; g < groups; ++g) {
        for (std::size_t c = bounds[g]; c < bounds[g + 1]; ++c) {
            const std::vector<std::uint32_t>& per =
                pending_[c].counts.per_instance;
            const std::size_t n = std::min(per.size(), slots);
            for (std::size_t id = 0; id < n; ++id) next_rows[g][id] += per[id];
        }
    }

    {
        DSSPY_TRACE_SPAN("capture.finalize.place");
        // Row layout: instances in id order; within one, groups in chain
        // order.  Each group's counts become its first row per instance.
        std::size_t rows = 0;
        for (const std::vector<std::size_t>& counts : next_rows)
            for (const std::size_t count : counts) rows += count;
        columns_.allocate(rows, slots);
        seq_ = make_bulk_buffer<std::uint64_t>(rows);
        for (std::size_t id = 0, next = 0; id < slots; ++id) {
            const std::size_t begin = next;
            for (std::vector<std::size_t>& counts : next_rows)
                next += std::exchange(counts[id], next);
            columns_.set_range(static_cast<InstanceId>(id), begin, next);
        }

        // Every group writes its events to the rows its counts reserved —
        // stable within each instance — and frees each chunk once it is
        // placed.
        std::uint64_t* time_ns = columns_.mutable_time_ns();
        std::int64_t* position = columns_.mutable_position();
        std::uint32_t* size = columns_.mutable_sizes();
        std::uint8_t* op = columns_.mutable_op();
        std::uint16_t* thread = columns_.mutable_thread();
        std::uint64_t* seq = seq_.get();
        for_each_index(pool, groups, [&](std::size_t g) {
            std::size_t* next_row = next_rows[g].data();
            for (std::size_t c = bounds[g]; c < bounds[g + 1]; ++c) {
                visit_rows(pending_[c], [&](const auto& rows, std::size_t n) {
                    for (std::size_t i = 0; i < n; ++i) {
                        const AccessEvent ev = rows.at(i);
                        if (ev.instance == kInvalidInstance) continue;
                        const std::size_t row = next_row[ev.instance]++;
                        seq[row] = ev.seq;
                        time_ns[row] = ev.time_ns;
                        position[row] = ev.position;
                        size[row] = ev.size;
                        op[row] = static_cast<std::uint8_t>(ev.op);
                        thread[row] = ev.thread;
                    }
                });
                pending_[c].rows = EventChunk();  // frees the placed chunk
            }
        });
        pending_.clear();
    }

    // A chain whose seqs ascend end to end left every instance in order.
    // Otherwise re-sort the instances whose rows are not.
    if (ordered) return;
    DSSPY_TRACE_SPAN("capture.finalize.sort");
    std::uint64_t* seq = seq_.get();
    for_each_index(pool, slots, [&](std::size_t id) {
        const ColumnRange range = columns_.range(static_cast<InstanceId>(id));
        for (std::size_t row = range.begin + 1; row < range.end; ++row) {
            if (seq[row] < seq[row - 1]) {
                sort_rows(columns_, seq, nullptr, range.begin, range.end);
                return;
            }
        }
    });
}

ProfileStore::ChunkCounts ProfileStore::placed_counts_locked() const {
    // Rows are laid out in instance id order and ascend in seq within
    // each instance, so the span checks only the range boundaries.
    ChunkCounts counts;
    counts.per_instance.resize(columns_.instance_slots());
    for (std::size_t slot = 0; slot < columns_.instance_slots(); ++slot) {
        const ColumnRange range = columns_.range(static_cast<InstanceId>(slot));
        if (range.empty()) continue;
        counts.per_instance[slot] = static_cast<std::uint32_t>(range.size());
        if (!counts.any)
            counts.first_seq = seq_[range.begin];
        else if (seq_[range.begin] < counts.last_seq)
            counts.ordered = false;
        counts.last_seq = seq_[range.end - 1];
        counts.any = true;
    }
    return counts;
}

const ColumnStore& ProfileStore::columns(par::ThreadPool* pool) const {
    std::scoped_lock lock(mutex_);
    finalize_locked(pool);
    return columns_;
}

const std::uint64_t* ProfileStore::seq(par::ThreadPool* pool) const {
    std::scoped_lock lock(mutex_);
    finalize_locked(pool);
    return seq_.get();
}

std::size_t ProfileStore::total_events() const {
    return columns().total_events();
}

std::size_t ProfileStore::populated_instances() const {
    const ColumnStore& cols = columns();
    std::size_t count = 0;
    for (std::size_t id = 0; id < cols.instance_slots(); ++id)
        if (!cols.range(static_cast<InstanceId>(id)).empty()) ++count;
    return count;
}

std::size_t ProfileStore::instance_slots() const {
    return columns().instance_slots();
}

std::size_t ProfileStore::orphan_events(
    std::size_t registered_instances) const {
    const ColumnStore& cols = columns();
    std::size_t orphans = 0;
    for (std::size_t id = registered_instances; id < cols.instance_slots();
         ++id)
        orphans += cols.range(static_cast<InstanceId>(id)).size();
    return orphans;
}

}  // namespace dsspy::runtime
