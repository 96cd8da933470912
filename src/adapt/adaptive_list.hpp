// AdaptiveList<T> — a list that acts on its own DSspy verdicts.
//
// The profiler's output used to be prose for an engineer; the Advice
// refactor made it a typed value, and this container is the consumer that
// closes the loop.  Every operation is folded into an embedded
// core::IncrementalAnalyzer using the exact recording conventions of
// ds::ProfiledList (same op kinds, positions, sizes), so the verdicts the
// container sees are bit-identical to what offline analysis of the same
// access stream would produce.  Every `reclassify_interval` operations
// the container snapshots its analyzer, feeds the verdict signals to the
// damped adapt::HysteresisController, and — at that safe point, under the
// write lock — migrates its backing strategy:
//
//   Frequent-Search      -> Indexed     (value -> index dictionary; the
//                                        paper's "data structure that is
//                                        optimized for searches")
//   Long-Insert / SAI /
//   Frequent-Long-Read   -> Parallel    (whole-container reads fan out
//                                        over parallel::ThreadPool)
//   Implement-Queue /
//   Insert-Delete-Front  -> DequeBacked (O(1) front inserts/deletes)
//
// Threading: a std::shared_mutex.  Reads take the shared lock; mutations
// and strategy migrations take the exclusive lock.  Whether an operation
// is the one that crosses the reclassification interval is decided by an
// atomic counter *before* locking, so a read-only phase still
// reclassifies (that op upgrades itself to the exclusive lock) and a
// migration can never run under a shared lock.  Event folding has its own
// serialization point (fold_mutex_) because IncrementalAnalyzer requires
// per-instance seq order: two readers under the shared lock must not be
// able to fold out of the order their seqs were issued in, so seq
// assignment and the fold happen under one lock.  Read methods are const
// but may adapt the internal representation — mutable members, the
// self-organizing-container idiom.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <utility>

#include "adapt/controller.hpp"
#include "core/incremental.hpp"
#include "ds/list.hpp"
#include "ds/type_names.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "runtime/access_event.hpp"

namespace dsspy::adapt {

namespace detail {

/// Process-wide compact thread slot for synthesized events (the adaptive
/// containers have no ProfilingSession to assign dense ids).
inline runtime::ThreadId thread_slot() noexcept {
    static std::atomic<std::uint16_t> next{0};
    thread_local const std::uint16_t slot =
        next.fetch_add(1, std::memory_order_relaxed);
    return slot;
}

/// Self-telemetry for the adaptive layer (registered once, shared by all
/// instances; no-ops while obs is disabled).
struct AdaptMetrics {
    obs::MetricId switches;
    obs::MetricId reclassifications;
    obs::MetricId suppressed;

    static const AdaptMetrics& get() {
        static const AdaptMetrics m{
            obs::MetricsRegistry::global().counter("adapt.switches"),
            obs::MetricsRegistry::global().counter(
                "adapt.reclassifications"),
            obs::MetricsRegistry::global().counter(
                "adapt.suppressed_switches"),
        };
        return m;
    }
};

}  // namespace detail

/// Tuning for an adaptive container.
struct AdaptConfig {
    /// Operations between reclassifications (the analyzer fold runs every
    /// operation; only the classify + controller step is periodic).
    std::size_t reclassify_interval = 256;
    ControllerConfig controller{};
    core::DetectorConfig detector{};
};

/// Self-adapting List<T>.  API and recorded-event semantics mirror
/// ds::ProfiledList; see the file comment for the strategy loop.
template <typename T>
class AdaptiveList {
public:
    explicit AdaptiveList(AdaptConfig config = {},
                          support::SourceLoc location = {"AdaptiveList",
                                                         "self", 0})
        : config_(config),
          analyzer_(config.detector),
          controller_(config.controller) {
        info_.id = 0;
        info_.kind = runtime::DsKind::List;
        info_.type_name = ds::container_type_name<T>("AdaptiveList");
        info_.location = std::move(location);
        analyzer_.declare_instance(info_);
    }

    AdaptiveList(const AdaptiveList&) = delete;
    AdaptiveList& operator=(const AdaptiveList&) = delete;

    // --- element access ---------------------------------------------------

    /// Indexer read; by value — a reference could dangle across a
    /// concurrent backing migration.
    [[nodiscard]] T get(std::size_t index) const {
        return read_op(runtime::OpKind::Get,
                       static_cast<std::int64_t>(index),
                       [index](const AdaptiveList& self) {
                           return self.backing_get(index);
                       });
    }

    void set(std::size_t index, T value) {
        std::unique_lock lock(mutex_);
        fold(runtime::OpKind::Set, static_cast<std::int64_t>(index),
             backing_count());
        std::optional<T> old;
        if (index_) old = backing_get(index);
        if (deque_) {
            (*deque_)[index] = std::move(value);
        } else {
            list_.set(index, std::move(value));
        }
        if (index_ && !(*old == backing_get(index))) {
            index_remove_occurrence(*old, index);
            index_add(backing_get(index), index);
        }
        maybe_reclassify(lock);
    }

    // --- size -------------------------------------------------------------

    [[nodiscard]] std::size_t count() const {
        std::shared_lock lock(mutex_);
        return backing_count();
    }
    [[nodiscard]] bool empty() const { return count() == 0; }

    // --- mutation ---------------------------------------------------------

    /// Append; recorded as Add at the landing index.
    void add(T value) {
        std::unique_lock lock(mutex_);
        const std::size_t landing = backing_count();
        if (deque_) {
            deque_->push_back(value);
        } else {
            list_.add(value);
        }
        fold(runtime::OpKind::Add, static_cast<std::int64_t>(landing),
             backing_count());
        // Appends shift nothing: a single occurrence bump keeps the index
        // exact.
        if (index_) index_add(value, landing);
        maybe_reclassify(lock);
    }

    /// Positional insert; recorded as InsertAt.
    void insert(std::size_t index, T value) {
        std::unique_lock lock(mutex_);
        if (index_) {
            index_shift_up(index);
            index_add(value, index);
        }
        if (deque_) {
            deque_->insert(deque_->begin() +
                               static_cast<std::ptrdiff_t>(index),
                           std::move(value));
        } else {
            list_.insert(index, std::move(value));
        }
        fold(runtime::OpKind::InsertAt, static_cast<std::int64_t>(index),
             backing_count());
        maybe_reclassify(lock);
    }

    /// Positional removal; recorded as RemoveAt.
    void remove_at(std::size_t index) {
        std::unique_lock lock(mutex_);
        erase_at(index);
        fold(runtime::OpKind::RemoveAt, static_cast<std::int64_t>(index),
             backing_count());
        maybe_reclassify(lock);
    }

    /// Remove first equal element; search + removal both recorded (the
    /// ProfiledList convention), both inside one exclusive critical
    /// section — the found index must not go stale under a concurrent
    /// mutation between the search and the erase.
    bool remove(const T& value) {
        std::unique_lock lock(mutex_);
        const std::ptrdiff_t idx = backing_index_of(value);
        fold(runtime::OpKind::IndexOf,
             idx >= 0 ? idx : runtime::kWholeContainer, backing_count());
        // The search counts as one operation; a reclassification here may
        // migrate the backing, which preserves element order, so idx
        // stays valid.
        maybe_reclassify(lock);
        if (idx < 0) return false;
        erase_at(static_cast<std::size_t>(idx));
        fold(runtime::OpKind::RemoveAt, idx, backing_count());
        maybe_reclassify(lock);
        return true;
    }

    void clear() {
        std::unique_lock lock(mutex_);
        if (deque_) {
            deque_->clear();
        } else {
            list_.clear();
        }
        if (index_) index_->clear();
        fold(runtime::OpKind::Clear, runtime::kWholeContainer, 0);
        maybe_reclassify(lock);
    }

    // --- whole-container operations ---------------------------------------

    /// Linear search — unless the Indexed strategy holds a value -> index
    /// dictionary (O(1)) or the Parallel strategy fans the scan out in
    /// chunks.  Recorded as IndexOf with the hit position.
    [[nodiscard]] std::ptrdiff_t index_of(const T& value) const {
        return read_op_with_position(
            [&value](const AdaptiveList& self) {
                return self.backing_index_of(value);
            });
    }

    [[nodiscard]] bool contains(const T& value) const {
        return index_of(value) >= 0;
    }

    void sort() {
        std::unique_lock lock(mutex_);
        if (deque_) {
            std::sort(deque_->begin(), deque_->end());
        } else {
            list_.sort();
        }
        fold(runtime::OpKind::Sort, runtime::kWholeContainer,
             backing_count());
        if (index_) rebuild_index();
        maybe_reclassify(lock);
    }

    void reverse() {
        std::unique_lock lock(mutex_);
        if (deque_) {
            std::reverse(deque_->begin(), deque_->end());
        } else {
            list_.reverse();
        }
        fold(runtime::OpKind::Reverse, runtime::kWholeContainer,
             backing_count());
        if (index_) rebuild_index();
        maybe_reclassify(lock);
    }

    /// Whole-container traversal; recorded as a single ForEach event.
    /// Under the Parallel strategy `fn` runs on pool workers over
    /// disjoint chunks — it must be thread-safe then (it is called
    /// sequentially, in order, under every other strategy).
    template <typename Fn>
    void for_each(Fn fn) const {
        const bool reclassify = crosses_interval();
        if (reclassify) {
            std::unique_lock lock(mutex_);
            fold(runtime::OpKind::ForEach, runtime::kWholeContainer,
                 backing_count());
            backing_for_each(fn);
            do_reclassify();
            return;
        }
        std::shared_lock lock(mutex_);
        fold(runtime::OpKind::ForEach, runtime::kWholeContainer,
             backing_count());
        backing_for_each(fn);
    }

    // --- adaptation introspection -----------------------------------------

    [[nodiscard]] Strategy strategy() const {
        std::shared_lock lock(mutex_);
        return controller_.current();
    }

    /// Completed backing migrations (the thrash counter).
    [[nodiscard]] std::size_t switch_count() const {
        std::shared_lock lock(mutex_);
        return controller_.switch_count();
    }

    /// Switches the hysteresis suppressed.
    [[nodiscard]] std::size_t suppressed_count() const {
        std::shared_lock lock(mutex_);
        return controller_.suppressed_count();
    }

    /// Current verdicts of the embedded analyzer — what offline analysis
    /// of the same access stream would report right now.
    [[nodiscard]] std::vector<core::UseCase> verdicts() const {
        std::shared_lock lock(mutex_);
        return current_verdicts();
    }

    [[nodiscard]] std::uint64_t events_folded() const {
        return analyzer_.events_folded();
    }

private:
    // --- backing dispatch (callers hold a lock) ---------------------------

    [[nodiscard]] std::size_t backing_count() const {
        return deque_ ? deque_->size() : list_.count();
    }

    [[nodiscard]] T backing_get(std::size_t index) const {
        return deque_ ? (*deque_)[index] : list_.get(index);
    }

    [[nodiscard]] std::ptrdiff_t backing_index_of(const T& value) const {
        if (index_) {
            const auto it = index_->find(value);
            return it != index_->end()
                       ? static_cast<std::ptrdiff_t>(it->second.first)
                       : -1;
        }
        if (deque_) {
            for (std::size_t i = 0; i < deque_->size(); ++i)
                if ((*deque_)[i] == value)
                    return static_cast<std::ptrdiff_t>(i);
            return -1;
        }
        if (controller_.current() == Strategy::Parallel &&
            list_.count() >= 2048) {
            // Chunked parallel scan; the atomic min keeps the
            // first-occurrence answer deterministic.
            std::atomic<std::size_t> first{list_.count()};
            par::parallel_for_chunks(
                0, list_.count(),
                [this, &value, &first](std::size_t lo, std::size_t hi) {
                    if (lo >= first.load(std::memory_order_relaxed)) return;
                    for (std::size_t i = lo; i < hi; ++i) {
                        if (list_.get(i) == value) {
                            std::size_t cur =
                                first.load(std::memory_order_relaxed);
                            while (i < cur &&
                                   !first.compare_exchange_weak(cur, i)) {
                            }
                            return;
                        }
                    }
                });
            const std::size_t hit = first.load(std::memory_order_relaxed);
            return hit < list_.count()
                       ? static_cast<std::ptrdiff_t>(hit)
                       : -1;
        }
        return list_.index_of(value);
    }

    template <typename Fn>
    void backing_for_each(Fn& fn) const {
        if (deque_) {
            for (const T& v : *deque_) fn(v);
            return;
        }
        if (controller_.current() == Strategy::Parallel &&
            list_.count() >= 2048) {
            par::parallel_for_chunks(
                0, list_.count(),
                [this, &fn](std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i) fn(list_.get(i));
                });
            return;
        }
        list_.for_each([&fn](const T& v) { fn(v); });
    }

    // --- erase + index maintenance (callers hold the exclusive lock) ------

    /// Erase the element at `index`, keeping the search index (when the
    /// Indexed strategy holds one) exact.
    void erase_at(std::size_t index) {
        std::optional<T> old;
        if (index_) old = backing_get(index);
        if (deque_) {
            deque_->erase(deque_->begin() +
                          static_cast<std::ptrdiff_t>(index));
        } else {
            list_.remove_at(index);
        }
        if (index_) index_erase_at(*old, index);
    }

    /// One more occurrence of `value` now lives at `index` (no positions
    /// shifted).  O(1).
    void index_add(const T& value, std::size_t index) const {
        auto [it, fresh] = index_->try_emplace(value, IndexEntry{index, 0});
        ++it->second.count;
        if (index < it->second.first) it->second.first = index;
    }

    /// The occurrence of `value` at `index` was overwritten in place (no
    /// positions shifted).  O(1) unless the canonical occurrence of a
    /// duplicated value was hit, which re-derives by a targeted scan.
    void index_remove_occurrence(const T& value, std::size_t index) const {
        const auto it = index_->find(value);
        if (it == index_->end()) return;
        if (it->second.count <= 1) {
            index_->erase(it);
            return;
        }
        --it->second.count;
        if (it->second.first == index)
            it->second.first = scan_first(value, index);
    }

    /// All occurrences at positions >= `index` are about to shift up by
    /// one (positional insert).  O(distinct values), no element rescan.
    void index_shift_up(std::size_t index) const {
        for (auto& [value, entry] : *index_)
            if (entry.first >= index) ++entry.first;
    }

    /// The element at `index` (holding `value`) was erased and everything
    /// behind it shifted down by one.  Called after the backing erase.
    void index_erase_at(const T& value, std::size_t index) const {
        const auto it = index_->find(value);
        for (auto& [v, entry] : *index_)
            if (entry.first > index) --entry.first;
        if (it == index_->end()) return;
        if (it->second.count <= 1) {
            index_->erase(it);
            return;
        }
        --it->second.count;
        // The erased occurrence was the canonical one: re-derive from the
        // already-shifted backing.
        if (it->second.first == index)
            it->second.first = scan_first(value, backing_count());
    }

    /// First occurrence of `value` in the backing, ignoring `skip`.
    /// Only reached when duplicates guarantee a hit.
    [[nodiscard]] std::size_t scan_first(const T& value,
                                         std::size_t skip) const {
        const std::size_t n = backing_count();
        for (std::size_t i = 0; i < n; ++i)
            if (i != skip && backing_get(i) == value) return i;
        return n;  // Unreachable while counts are consistent.
    }

    // --- event synthesis ---------------------------------------------------

    /// Fold one synthesized event, mirroring ds::ProfiledList's recording
    /// conventions (op, position, size-at-access).  Seq issue and fold
    /// happen under one lock: IncrementalAnalyzer requires per-instance
    /// seq order, and two shared-lock readers must not reorder between
    /// taking a seq and folding it.
    void fold(runtime::OpKind op, std::int64_t position,
              std::size_t size) const {
        runtime::AccessEvent ev;
        ev.position = position;
        ev.instance = info_.id;
        ev.size = static_cast<std::uint32_t>(size);
        ev.op = op;
        ev.thread = detail::thread_slot();
        const std::lock_guard<std::mutex> guard(fold_mutex_);
        ev.seq = seq_++;
        ev.time_ns = ev.seq;  // Logical clock: classification under the
                              // default config is event-based.
        analyzer_.fold(ev);
    }

    // --- reclassification & migration -------------------------------------

    /// Pre-lock decision: is this the operation that crosses the
    /// reclassification interval?
    [[nodiscard]] bool crosses_interval() const {
        const std::uint64_t n =
            ops_.fetch_add(1, std::memory_order_relaxed) + 1;
        return config_.reclassify_interval != 0 &&
               n % config_.reclassify_interval == 0;
    }

    void maybe_reclassify(std::unique_lock<std::shared_mutex>&) const {
        if (crosses_interval()) do_reclassify();
    }

    [[nodiscard]] std::vector<core::UseCase> current_verdicts() const {
        const core::AnalysisResult result = analyzer_.snapshot({info_});
        return result.all_use_cases();
    }

    /// Runs under the exclusive lock: classify, consult the controller,
    /// migrate the backing if the strategy changed.
    void do_reclassify() const {
        const std::vector<core::UseCase> verdicts = current_verdicts();
        std::vector<AdviceSignal> signals;
        signals.reserve(verdicts.size());
        for (const core::UseCase& uc : verdicts)
            signals.push_back({uc.advice.action, uc.confidence()});
        const std::uint64_t now = ops_.load(std::memory_order_relaxed);
        const std::size_t delta =
            static_cast<std::size_t>(now - last_observed_ops_);
        last_observed_ops_ = now;
        const Strategy before = controller_.current();
        const std::size_t suppressed_before = controller_.suppressed_count();
        const Strategy after = controller_.observe(
            signals.data(), signals.size(), backing_count(), delta);
        if (obs::enabled()) {
            const auto& m = detail::AdaptMetrics::get();
            obs::MetricsRegistry::global().add(m.reclassifications);
            const std::size_t newly_suppressed =
                controller_.suppressed_count() - suppressed_before;
            if (newly_suppressed > 0)
                obs::MetricsRegistry::global().add(m.suppressed,
                                                   newly_suppressed);
        }
        if (after != before) migrate(before, after);
    }

    void migrate(Strategy from, Strategy to) const {
        DSSPY_TRACE_SPAN("adapt.switch");
        if (obs::enabled())
            obs::MetricsRegistry::global().add(
                detail::AdaptMetrics::get().switches);
        // Leave the old backing.
        if (from == Strategy::DequeBacked && to != Strategy::DequeBacked) {
            list_.clear();
            list_.reserve(deque_->size());
            for (T& v : *deque_) list_.add(std::move(v));
            deque_.reset();
        }
        if (from == Strategy::Indexed && to != Strategy::Indexed)
            index_.reset();
        // Enter the new one.
        switch (to) {
            case Strategy::Indexed:
                index_.emplace();
                rebuild_index();
                break;
            case Strategy::DequeBacked: {
                deque_.emplace();
                for (std::size_t i = 0; i < list_.count(); ++i)
                    deque_->push_back(std::move(list_[i]));
                list_.clear();
                break;
            }
            default:
                break;
        }
    }

    /// Full rebuild of the value -> (first index, count) map — only for
    /// wholesale reorderings (sort/reverse, entering Indexed); point
    /// mutations maintain the map incrementally.
    void rebuild_index() const {
        index_->clear();
        for (std::size_t i = 0; i < list_.count(); ++i) {
            auto [it, fresh] =
                index_->try_emplace(list_.get(i), IndexEntry{i, 0});
            ++it->second.count;
        }
    }

    // --- read-path helpers --------------------------------------------------

    /// A read operation: shared lock normally; the interval-crossing op
    /// takes the exclusive lock so it can reclassify (and migrate) at a
    /// safe point.
    template <typename Body>
    [[nodiscard]] auto read_op(runtime::OpKind op, std::int64_t position,
                               Body body) const {
        const bool reclassify = crosses_interval();
        if (reclassify) {
            std::unique_lock lock(mutex_);
            fold(op, position, backing_count());
            auto result = body(*this);
            do_reclassify();
            return result;
        }
        std::shared_lock lock(mutex_);
        fold(op, position, backing_count());
        return body(*this);
    }

    /// index_of variant: the recorded position is the hit index (or
    /// kWholeContainer on miss), known only after the search.
    template <typename Body>
    [[nodiscard]] std::ptrdiff_t read_op_with_position(Body body) const {
        const bool reclassify = crosses_interval();
        if (reclassify) {
            std::unique_lock lock(mutex_);
            const std::ptrdiff_t idx = body(*this);
            fold(runtime::OpKind::IndexOf,
                 idx >= 0 ? idx : runtime::kWholeContainer,
                 backing_count());
            do_reclassify();
            return idx;
        }
        std::shared_lock lock(mutex_);
        const std::ptrdiff_t idx = body(*this);
        fold(runtime::OpKind::IndexOf,
             idx >= 0 ? idx : runtime::kWholeContainer, backing_count());
        return idx;
    }

    /// Search-index bookkeeping: smallest index holding the value plus
    /// its occurrence count, so point mutations update in O(1) and only
    /// erasing the canonical occurrence of a duplicate needs a rescan.
    struct IndexEntry {
        std::size_t first = 0;
        std::size_t count = 0;
    };

    AdaptConfig config_;
    runtime::InstanceInfo info_;

    mutable std::shared_mutex mutex_;
    mutable ds::List<T> list_;
    mutable std::optional<std::deque<T>> deque_;
    mutable std::optional<std::unordered_map<T, IndexEntry>> index_;

    mutable core::IncrementalAnalyzer analyzer_;
    mutable HysteresisController controller_;
    mutable std::mutex fold_mutex_;
    mutable std::uint64_t seq_ = 0;
    mutable std::atomic<std::uint64_t> ops_{0};
    mutable std::uint64_t last_observed_ops_ = 0;
};

}  // namespace dsspy::adapt
