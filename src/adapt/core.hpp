// AdaptiveCore — the loop every adaptive container shares.
//
// An adaptive container folds each of its operations, as the event a
// profiled container would record, into one core::InstanceFold — the
// per-instance state the incremental analyzer keeps.  Every
// `reclassify_interval` operations it classifies that state as the
// analyzer's snapshot would, feeds the verdicts to the damped
// adapt::HysteresisController and, when the strategy changes, migrates its
// backing.  The core owns all of that: the config, the instance
// declaration, the lock, the fold, the controller and the fold sequence.
// A container derives from it privately and supplies its element count
// and its migration.  ValueIndex, below, is the Indexed strategy's value
// -> first position index that both containers keep.
//
// Threading: a std::shared_mutex.  Reads take the shared lock; mutations
// and strategy migrations take the exclusive lock.  Whether an operation
// is the one that crosses the reclassification interval is decided by an
// atomic counter *before* locking, so a read-only phase still
// reclassifies (that op upgrades itself to the exclusive lock) and a
// migration can never run under a shared lock.  Event folding has its own
// serialization point (fold_mutex_) because the fold requires seq order:
// two readers under the shared lock must not be able to fold out of the
// order their seqs were issued in, so seq assignment and the fold happen
// under one lock.  Read methods are const but may adapt the internal
// representation — mutable members, the self-organizing-container idiom.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "adapt/controller.hpp"
#include "core/instance_fold.hpp"
#include "core/use_cases.hpp"
#include "runtime/access_event.hpp"
#include "runtime/instance_registry.hpp"

namespace dsspy::adapt {

/// Tuning for an adaptive container.
struct AdaptConfig {
    /// Operations between reclassifications (the analyzer fold runs every
    /// operation; only the classify + controller step is periodic).
    std::size_t reclassify_interval = 256;
    ControllerConfig controller{};
    core::DetectorConfig detector{};
};

/// Under the Parallel strategy, whole-container traversals and scans fan
/// out over the pool from this many elements; smaller ones stay on the
/// calling thread.
inline constexpr std::size_t kParallelMinSize = 2048;

class AdaptiveCore {
public:
    AdaptiveCore(const AdaptiveCore&) = delete;
    AdaptiveCore& operator=(const AdaptiveCore&) = delete;

    /// Element count; not an operation, so it folds nothing.
    [[nodiscard]] std::size_t count() const {
        std::shared_lock lock(mutex_);
        return element_count();
    }
    [[nodiscard]] bool empty() const { return count() == 0; }

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

    /// Current verdicts of the fold — what offline analysis of the same
    /// access stream would report right now.
    [[nodiscard]] std::vector<core::UseCase> verdicts() const {
        std::shared_lock lock(mutex_);
        return classify();
    }

    [[nodiscard]] std::uint64_t events_folded() const {
        const std::lock_guard<std::mutex> guard(fold_mutex_);
        return fold_.aggregates.events();
    }

protected:
    /// Declares the container as instance 0 of its own access stream.
    AdaptiveCore(const AdaptConfig& config, runtime::DsKind kind,
                 std::string type_name, support::SourceLoc location);
    virtual ~AdaptiveCore() = default;

    /// The container's element count; the caller holds a lock.
    [[nodiscard]] virtual std::size_t element_count() const = 0;

    /// Move the backing from one strategy to another (from != to).
    virtual void migrate(Strategy from, Strategy to) const = 0;

    /// Fold one synthesized event at `position`, following the recording
    /// conventions of the matching profiled container; the recorded size
    /// is element_count() at the call.
    void fold(runtime::OpKind op, std::int64_t position) const;

    /// Run one read operation: under the shared lock, or under the
    /// exclusive lock followed by a reclassification when this operation
    /// crosses the interval.
    template <typename Body>
    auto read(Body body) const {
        if (crosses_interval()) {
            std::unique_lock lock(mutex_);
            return then(body, [this] { reclassify(); });
        }
        std::shared_lock lock(mutex_);
        return body();
    }

    /// Run one mutation under the exclusive lock, then count it.
    template <typename Body>
    auto write(Body body) {
        std::unique_lock lock(mutex_);
        return then(body, [this] { maybe_reclassify(); });
    }

    /// Count one operation inside a write() body that performs two.
    void maybe_reclassify() const {
        if (crosses_interval()) reclassify();
    }

    /// Whether a whole-container traversal or scan of `n` elements fans
    /// out over the pool: under the Parallel strategy, from
    /// kParallelMinSize elements.  Callers hold a lock.
    [[nodiscard]] bool runs_parallel(std::size_t n) const {
        return controller_.current() == Strategy::Parallel &&
               n >= kParallelMinSize;
    }

private:
    template <typename Body, typename Next>
    static auto then(Body& body, Next next) {
        if constexpr (std::is_void_v<std::invoke_result_t<Body&>>) {
            body();
            next();
        } else {
            auto result = body();
            next();
            return result;
        }
    }

    /// Pre-lock decision: is this the operation that crosses the
    /// reclassification interval?
    [[nodiscard]] bool crosses_interval() const {
        const std::uint64_t n =
            ops_.fetch_add(1, std::memory_order_relaxed) + 1;
        return config_.reclassify_interval != 0 &&
               n % config_.reclassify_interval == 0;
    }

    /// Under the exclusive lock: classify, consult the controller, and
    /// migrate the backing if the strategy changed.
    void reclassify() const;

    /// Classify a copy of the fold whose open pattern runs are flushed,
    /// as if the stream ended here.  The caller holds mutex_.
    [[nodiscard]] std::vector<core::UseCase> classify() const;

    AdaptConfig config_;
    runtime::InstanceInfo info_;
    core::UseCaseEngine engine_;

    mutable std::shared_mutex mutex_;
    mutable HysteresisController controller_;
    mutable std::mutex fold_mutex_;
    mutable core::InstanceFold fold_;  ///< Guarded by fold_mutex_.
    mutable std::uint64_t seq_ = 0;
    mutable std::atomic<std::uint64_t> ops_{0};
    mutable std::uint64_t last_observed_ops_ = 0;
};

/// The search index behind the Indexed strategy: each value of a dense
/// sequence maps to its first position and its occurrence count.  Point
/// mutations update it in O(1), except that a positional insert or erase
/// shifts the stored positions (O(distinct values)) and displacing the
/// first occurrence of a duplicated value re-derives it by one scan of the
/// sequence.  Only wholesale reorderings (sort, reverse, entering the
/// strategy) rebuild it.  The methods that may rescan take the sequence as
/// `n` plus an accessor `at(i)` returning the value at dense position i,
/// already updated for the mutation being reported.
template <typename V>
class ValueIndex {
public:
    /// First dense position holding `value`, or -1.
    [[nodiscard]] std::ptrdiff_t find(const V& value) const {
        const auto it = map_.find(value);
        return it != map_.end() ? static_cast<std::ptrdiff_t>(it->second.first)
                                : -1;
    }

    /// One more occurrence of `value` now lives at `pos`; no positions
    /// shifted.
    void add(const V& value, std::size_t pos) {
        auto [it, fresh] = map_.try_emplace(value, Entry{pos, 0});
        ++it->second.count;
        if (pos < it->second.first) it->second.first = pos;
    }

    /// The occurrence of `old` at `pos` was overwritten with `now`.
    template <typename At>
    void overwrite(const V& old, const V& now, std::size_t pos, std::size_t n,
                   At at) {
        if (old == now) return;
        drop(old, pos, n, at);
        add(now, pos);
    }

    /// Every occurrence at `pos` or behind it is about to shift up by one
    /// (positional insert).
    void shift_up(std::size_t pos) {
        for (auto& [value, entry] : map_)
            if (entry.first >= pos) ++entry.first;
    }

    /// The occurrence of `value` at `pos` was erased and everything behind
    /// it shifted down by one.
    template <typename At>
    void erase(const V& value, std::size_t pos, std::size_t n, At at) {
        for (auto& [v, entry] : map_)
            if (entry.first > pos) --entry.first;
        drop(value, pos, n, at);
    }

    template <typename At>
    void rebuild(std::size_t n, At at) {
        map_.clear();
        for (std::size_t i = 0; i < n; ++i) {
            auto [it, fresh] = map_.try_emplace(at(i), Entry{i, 0});
            ++it->second.count;
        }
    }

    void clear() { map_.clear(); }

private:
    /// One occurrence of `value`, at `pos`, is gone.  Only when it was the
    /// first of several is the new first found by scanning; the remaining
    /// duplicates guarantee a hit.
    template <typename At>
    void drop(const V& value, std::size_t pos, std::size_t n, At at) {
        const auto it = map_.find(value);
        if (it == map_.end()) return;
        if (it->second.count <= 1) {
            map_.erase(it);
            return;
        }
        --it->second.count;
        if (it->second.first != pos) return;
        std::size_t i = 0;
        while (i < n && !(at(i) == value)) ++i;
        it->second.first = i;
    }

    struct Entry {
        std::size_t first = 0;
        std::size_t count = 0;
    };

    std::unordered_map<V, Entry> map_;
};

}  // namespace dsspy::adapt
