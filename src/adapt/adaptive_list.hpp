// AdaptiveList<T> — a list that acts on its own DSspy verdicts.
//
// The profiler's output used to be prose for an engineer; the Advice
// refactor made it a typed value, and this container is the consumer that
// closes the loop.  Every operation is folded into the embedded analyzer
// of adapt::AdaptiveCore using the exact recording conventions of
// ds::ProfiledList (same op kinds, positions, sizes), so the verdicts the
// container sees are bit-identical to what offline analysis of the same
// access stream would produce.  At each reclassification the core may
// move the list to another backing strategy:
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
// Locking and the reclassification schedule are the core's (core.hpp).
// The Indexed strategy always runs on the list backing: the deque exists
// only under DequeBacked.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <utility>

#include "adapt/core.hpp"
#include "ds/list.hpp"
#include "ds/type_names.hpp"
#include "parallel/algorithms.hpp"
#include "parallel/parallel_for.hpp"

namespace dsspy::adapt {

/// Self-adapting List<T>.  API and recorded-event semantics mirror
/// ds::ProfiledList; see the file comment for the strategy loop.
template <typename T>
class AdaptiveList : private AdaptiveCore {
public:
    explicit AdaptiveList(AdaptConfig config = {},
                          support::SourceLoc location = {"AdaptiveList",
                                                         "self", 0})
        : AdaptiveCore(config, runtime::DsKind::List,
                       ds::container_type_name<T>("AdaptiveList"),
                       std::move(location)) {}

    // --- element access ---------------------------------------------------

    /// Indexer read; by value — a reference could dangle across a
    /// concurrent backing migration.
    [[nodiscard]] T get(std::size_t index) const {
        return read([&] {
            fold(runtime::OpKind::Get, static_cast<std::int64_t>(index));
            return deque_ ? (*deque_)[index] : list_.get(index);
        });
    }

    void set(std::size_t index, T value) {
        write([&] {
            fold(runtime::OpKind::Set, static_cast<std::int64_t>(index));
            if (deque_) {
                (*deque_)[index] = std::move(value);
                return;
            }
            const T old = std::exchange(list_[index], std::move(value));
            if (index_)
                index_->overwrite(old, list_.get(index), index,
                                  list_.count(), values_at());
        });
    }

    // --- size -------------------------------------------------------------

    using AdaptiveCore::count;
    using AdaptiveCore::empty;

    // --- mutation ---------------------------------------------------------

    /// Append; recorded as Add at the landing index.
    void add(T value) {
        write([&] {
            const std::size_t landing = element_count();
            if (deque_) {
                deque_->push_back(value);
            } else {
                list_.add(value);
            }
            fold(runtime::OpKind::Add, static_cast<std::int64_t>(landing));
            // Appends shift nothing: a single occurrence bump keeps the
            // index exact.
            if (index_) index_->add(value, landing);
        });
    }

    /// Positional insert; recorded as InsertAt.
    void insert(std::size_t index, T value) {
        write([&] {
            if (index_) {
                index_->shift_up(index);
                index_->add(value, index);
            }
            if (deque_) {
                deque_->insert(deque_->begin() +
                                   static_cast<std::ptrdiff_t>(index),
                               std::move(value));
            } else {
                list_.insert(index, std::move(value));
            }
            fold(runtime::OpKind::InsertAt, static_cast<std::int64_t>(index));
        });
    }

    /// Positional removal; recorded as RemoveAt.
    void remove_at(std::size_t index) {
        write([&] {
            erase_at(index);
            fold(runtime::OpKind::RemoveAt, static_cast<std::int64_t>(index));
        });
    }

    /// Remove first equal element; search + removal both recorded (the
    /// ProfiledList convention), both inside one exclusive critical
    /// section — the found index must not go stale under a concurrent
    /// mutation between the search and the erase.
    bool remove(const T& value) {
        return write([&] {
            const std::ptrdiff_t idx = backing_index_of(value);
            fold(runtime::OpKind::IndexOf,
                 idx >= 0 ? idx : runtime::kWholeContainer);
            if (idx < 0) return false;
            // The search counts as one operation; a reclassification here
            // may migrate the backing, which preserves element order, so
            // idx stays valid.
            maybe_reclassify();
            erase_at(static_cast<std::size_t>(idx));
            fold(runtime::OpKind::RemoveAt, idx);
            return true;
        });
    }

    void clear() {
        write([&] {
            if (deque_) {
                deque_->clear();
            } else {
                list_.clear();
            }
            if (index_) index_->clear();
            fold(runtime::OpKind::Clear, runtime::kWholeContainer);
        });
    }

    // --- whole-container operations ---------------------------------------

    /// Linear search — unless the Indexed strategy holds a value -> index
    /// dictionary (O(1)) or the Parallel strategy fans the scan out in
    /// chunks.  Recorded as IndexOf with the hit position.
    [[nodiscard]] std::ptrdiff_t index_of(const T& value) const {
        return read([&] {
            const std::ptrdiff_t idx = backing_index_of(value);
            fold(runtime::OpKind::IndexOf,
                 idx >= 0 ? idx : runtime::kWholeContainer);
            return idx;
        });
    }

    [[nodiscard]] bool contains(const T& value) const {
        return index_of(value) >= 0;
    }

    void sort() {
        write([&] {
            if (deque_) {
                std::sort(deque_->begin(), deque_->end());
            } else {
                list_.sort();
            }
            fold(runtime::OpKind::Sort, runtime::kWholeContainer);
            if (index_) index_->rebuild(list_.count(), values_at());
        });
    }

    void reverse() {
        write([&] {
            if (deque_) {
                std::reverse(deque_->begin(), deque_->end());
            } else {
                list_.reverse();
            }
            fold(runtime::OpKind::Reverse, runtime::kWholeContainer);
            if (index_) index_->rebuild(list_.count(), values_at());
        });
    }

    /// Whole-container traversal; recorded as a single ForEach event.
    /// Under the Parallel strategy `fn` runs on pool workers over
    /// disjoint chunks — it must be thread-safe then (it is called
    /// sequentially, in order, under every other strategy).
    template <typename Fn>
    void for_each(Fn fn) const {
        read([&] {
            fold(runtime::OpKind::ForEach, runtime::kWholeContainer);
            if (deque_) {
                for (const T& v : *deque_) fn(v);
                return;
            }
            if (!runs_parallel(list_.count())) {
                list_.for_each([&fn](const T& v) { fn(v); });
                return;
            }
            par::parallel_for_chunks(
                0, list_.count(), [this, &fn](std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i) fn(list_.get(i));
                });
        });
    }

    // --- adaptation introspection -----------------------------------------

    using AdaptiveCore::events_folded;
    using AdaptiveCore::strategy;
    using AdaptiveCore::suppressed_count;
    using AdaptiveCore::switch_count;
    using AdaptiveCore::verdicts;

private:
    // --- backing dispatch (callers hold a lock) ---------------------------

    /// Final, so the container's own calls bind statically.
    [[nodiscard]] std::size_t element_count() const final {
        return deque_ ? deque_->size() : list_.count();
    }

    [[nodiscard]] std::ptrdiff_t backing_index_of(const T& value) const {
        if (index_) return index_->find(value);
        if (deque_) {
            const auto it = std::find(deque_->begin(), deque_->end(), value);
            return it != deque_->end() ? it - deque_->begin() : -1;
        }
        if (runs_parallel(list_.count()))
            return par::parallel_index_of(
                par::ThreadPool::default_pool(),
                std::span<const T>(list_.data(), list_.count()), value);
        return list_.index_of(value);
    }

    /// The list backing's values as the value index reads them.
    [[nodiscard]] auto values_at() const {
        return [this](std::size_t i) -> const T& { return list_.get(i); };
    }

    /// Erase the element at `index`, keeping the search index (when the
    /// Indexed strategy holds one) exact.  Exclusive lock held.
    void erase_at(std::size_t index) {
        if (deque_) {
            deque_->erase(deque_->begin() +
                          static_cast<std::ptrdiff_t>(index));
            return;
        }
        const T old = std::move(list_[index]);
        list_.remove_at(index);
        if (index_) index_->erase(old, index, list_.count(), values_at());
    }

    void migrate(Strategy, Strategy to) const override {
        // Leave the old backing (a strategy's extra state exists only
        // while it is current).
        if (deque_) {
            list_.clear();
            list_.reserve(deque_->size());
            for (T& v : *deque_) list_.add(std::move(v));
            deque_.reset();
        }
        index_.reset();
        // Enter the new one.
        switch (to) {
            case Strategy::Indexed:
                index_.emplace();
                index_->rebuild(list_.count(), values_at());
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

    mutable ds::List<T> list_;
    mutable std::optional<std::deque<T>> deque_;
    mutable std::optional<ValueIndex<T>> index_;
};

}  // namespace dsspy::adapt
