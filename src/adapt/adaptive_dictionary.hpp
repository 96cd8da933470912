// AdaptiveDictionary<K, V> — a dictionary that acts on its own verdicts.
//
// ProfiledDictionary records every operation as whole-container (hash
// access has no linear position), which means the positional detectors —
// Frequent-Search, Frequent-Long-Read — can never fire for it.  The
// adaptive dictionary therefore profiles its *dense entry view*: entries
// live in an insertion-ordered dense vector (the hash table maps key ->
// dense index), and every operation is folded as a List-kind event at the
// entry's dense position, exactly as a ds::ProfiledList over the same
// access sequence would record it.  The verdicts then drive the backing:
//
//   Frequent-Search on values (find_key scans) -> Indexed
//       a value -> first dense position index makes find_key O(1); the
//       paper's "data structure that is optimized for searches".
//       Erases preserve order, so dense order is insertion order and the
//       first position holding a value is its first-inserted key: the
//       index answers first-key-wins like the linear scan.
//   Frequent-Long-Read / ForAll traversals      -> Parallel
//       for_each fans out over parallel::ThreadPool chunks of the dense
//       entry vector.
//
// Strategies with no dictionary-side remedy (DequeBacked — front traffic
// does not exist in a hash map) behave exactly like Sequential; the
// controller may still *select* them, the migration is just a no-op.
// Locking and the reclassification schedule are the core's (core.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "adapt/core.hpp"
#include "ds/dictionary.hpp"
#include "ds/type_names.hpp"
#include "parallel/parallel_for.hpp"

namespace dsspy::adapt {

/// Self-adapting Dictionary<K, V>.  See the file comment for how its
/// dense entry view is profiled and which strategies it can run.
template <typename K, typename V, typename Hash = std::hash<K>>
class AdaptiveDictionary : private AdaptiveCore {
public:
    // List kind on purpose: the dense entry view is a linear sequence,
    // and only List/Array instances reach the positional detectors (see
    // file comment).
    explicit AdaptiveDictionary(AdaptConfig config = {},
                                support::SourceLoc location =
                                    {"AdaptiveDictionary", "self", 0})
        : AdaptiveCore(config, runtime::DsKind::List,
                       ds::container_type_name2<K, V>("AdaptiveDictionary"),
                       std::move(location)) {}

    using AdaptiveCore::count;
    using AdaptiveCore::empty;

    /// Insert or overwrite (indexer set).  An overwrite is a Set at the
    /// entry's dense position; a fresh key is an Add at the landing index.
    void set(K key, V value) {
        write([&] {
            std::size_t idx = 0;
            if (pos_.try_get(key, idx)) {
                fold(runtime::OpKind::Set, static_cast<std::int64_t>(idx));
                const V old =
                    std::exchange(entries_[idx].second, std::move(value));
                if (index_)
                    index_->overwrite(old, entries_[idx].second, idx,
                                      entries_.size(), values_at());
                return;
            }
            const std::size_t landing = entries_.size();
            entries_.emplace_back(key, std::move(value));
            pos_.set(std::move(key), landing);
            fold(runtime::OpKind::Add, static_cast<std::int64_t>(landing));
            if (index_) index_->add(entries_.back().second, landing);
        });
    }

    /// Indexer get; by value — a reference could dangle across a
    /// concurrent migration.  Throws std::out_of_range if missing.
    [[nodiscard]] V get(const K& key) const {
        return read([&] {
            const std::optional<std::size_t> idx = lookup(key);
            if (!idx)
                throw std::out_of_range(
                    "AdaptiveDictionary::get: missing key");
            return entries_[*idx].second;
        });
    }

    /// TryGetValue: writes to `out` and returns true if present.
    bool try_get(const K& key, V& out) const {
        return read([&] {
            const std::optional<std::size_t> idx = lookup(key);
            if (idx) out = entries_[*idx].second;
            return idx.has_value();
        });
    }

    [[nodiscard]] bool contains_key(const K& key) const {
        V ignored;
        return try_get(key, ignored);
    }

    /// Value search: the first key whose value equals `value` (insertion
    /// order).  Linear over the dense entries — unless the Indexed
    /// strategy holds the value index.  Recorded as IndexOf at the hit
    /// position, the Frequent-Search signal.
    [[nodiscard]] std::optional<K> find_key(const V& value) const {
        return read([&]() -> std::optional<K> {
            std::ptrdiff_t idx = -1;
            if (index_) {
                idx = index_->find(value);
            } else {
                const auto it = std::find_if(
                    entries_.begin(), entries_.end(),
                    [&value](const auto& e) { return e.second == value; });
                if (it != entries_.end()) idx = it - entries_.begin();
            }
            fold(runtime::OpKind::IndexOf,
                 idx >= 0 ? idx : runtime::kWholeContainer);
            if (idx < 0) return std::nullopt;
            return entries_[static_cast<std::size_t>(idx)].first;
        });
    }

    /// Remove `key`; true if it was present.  A hit is recorded as
    /// RemoveAt at the entry's dense position (order-preserving erase,
    /// like List); a miss is a failed whole-container key lookup — the
    /// try_get miss convention — never a synthetic front delete.
    bool remove(const K& key) {
        return write([&] {
            std::size_t idx = 0;
            if (!pos_.try_get(key, idx)) {
                fold(runtime::OpKind::Get, runtime::kWholeContainer);
                return false;
            }
            const V old = std::move(entries_[idx].second);
            entries_.erase(entries_.begin() +
                           static_cast<std::ptrdiff_t>(idx));
            pos_.remove(key);
            // Entries after the erased one shifted down by one.
            for (std::size_t i = idx; i < entries_.size(); ++i)
                pos_.set(entries_[i].first, i);
            if (index_) index_->erase(old, idx, entries_.size(), values_at());
            fold(runtime::OpKind::RemoveAt, static_cast<std::int64_t>(idx));
            return true;
        });
    }

    void clear() {
        write([&] {
            entries_.clear();
            pos_.clear();
            if (index_) index_->clear();
            fold(runtime::OpKind::Clear, runtime::kWholeContainer);
        });
    }

    /// Traverse entries in insertion order; recorded as one ForEach.
    /// Under the Parallel strategy `fn` runs on pool workers over
    /// disjoint chunks (unordered across chunks) — it must be
    /// thread-safe then.
    template <typename Fn>
    void for_each(Fn fn) const {
        read([&] {
            fold(runtime::OpKind::ForEach, runtime::kWholeContainer);
            if (!runs_parallel(entries_.size())) {
                for (const auto& [key, value] : entries_) fn(key, value);
                return;
            }
            const auto chunk = [this, &fn](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i)
                    fn(entries_[i].first, entries_[i].second);
            };
            par::parallel_for_chunks(0, entries_.size(), chunk);
        });
    }

    // --- adaptation introspection -----------------------------------------

    using AdaptiveCore::events_folded;
    using AdaptiveCore::strategy;
    using AdaptiveCore::suppressed_count;
    using AdaptiveCore::switch_count;
    using AdaptiveCore::verdicts;

private:
    /// Key lookup, folded as a Get at the entry's dense position, or as a
    /// whole-container Get on a miss.
    [[nodiscard]] std::optional<std::size_t> lookup(const K& key) const {
        std::size_t idx = 0;
        const bool hit = pos_.try_get(key, idx);
        fold(runtime::OpKind::Get,
             hit ? static_cast<std::int64_t>(idx) : runtime::kWholeContainer);
        if (!hit) return std::nullopt;
        return idx;
    }

    [[nodiscard]] std::size_t element_count() const override {
        return entries_.size();
    }

    /// The dense entry values as the value index reads them.
    [[nodiscard]] auto values_at() const {
        return [this](std::size_t i) -> const V& {
            return entries_[i].second;
        };
    }

    /// Only Indexed changes the representation: Parallel alters the
    /// traversal path alone, and DequeBacked has no dictionary-side
    /// remedy (behaves like Sequential).
    void migrate(Strategy, Strategy to) const override {
        index_.reset();
        if (to == Strategy::Indexed) {
            index_.emplace();
            index_->rebuild(entries_.size(), values_at());
        }
    }

    /// Insertion-ordered dense entry view — the profiled linear sequence.
    mutable std::vector<std::pair<K, V>> entries_;
    /// Key -> dense index (the primary hash lookup).
    mutable ds::Dictionary<K, std::size_t, Hash> pos_;
    /// Value -> first dense position and count (Indexed strategy only).
    mutable std::optional<ValueIndex<V>> index_;
};

}  // namespace dsspy::adapt
