#include "runtime/column_store.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace dsspy::runtime {

ColumnStore::ColumnStore(ColumnStore&& other) noexcept {
    *this = std::move(other);
}

ColumnStore& ColumnStore::operator=(ColumnStore&& other) noexcept {
    if (this != &other) {
        rows_ = std::exchange(other.rows_, 0);
        time_ns_ = std::move(other.time_ns_);
        position_ = std::move(other.position_);
        size_ = std::move(other.size_);
        op_ = std::move(other.op_);
        thread_ = std::move(other.thread_);
        ranges_ = std::exchange(other.ranges_, {});
    }
    return *this;
}

void ColumnStore::clear() { *this = ColumnStore(); }

void ColumnStore::allocate(std::size_t rows, std::size_t instance_slots) {
    rows_ = rows;
    time_ns_ = std::make_unique_for_overwrite<std::uint64_t[]>(rows);
    position_ = std::make_unique_for_overwrite<std::int64_t[]>(rows);
    size_ = std::make_unique_for_overwrite<std::uint32_t[]>(rows);
    op_ = std::make_unique_for_overwrite<std::uint8_t[]>(rows);
    thread_ = std::make_unique_for_overwrite<std::uint16_t[]>(rows);
    ranges_.assign(instance_slots, ColumnRange{});
}

void ColumnStore::set_range(InstanceId id, std::size_t begin,
                            std::size_t end) {
    if (id >= ranges_.size()) ranges_.resize(id + 1);
    ranges_[id] = ColumnRange{begin, end};
}

void sort_rows(ColumnStore& columns, std::uint64_t* seq,
               std::uint32_t* instance, std::size_t begin, std::size_t end) {
    const std::size_t n = end - begin;
    std::vector<std::size_t> perm(n);
    std::iota(perm.begin(), perm.end(), begin);
    std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
        if (instance != nullptr && instance[a] != instance[b])
            return instance[a] < instance[b];
        if (seq[a] != seq[b]) return seq[a] < seq[b];
        return a < b;
    });
    // Gather each column through the permutation into one scratch buffer,
    // then copy it back over the range.
    const auto permute = [&]<typename T>(T* col) {
        std::vector<T> sorted(n);
        for (std::size_t i = 0; i < n; ++i) sorted[i] = col[perm[i]];
        std::copy(sorted.begin(), sorted.end(), col + begin);
    };
    permute(columns.mutable_time_ns());
    permute(columns.mutable_position());
    permute(columns.mutable_sizes());
    permute(columns.mutable_op());
    permute(columns.mutable_thread());
    permute(seq);
    if (instance != nullptr) permute(instance);
}

}  // namespace dsspy::runtime
