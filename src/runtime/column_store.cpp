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
        storage_ = std::move(other.storage_);
        time_ns_ = std::exchange(other.time_ns_, nullptr);
        position_ = std::exchange(other.position_, nullptr);
        size_ = std::exchange(other.size_, nullptr);
        thread_ = std::exchange(other.thread_, nullptr);
        op_ = std::exchange(other.op_, nullptr);
        ranges_ = std::exchange(other.ranges_, {});
    }
    return *this;
}

void ColumnStore::clear() { *this = ColumnStore(); }

void ColumnStore::allocate(std::size_t rows, std::size_t instance_slots) {
    // Under ASan a poisoned red zone follows each column but the last (the
    // buffer's own slack guards that one), so an overrun past one column's
    // rows reports instead of landing in the next column.
#if defined(__SANITIZE_ADDRESS__)
    constexpr std::size_t kRedZone = 64;
#else
    constexpr std::size_t kRedZone = 0;
#endif
    constexpr std::size_t kRowBytes = sizeof(*time_ns_) + sizeof(*position_) +
                                      sizeof(*size_) + sizeof(*thread_) +
                                      sizeof(*op_);
    rows_ = rows;
    storage_ = make_bulk_buffer<std::byte>(rows * kRowBytes + 4 * kRedZone);
    std::byte* next = storage_.get();
    const auto carve = [&]<typename T>(T*& column, bool last) {
        column = reinterpret_cast<T*>(next);
        next += rows * sizeof(T);
        if (last) return;
        DSSPY_POISON_BYTES(next, kRedZone);
        next += kRedZone;
    };
    carve(time_ns_, false);
    carve(position_, false);
    carve(size_, false);
    carve(thread_, false);
    carve(op_, true);
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
