// Bounded lock-free single-producer/single-consumer ring buffer.
//
// The paper streams access events from the instrumented program to the
// analysis module via asynchronous intra-process communication so that the
// mutator only pays for an append (Section IV: "This design lets us bypass
// the typical disadvantages of file-based or in-memory log files").  Each
// recording thread owns one of these rings; the collector thread is the
// single consumer of all of them.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace dsspy::runtime {

/// Lock-free bounded SPSC queue.  `T` must be trivially copyable.
///
/// Capacity is rounded up to a power of two.  `try_push` fails when full
/// (the caller decides whether to spin or drop); `pop_into` drains in
/// batches to amortize the consumer's atomic traffic.
template <typename T>
class SpscRing {
    static_assert(std::is_trivially_copyable_v<T>);

public:
    explicit SpscRing(std::size_t min_capacity = 1024)
        : buffer_(std::bit_ceil(min_capacity < 2 ? 2 : min_capacity)),
          mask_(buffer_.size() - 1) {}

    SpscRing(const SpscRing&) = delete;
    SpscRing& operator=(const SpscRing&) = delete;

    /// Producer side: enqueue one element; false if the ring is full.
    bool try_push(const T& value) noexcept {
        // Full when head - tail reaches the capacity, mask_ + 1.  Not
        // buffer_.size(): that divides the vector's byte length by
        // sizeof(T), a multiply per push for 40-byte events.
        const std::size_t head = head_.load(std::memory_order_relaxed);
        const std::size_t tail = tail_cache_;
        if (head - tail > mask_) {
            tail_cache_ = tail_.load(std::memory_order_acquire);
            if (head - tail_cache_ > mask_) return false;
        }
        buffer_[head & mask_] = value;
        head_.store(head + 1, std::memory_order_release);
        return true;
    }

    /// Consumer side: dequeue one element if available.
    std::optional<T> try_pop() noexcept {
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        if (tail == head_cache_) {
            head_cache_ = head_.load(std::memory_order_acquire);
            if (tail == head_cache_) return std::nullopt;
        }
        T value = buffer_[tail & mask_];
        tail_.store(tail + 1, std::memory_order_release);
        return value;
    }

    /// Consumer side: drain up to `out.size()` elements; returns the count.
    std::size_t pop_into(std::span<T> out) noexcept {
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        std::size_t head = head_cache_;
        if (head == tail) {
            head = head_cache_ = head_.load(std::memory_order_acquire);
            if (head == tail) return 0;
        }
        const std::size_t available = head - tail;
        const std::size_t n = available < out.size() ? available : out.size();
        for (std::size_t i = 0; i < n; ++i)
            out[i] = buffer_[(tail + i) & mask_];
        tail_.store(tail + n, std::memory_order_release);
        return n;
    }

    /// Approximate number of queued elements (racy, for monitoring only).
    [[nodiscard]] std::size_t size_approx() const noexcept {
        return head_.load(std::memory_order_acquire) -
               tail_.load(std::memory_order_acquire);
    }

    [[nodiscard]] std::size_t capacity() const noexcept {
        return buffer_.size();
    }

    [[nodiscard]] bool empty_approx() const noexcept {
        return size_approx() == 0;
    }

private:
    std::vector<T> buffer_;
    std::size_t mask_;

    alignas(64) std::atomic<std::size_t> head_{0};  // written by producer
    alignas(64) std::size_t tail_cache_ = 0;        // producer-local
    alignas(64) std::atomic<std::size_t> tail_{0};  // written by consumer
    alignas(64) std::size_t head_cache_ = 0;        // consumer-local
};

}  // namespace dsspy::runtime
