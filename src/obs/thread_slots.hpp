// Per-thread entries of a shared telemetry object, found without locking.
//
// MetricsRegistry (per-thread shards) and TraceRecorder (per-thread span
// buffers) give every writing thread an entry of its own on a lock-free
// push-front list.  A thread finds its entry through a small thread-local
// cache keyed by the owner's token (tokens are never reused, so entries
// for destroyed owners can only go stale, never alias a live one).  On a
// cache miss it first searches the list for the entry it already owns —
// its slot may have been evicted by four other owners — and allocates a
// new entry only when it has none.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace dsspy::obs::detail {

/// A process-wide serial for the calling thread, unique over the process
/// lifetime (std::thread::id values are reused once a thread is joined).
inline std::uint64_t this_thread_serial() noexcept {
    static std::atomic<std::uint64_t> counter{1};
    thread_local const std::uint64_t serial =
        counter.fetch_add(1, std::memory_order_relaxed);
    return serial;
}

/// One cached (owner token -> entry) mapping.
struct ThreadSlot {
    std::uint64_t token = 0;
    void* entry = nullptr;
};

/// A thread's cache, most recently resolved owner first.
using ThreadSlots = std::array<ThreadSlot, 4>;

/// The calling thread's entry of the owner `token`, whose entries form the
/// list at `head`.  `Entry` has an `owner` serial and a `next` link;
/// `make()` allocates a new one.
template <class Entry, class Make>
Entry& thread_entry(ThreadSlots& slots, std::uint64_t token,
                    std::atomic<Entry*>& head, Make&& make) {
    for (const ThreadSlot& slot : slots) {
        if (slot.token == token) return *static_cast<Entry*>(slot.entry);
    }
    const std::uint64_t owner = this_thread_serial();
    Entry* entry = head.load(std::memory_order_acquire);
    while (entry != nullptr && entry->owner != owner) entry = entry->next;
    if (entry == nullptr) {
        // Push-front: registration never stalls readers or other writers.
        entry = make();
        entry->owner = owner;
        Entry* first = head.load(std::memory_order_relaxed);
        do {
            entry->next = first;
        } while (!head.compare_exchange_weak(first, entry,
                                             std::memory_order_release,
                                             std::memory_order_relaxed));
    }
    for (std::size_t i = slots.size() - 1; i > 0; --i)
        slots[i] = slots[i - 1];
    slots[0] = ThreadSlot{token, entry};
    return *entry;
}

}  // namespace dsspy::obs::detail
