// Bulk event buffers on 2 MiB huge-page mappings (DESIGN.md §6).
//
// Capture chunks, store columns and decode buffers hold tens to hundreds
// of megabytes that are written once, front to back.  On 4 KiB pages the
// kernel's first-touch fault for every page costs more than the writes.
// make_bulk_buffer() gives requests of kHugePageBytes or more their own
// 2 MiB-aligned anonymous mapping, rounded up to whole 2 MiB pages and
// advised MADV_HUGEPAGE, so a page fault brings in 2 MiB at a time; the
// buffer is freed with munmap, which hands the memory back to the OS at
// once.  Smaller requests stay on malloc, so small sessions pay no 2 MiB
// floor.  Where transparent huge pages are off or madvise fails, the
// mapping is simply backed by 4 KiB pages.
//
// Under AddressSanitizer, which does not track mmap'd memory, the slack
// between the usable bytes and the end of a mapping is poisoned, so an
// overrun past the last row still reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define DSSPY_POISON_BYTES(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define DSSPY_UNPOISON_BYTES(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define DSSPY_POISON_BYTES(p, n) ((void)(p), (void)(n))
#define DSSPY_UNPOISON_BYTES(p, n) ((void)(p), (void)(n))
#endif

namespace dsspy::runtime {

/// Requests of at least this many bytes get a huge-page mapping.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Frees a bulk buffer: munmap for a mapping, free() otherwise.
struct BulkDeleter {
    std::size_t mapped_bytes = 0;  ///< Mapping size; 0 = malloc'd.
    void operator()(void* p) const noexcept;
};

template <class T>
using BulkBuffer = std::unique_ptr<T[], BulkDeleter>;

/// `bytes` of uninitialized storage (never null, also for 0 bytes).  With
/// `use_all`, the whole mapping is usable; otherwise the bytes past
/// `bytes` are poisoned under ASan.
[[nodiscard]] std::unique_ptr<std::byte[], BulkDeleter> allocate_bulk(
    std::size_t bytes, bool use_all);

/// Uninitialized buffer of `n` elements.  When `capacity` is given, the
/// caller takes the whole allocation: it receives the usable element count
/// (mapping size / sizeof(T) for a mapping, else `n`).
template <class T>
[[nodiscard]] BulkBuffer<T> make_bulk_buffer(std::size_t n,
                                             std::size_t* capacity = nullptr) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "bulk buffers hold plain rows, written before read");
    if (n > SIZE_MAX / sizeof(T)) throw std::bad_array_new_length();
    auto raw = allocate_bulk(n * sizeof(T), capacity != nullptr);
    const BulkDeleter deleter = raw.get_deleter();
    if (capacity != nullptr)
        *capacity = deleter.mapped_bytes > 0
                        ? deleter.mapped_bytes / sizeof(T)
                        : n;
    return BulkBuffer<T>(reinterpret_cast<T*>(raw.release()), deleter);
}

/// Size of the mapping a request of `bytes` gets; 0 when it stays on
/// malloc.
[[nodiscard]] std::size_t bulk_mapping_size(std::size_t bytes) noexcept;

/// Allocator for standard containers that grow into bulk sizes (the
/// phase list of a phase-dense instance): the same placement rule as
/// make_bulk_buffer.
template <class T>
struct BulkAllocator {
    using value_type = T;

    BulkAllocator() = default;
    template <class U>
    BulkAllocator(const BulkAllocator<U>&) noexcept {}

    [[nodiscard]] T* allocate(std::size_t n) {
        return make_bulk_buffer<T>(n).release();
    }
    void deallocate(T* p, std::size_t n) noexcept {
        BulkDeleter{bulk_mapping_size(n * sizeof(T))}(p);
    }

    template <class U>
    bool operator==(const BulkAllocator<U>&) const noexcept {
        return true;
    }
};

/// Huge-page mappings created by this process so far (tests use it to pin
/// which sessions stay on malloc).
[[nodiscard]] std::size_t bulk_mappings_created() noexcept;

/// Bulk buffers currently allocated, mapped or not (tests use it to check
/// that a live drain frees its chunks while the workload records).
[[nodiscard]] std::size_t bulk_buffers_live() noexcept;

}  // namespace dsspy::runtime
