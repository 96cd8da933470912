#include "runtime/bulk_buffer.hpp"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#define DSSPY_HAVE_MMAP 1
#include <sys/mman.h>
#endif

namespace dsspy::runtime {

namespace {

std::atomic<std::size_t> g_mappings{0};
std::atomic<std::size_t> g_live{0};

}  // namespace

void BulkDeleter::operator()(void* p) const noexcept {
    g_live.fetch_sub(1, std::memory_order_relaxed);
    if (mapped_bytes == 0) {
        std::free(p);
        return;
    }
#if DSSPY_HAVE_MMAP
    // Clear the poisoned slack: the address range may be mapped again.
    DSSPY_UNPOISON_BYTES(p, mapped_bytes);
    ::munmap(p, mapped_bytes);
#endif
}

std::size_t bulk_mapping_size(std::size_t bytes) noexcept {
#if DSSPY_HAVE_MMAP
    if (bytes >= kHugePageBytes)
        return (bytes + kHugePageBytes - 1) / kHugePageBytes * kHugePageBytes;
#endif
    return 0;
}

std::unique_ptr<std::byte[], BulkDeleter> allocate_bulk(std::size_t bytes,
                                                        bool use_all) {
#if DSSPY_HAVE_MMAP
    if (const std::size_t size = bulk_mapping_size(bytes); size > 0) {
        // Over-map by one huge page, then trim both ends to the aligned
        // window.
        void* raw = ::mmap(nullptr, size + kHugePageBytes,
                           PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (raw == MAP_FAILED) throw std::bad_alloc();
        const auto base = reinterpret_cast<std::uintptr_t>(raw);
        const std::uintptr_t aligned =
            (base + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
        if (aligned > base) ::munmap(raw, aligned - base);
        const std::size_t tail = base + kHugePageBytes - aligned;
        if (tail > 0) ::munmap(reinterpret_cast<void*>(aligned + size), tail);
        auto* p = reinterpret_cast<std::byte*>(aligned);
#if defined(MADV_HUGEPAGE)
        ::madvise(p, size, MADV_HUGEPAGE);  // a failure leaves 4 KiB pages
#endif
        if (!use_all) DSSPY_POISON_BYTES(p + bytes, size - bytes);
        g_mappings.fetch_add(1, std::memory_order_relaxed);
        g_live.fetch_add(1, std::memory_order_relaxed);
        return {p, BulkDeleter{size}};
    }
#endif
    void* p = std::malloc(bytes > 0 ? bytes : 1);
    if (p == nullptr) throw std::bad_alloc();
    g_live.fetch_add(1, std::memory_order_relaxed);
    return {static_cast<std::byte*>(p), BulkDeleter{}};
}

std::size_t bulk_mappings_created() noexcept {
    return g_mappings.load(std::memory_order_relaxed);
}

std::size_t bulk_buffers_live() noexcept {
    return g_live.load(std::memory_order_relaxed);
}

}  // namespace dsspy::runtime
