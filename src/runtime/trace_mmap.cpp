#include "runtime/trace_mmap.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <numeric>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define DSSPY_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "obs/trace.hpp"
#include "runtime/trace_binary.hpp"
#include "runtime/trace_codec.hpp"

namespace dsspy::runtime {

namespace {

using codec::fail;

struct InstanceRun {
    InstanceId id = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
};

/// Fast path: rows already grouped (every instance one contiguous run, seq
/// ascending within it — what write_trace emits).  Fills `runs` and
/// returns true; returns false when a permutation sort is needed.
bool collect_grouped_runs(const std::uint32_t* instance_col,
                          const std::uint64_t* seq_col, std::size_t n,
                          std::vector<InstanceRun>& runs) {
    runs.clear();
    std::size_t begin = 0;
    for (std::size_t i = 1; i <= n; ++i) {
        if (i < n && instance_col[i] == instance_col[i - 1]) {
            if (seq_col[i] <= seq_col[i - 1]) return false;  // out of order
            continue;
        }
        runs.push_back(InstanceRun{instance_col[begin], begin, i});
        begin = i;
    }
    // One run per instance?  Duplicate ids mean interleaved blocks.
    std::vector<InstanceRun> by_id(runs);
    std::sort(by_id.begin(), by_id.end(),
              [](const InstanceRun& a, const InstanceRun& b) {
                  return a.id < b.id;
              });
    for (std::size_t i = 1; i < by_id.size(); ++i)
        if (by_id[i].id == by_id[i - 1].id) return false;
    return true;
}

/// Slow path: argsort rows by (instance, seq) and rebuild every column
/// through the permutation.  Deterministic: the key includes the row index
/// as final tie-breaker, so even adversarial duplicate (instance, seq)
/// pairs land in a fixed order.
void regroup_by_sort(ColumnStore& columns, std::vector<std::uint64_t>& seqs,
                     std::vector<std::uint32_t>& instances,
                     std::vector<InstanceRun>& runs) {
    const std::size_t n = seqs.size();
    std::vector<std::size_t> perm(n);
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    std::sort(perm.begin(), perm.end(),
              [&](std::size_t a, std::size_t b) {
                  if (instances[a] != instances[b])
                      return instances[a] < instances[b];
                  if (seqs[a] != seqs[b]) return seqs[a] < seqs[b];
                  return a < b;
              });

    ColumnStore sorted;
    sorted.allocate(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t src = perm[i];
        sorted.mutable_time_ns()[i] = columns.time_ns()[src];
        sorted.mutable_position()[i] = columns.position()[src];
        sorted.mutable_sizes()[i] = columns.sizes()[src];
        sorted.mutable_op()[i] = columns.op()[src];
        sorted.mutable_thread()[i] = columns.thread()[src];
    }
    columns = std::move(sorted);

    runs.clear();
    std::size_t begin = 0;
    for (std::size_t i = 1; i <= n; ++i) {
        if (i < n && instances[perm[i]] == instances[perm[i - 1]]) continue;
        runs.push_back(InstanceRun{instances[perm[begin]], begin, i});
        begin = i;
    }
}

}  // namespace

bool is_binary_trace_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is) return false;
    char magic[sizeof(kTraceBinaryMagic)];
    is.read(magic, sizeof(magic));
    return is.gcount() == sizeof(magic) &&
           std::memcmp(magic, kTraceBinaryMagic, sizeof(magic)) == 0;
}

ColumnTrace read_trace_columns(std::string_view bytes,
                               par::ThreadPool* pool) {
    // The kernels downstream issue wide aligned-friendly loads; a mapping
    // that is not even word-aligned indicates a broken producer (mmap
    // returns page-aligned addresses, partial-page offsets do not).
    if (reinterpret_cast<std::uintptr_t>(bytes.data()) %
            alignof(std::uint64_t) !=
        0)
        fail("misaligned mmap region");
    codec::ChunkIndex index = codec::index_chunks(bytes);
    ColumnTrace trace;
    trace.instances = std::move(index.instances);
    const std::size_t rows = index.event_count;
    trace.columns.allocate(rows, 0);
    std::vector<std::uint64_t> seqs(rows);
    std::vector<std::uint32_t> instance_col(rows);

    // Chunks write disjoint row ranges (plus the temporary seq/instance
    // columns used for grouping), so the decode parallelizes without
    // synchronization and lands bit-identical to a sequential pass.
    codec::decode_chunks(index.chunks.size(), pool, [&](std::size_t c) {
        const codec::ChunkRef& chunk = index.chunks[c];
        const std::size_t first = chunk.first_row;
        std::uint64_t* seq_col = seqs.data() + first;
        std::uint32_t* inst_col = instance_col.data() + first;
        std::uint64_t* time_col = trace.columns.mutable_time_ns() + first;
        std::int64_t* pos_col = trace.columns.mutable_position() + first;
        std::uint32_t* size_col = trace.columns.mutable_sizes() + first;
        std::uint8_t* op_col = trace.columns.mutable_op() + first;
        std::uint16_t* thread_col = trace.columns.mutable_thread() + first;
        codec::decode_chunk(chunk, [=](std::uint32_t i, const AccessEvent& ev) {
            seq_col[i] = ev.seq;
            time_col[i] = ev.time_ns;
            inst_col[i] = ev.instance;
            op_col[i] = static_cast<std::uint8_t>(ev.op);
            pos_col[i] = ev.position;
            size_col[i] = ev.size;
            thread_col[i] = ev.thread;
        });
    });

    std::vector<InstanceRun> runs;
    if (!collect_grouped_runs(instance_col.data(), seqs.data(), rows, runs))
        regroup_by_sort(trace.columns, seqs, instance_col, runs);
    for (const InstanceRun& run : runs)
        trace.columns.set_range(run.id, run.begin, run.end);
    return trace;
}

ColumnTrace read_trace_columns_file(const std::string& path,
                                    par::ThreadPool* pool) {
#if DSSPY_HAVE_MMAP
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) fail("cannot open trace file: " + path);
    struct stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        fail("cannot stat trace file: " + path);
    }
    const auto size = static_cast<std::size_t>(st.st_size);
    if (size == 0) {
        ::close(fd);
        fail("bad magic (not a DST1 trace)");
    }
    void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);  // the mapping keeps the file alive
    if (base != MAP_FAILED) {
#if defined(__linux__)
        ::madvise(base, size, MADV_SEQUENTIAL);
#endif
        DSSPY_TRACE_SPAN("trace.mmap_read");
        try {
            ColumnTrace trace = read_trace_columns(
                std::string_view(static_cast<const char*>(base), size),
                pool);
            ::munmap(base, size);
            return trace;
        } catch (...) {
            ::munmap(base, size);
            throw;
        }
    }
    // MAP_FAILED: fall through to the buffered read below.
#endif
    std::ifstream is(path, std::ios::binary);
    if (!is) fail("cannot open trace file: " + path);
    std::string buffer((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
    return read_trace_columns(buffer, pool);
}

}  // namespace dsspy::runtime
