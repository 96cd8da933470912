#include "runtime/trace_mmap.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
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

/// One range per run of equal ids in the instance column.
std::vector<InstanceRun> collect_runs(const std::uint32_t* instance_col,
                                      std::size_t n) {
    std::vector<InstanceRun> runs;
    std::size_t begin = 0;
    for (std::size_t i = 1; i <= n; ++i) {
        if (i < n && instance_col[i] == instance_col[i - 1]) continue;
        runs.push_back(InstanceRun{instance_col[begin], begin, i});
        begin = i;
    }
    return runs;
}

/// Fast path: rows already grouped (every instance one contiguous run, seq
/// ascending within it — what write_trace emits).  False when the
/// permutation regroup is needed.
bool runs_grouped(const std::vector<InstanceRun>& runs,
                  const std::uint64_t* seq_col) {
    for (const InstanceRun& run : runs)
        for (std::size_t i = run.begin + 1; i < run.end; ++i)
            if (seq_col[i] <= seq_col[i - 1]) return false;  // out of order
    // One run per instance?  Duplicate ids mean interleaved blocks.
    std::vector<InstanceId> ids;
    ids.reserve(runs.size());
    for (const InstanceRun& run : runs) ids.push_back(run.id);
    std::sort(ids.begin(), ids.end());
    return std::adjacent_find(ids.begin(), ids.end()) == ids.end();
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
    const BulkBuffer<std::uint64_t> seqs =
        make_bulk_buffer<std::uint64_t>(rows);
    const BulkBuffer<std::uint32_t> instance_col =
        make_bulk_buffer<std::uint32_t>(rows);

    // Chunks write disjoint row ranges (plus the temporary seq/instance
    // columns used for grouping), so the decode parallelizes without
    // synchronization and lands bit-identical to a sequential pass.
    codec::decode_chunks(index.chunks.size(), pool, [&](std::size_t c) {
        const codec::ChunkRef& chunk = index.chunks[c];
        const std::size_t first = chunk.first_row;
        std::uint64_t* seq_col = seqs.get() + first;
        std::uint32_t* inst_col = instance_col.get() + first;
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

    std::vector<InstanceRun> runs = collect_runs(instance_col.get(), rows);
    if (!runs_grouped(runs, seqs.get())) {
        sort_rows(trace.columns, seqs.get(), instance_col.get(), 0, rows);
        runs = collect_runs(instance_col.get(), rows);
    }
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
