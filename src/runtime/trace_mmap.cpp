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

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/trace_binary.hpp"
#include "runtime/trace_codec.hpp"

namespace dsspy::runtime {

namespace {

using codec::chunk_baseline;
using codec::checked_narrow;
using codec::Cursor;
using codec::fail;

/// Self-telemetry: DST1 chunks decoded through the columnar reader.
obs::MetricId column_chunks_metric() {
    static const obs::MetricId id = obs::MetricsRegistry::global().counter(
        "trace.column_chunks_decoded");
    return id;
}

/// Decode one chunk payload into column rows [first_row, first_row+count)
/// plus the temporary seq/instance columns used for grouping.  The wire
/// walk matches trace_binary.cpp's decode_chunk field for field; only the
/// destination differs (five column writes instead of one struct).
void decode_chunk_columns(Cursor cur, std::uint32_t count,
                          std::size_t first_row, ColumnStore& columns,
                          std::uint64_t* seq_col,
                          std::uint32_t* instance_col) {
    std::uint64_t* time_col = columns.mutable_time_ns() + first_row;
    std::int64_t* pos_col = columns.mutable_position() + first_row;
    std::uint32_t* size_col = columns.mutable_sizes() + first_row;
    std::uint8_t* op_col = columns.mutable_op() + first_row;
    std::uint16_t* thread_col = columns.mutable_thread() + first_row;
    seq_col += first_row;
    instance_col += first_row;

    AccessEvent prev = chunk_baseline();
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint8_t control = cur.u8();
        if (control & codec::kControlReserved) fail("bad event control byte");
        prev.seq = (control & codec::kSeqPlusOne) ? prev.seq + 1
                                                  : cur.delta(prev.seq);
        prev.time_ns = (control & codec::kTimeSame)
                           ? prev.time_ns
                           : cur.delta(prev.time_ns);
        if (!(control & codec::kSameInstance))
            prev.instance = checked_narrow<InstanceId>(
                cur.delta(prev.instance), "instance");
        if (!(control & codec::kSameOp)) {
            const std::uint8_t op = cur.u8();
            if (op >= kOpKindCount) fail("bad op value");
            prev.op = static_cast<OpKind>(op);
        }
        const auto uprev_pos = static_cast<std::uint64_t>(prev.position);
        prev.position = static_cast<std::int64_t>(
            (control & codec::kPosPlusOne) ? uprev_pos + 1
                                           : cur.delta(uprev_pos));
        if (!(control & codec::kSizeSame))
            prev.size = checked_narrow<std::uint32_t>(cur.delta(prev.size),
                                                      "size");
        if (!(control & codec::kSameThread))
            prev.thread = checked_narrow<ThreadId>(cur.delta(prev.thread),
                                                   "thread");
        seq_col[i] = prev.seq;
        time_col[i] = prev.time_ns;
        instance_col[i] = prev.instance;
        op_col[i] = static_cast<std::uint8_t>(prev.op);
        pos_col[i] = prev.position;
        size_col[i] = prev.size;
        thread_col[i] = prev.thread;
    }
    if (cur.ptr != cur.end) fail("chunk payload longer than declared events");
}

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
    Cursor cur{reinterpret_cast<const unsigned char*>(bytes.data()),
               reinterpret_cast<const unsigned char*>(bytes.data()) +
                   bytes.size()};
    if (!is_binary_trace(bytes)) fail("bad magic (not a DST1 trace)");
    cur.ptr += sizeof(kTraceBinaryMagic);
    const std::uint32_t version = cur.u32();
    if (version != kTraceBinaryVersion)
        fail("unsupported DST1 version " + std::to_string(version));
    const std::uint64_t instance_count = cur.u64();
    const std::uint64_t event_count = cur.u64();

    ColumnTrace trace;
    if (instance_count > cur.remaining())  // each record is >= 7 bytes
        fail("instance count exceeds input size");
    trace.instances.reserve(static_cast<std::size_t>(instance_count));
    for (std::uint64_t i = 0; i < instance_count; ++i) {
        InstanceInfo info;
        info.id = checked_narrow<InstanceId>(cur.varint(), "id");
        const std::uint64_t kind = cur.varint();
        if (kind >= kDsKindCount) fail("bad kind value");
        info.kind = static_cast<DsKind>(kind);
        info.location.position =
            checked_narrow<std::uint32_t>(cur.varint(), "position");
        info.type_name = cur.str();
        info.location.class_name = cur.str();
        info.location.method = cur.str();
        info.deallocated = cur.u8() != 0;
        trace.instances.push_back(std::move(info));
    }

    // Chunk index: headers carry the payload size, so this is a cheap
    // skip-scan that also yields each chunk's first output row.
    struct ChunkRef {
        Cursor payload;
        std::uint32_t count;
        std::size_t first_row;
    };
    std::vector<ChunkRef> chunks;
    std::uint64_t declared = 0;
    while (declared < event_count) {
        if (cur.remaining() < 8) fail("truncated chunk header");
        const std::uint32_t count = cur.u32();
        const std::uint32_t payload_bytes = cur.u32();
        codec::check_chunk_header(count, payload_bytes, cur.remaining());
        chunks.push_back(ChunkRef{{cur.ptr, cur.ptr + payload_bytes},
                                  count,
                                  static_cast<std::size_t>(declared)});
        cur.ptr += payload_bytes;
        declared += count;
    }
    if (declared != event_count) fail("chunk event counts exceed header total");
    if (cur.ptr != cur.end) fail("trailing bytes after final chunk");

    const auto rows = static_cast<std::size_t>(event_count);
    trace.columns.allocate(rows, 0);
    std::vector<std::uint64_t> seqs(rows);
    std::vector<std::uint32_t> instance_col(rows);

    // Chunks write disjoint row ranges, so the decode parallelizes without
    // synchronization and lands bit-identical to a sequential pass.
    DSSPY_TRACE_SPAN("trace.column_decode");
    const obs::TraceContext decode_ctx = obs::current_trace_context();
    const auto decode_range = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            decode_chunk_columns(chunks[i].payload, chunks[i].count,
                                 chunks[i].first_row, trace.columns,
                                 seqs.data(), instance_col.data());
    };
    if (pool != nullptr && chunks.size() > 1) {
        par::parallel_for_chunks(
            *pool, 0, chunks.size(), [&](std::size_t lo, std::size_t hi) {
                DSSPY_TRACE_SPAN_UNDER("trace.decode_shard", decode_ctx);
                decode_range(lo, hi);
            });
    } else {
        decode_range(0, chunks.size());
    }
    if (obs::enabled())
        obs::MetricsRegistry::global().add(column_chunks_metric(),
                                           chunks.size());

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
