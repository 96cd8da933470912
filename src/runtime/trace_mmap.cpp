#include "runtime/trace_mmap.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <span>
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
#include "runtime/trace_io.hpp"

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

/// The step both formats end in: set one row range per instance, after
/// regrouping the rows (with `trace.seq` and `instance_col`) by
/// (instance, seq) unless they already are.
void group_rows(ColumnTrace& trace, std::uint32_t* instance_col) {
    const std::size_t rows = trace.columns.total_events();
    std::vector<InstanceRun> runs = collect_runs(instance_col, rows);
    if (!runs_grouped(runs, trace.seq.get())) {
        sort_rows(trace.columns, trace.seq.get(), instance_col, 0, rows);
        runs = collect_runs(instance_col, rows);
    }
    for (const InstanceRun& run : runs)
        trace.columns.set_range(run.id, run.begin, run.end);
}

ColumnTrace decode_dst1(std::string_view bytes, par::ThreadPool* pool) {
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
    trace.seq = make_bulk_buffer<std::uint64_t>(rows);
    const BulkBuffer<std::uint32_t> instance_col =
        make_bulk_buffer<std::uint32_t>(rows);

    // Chunks write disjoint row ranges (of the columns, the seq column and
    // the temporary instance column used for grouping), so the decode
    // parallelizes without synchronization and lands bit-identical to a
    // sequential pass.
    codec::decode_chunks(index.chunks.size(), pool, [&](std::size_t c) {
        const codec::ChunkRef& chunk = index.chunks[c];
        const std::size_t first = chunk.first_row;
        std::uint64_t* seq_col = trace.seq.get() + first;
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
    group_rows(trace, instance_col.get());
    return trace;
}

/// Collects parsed CSV records column by column.  Events on the
/// kInvalidInstance sentinel are dropped, as ProfileStore::append drops
/// them.
class ColumnCollector final : public TraceSink {
public:
    void on_instance(const InstanceInfo& info) override {
        instances.push_back(info);
    }

    void on_events(std::span<const AccessEvent> events) override {
        for (const AccessEvent& ev : events) {
            if (ev.instance == kInvalidInstance) continue;
            seq.push_back(ev.seq);
            instance.push_back(ev.instance);
            time_ns.push_back(ev.time_ns);
            position.push_back(ev.position);
            size.push_back(ev.size);
            op.push_back(static_cast<std::uint8_t>(ev.op));
            thread.push_back(ev.thread);
        }
    }

    std::vector<InstanceInfo> instances;
    std::vector<std::uint64_t> seq;
    std::vector<std::uint32_t> instance;
    std::vector<std::uint64_t> time_ns;
    std::vector<std::int64_t> position;
    std::vector<std::uint32_t> size;
    std::vector<std::uint8_t> op;
    std::vector<std::uint16_t> thread;
};

ColumnTrace load_csv(std::string_view bytes) {
    ColumnCollector rows;
    detail::parse_csv_trace(bytes, rows);
    ColumnTrace trace;
    trace.instances = std::move(rows.instances);
    const std::size_t n = rows.seq.size();
    trace.columns.allocate(n, 0);
    trace.seq = make_bulk_buffer<std::uint64_t>(n);
    const BulkBuffer<std::uint32_t> instance_col =
        make_bulk_buffer<std::uint32_t>(n);
    // Each collected column is freed once copied, so the copies never
    // hold more than one column twice.
    const auto move_to = [](auto& from, auto* to) {
        std::copy(from.begin(), from.end(), to);
        std::exchange(from, {});
    };
    move_to(rows.seq, trace.seq.get());
    move_to(rows.instance, instance_col.get());
    move_to(rows.time_ns, trace.columns.mutable_time_ns());
    move_to(rows.position, trace.columns.mutable_position());
    move_to(rows.size, trace.columns.mutable_sizes());
    move_to(rows.op, trace.columns.mutable_op());
    move_to(rows.thread, trace.columns.mutable_thread());
    group_rows(trace, instance_col.get());
    return trace;
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
    ColumnTrace trace = is_binary_trace(bytes) ? decode_dst1(bytes, pool)
                                               : load_csv(bytes);
    detail::count_trace_read(bytes.size(), trace.columns.total_events());
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
    if (size == 0) {  // nothing to map: an empty trace
        ::close(fd);
        return read_trace_columns(std::string_view{}, pool);
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
