// The post-mortem trace loader: a whole trace file into event columns
// (DESIGN.md §7, §11).
//
// read_trace_columns sniffs the format from the leading magic bytes.  A
// DST1 trace runs through the one DST1 decoder (trace_codec.hpp), which
// also backs the streaming reader: its prelude parser, chunk index and
// pool driver, with each event of the shared chunk walk handed straight
// to the column rows and the seq and instance columns — no intermediate
// AccessEvent vector and no ProfileStore.  A CSV trace runs through the
// record scanner and parser the streaming reader uses (trace_io.cpp) into
// a column collector.  The file is mmapped, so DST1 payloads decode and
// CSV records parse in place.  Both formats end in one grouping step:
// files written by write_trace emit each instance's events as one
// contiguous ascending-seq block, so grouping is a zero-copy scan;
// arbitrarily interleaved (externally produced) traces fall back to the
// deterministic permutation regroup the ProfileStore shares (sort_rows,
// column_store.hpp).
//
// Validation and error messages are the shared decoder's and CSV
// parser's, plus mmap-specific checks: unopenable or unmappable files and
// misaligned mapped DST1 regions are rejected with clear errors.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/bulk_buffer.hpp"
#include "runtime/column_store.hpp"
#include "runtime/instance_registry.hpp"

namespace dsspy::par {
class ThreadPool;
}

namespace dsspy::runtime {

/// A loaded trace — the one post-mortem trace type: instance metadata,
/// the SoA event store, and the capture seq of every row.
struct ColumnTrace {
    std::vector<InstanceInfo> instances;
    ColumnStore columns;
    /// Capture seq per row, parallel to the columns.  Only the trace
    /// writers read it (write_trace, trace_io.hpp); the analysis does
    /// not, so a caller that writes nothing may release it.
    BulkBuffer<std::uint64_t> seq = {};
};

/// True when the file exists and starts with the DST1 magic (cheap sniff;
/// CSV traces and unreadable files return false).
[[nodiscard]] bool is_binary_trace_file(const std::string& path);

/// Load a complete trace buffer, DST1 or CSV by its magic, into columns.
/// Throws std::runtime_error on malformed input: the DST1 decoder's
/// errors (plus a misaligned buffer, which the mmap path forwards here)
/// or the CSV parser's.  CSV events on the kInvalidInstance sentinel are
/// dropped.  With a pool, DST1 chunks decode concurrently into disjoint
/// row ranges; the result is bit-identical to a sequential decode.
[[nodiscard]] ColumnTrace read_trace_columns(std::string_view bytes,
                                             par::ThreadPool* pool = nullptr);

/// mmap `path` and load it without copying the file into memory; falls
/// back to a buffered read where mmap is unavailable.  An empty file is
/// an empty trace.  Throws std::runtime_error when the file cannot be
/// opened, mapped, or parsed.
[[nodiscard]] ColumnTrace read_trace_columns_file(
    const std::string& path, par::ThreadPool* pool = nullptr);

}  // namespace dsspy::runtime
