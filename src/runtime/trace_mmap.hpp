// Zero-copy DST1 decode into event columns (DESIGN.md §11).
//
// read_trace_columns is the columnar adaptor over the one DST1 decoder
// (trace_codec.hpp), which also backs read_trace_binary and the streaming
// reader.  It shares their prelude parser, chunk index and pool driver,
// and hands each event of the shared chunk walk straight to five column
// rows (plus temporary seq/instance columns for grouping) — no
// intermediate AccessEvent vector and no ProfileStore.  The trace file is
// mmapped, so payloads decode in place.  Files written by write_trace
// emit each instance's events as one contiguous ascending-seq block, so
// the grouping pass is a zero-copy scan; arbitrarily interleaved
// (externally produced) traces fall back to the deterministic permutation
// regroup the ProfileStore shares (sort_rows, column_store.hpp).
//
// Validation and error messages are the shared decoder's, plus
// mmap-specific checks: unopenable or unmappable files and misaligned
// mapped regions are rejected with clear errors.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "runtime/column_store.hpp"
#include "runtime/instance_registry.hpp"

namespace dsspy::par {
class ThreadPool;
}

namespace dsspy::runtime {

/// A column-decoded trace: instance metadata plus the SoA event store.
struct ColumnTrace {
    std::vector<InstanceInfo> instances;
    ColumnStore columns;
};

/// True when the file exists and starts with the DST1 magic (cheap sniff;
/// CSV traces and unreadable files return false).
[[nodiscard]] bool is_binary_trace_file(const std::string& path);

/// Decode a complete DST1 buffer into columns.  Throws std::runtime_error
/// on the same malformed inputs read_trace_binary rejects (plus a
/// misaligned buffer, which the mmap path forwards here).  With a pool,
/// chunks decode concurrently into disjoint row ranges; the result is
/// bit-identical to a sequential decode.
[[nodiscard]] ColumnTrace read_trace_columns(std::string_view bytes,
                                             par::ThreadPool* pool = nullptr);

/// mmap `path` and decode without copying the file into memory; falls
/// back to a buffered read where mmap is unavailable.  Throws
/// std::runtime_error when the file cannot be opened, mapped, or parsed.
[[nodiscard]] ColumnTrace read_trace_columns_file(
    const std::string& path, par::ThreadPool* pool = nullptr);

}  // namespace dsspy::runtime
