// The one DST1 decoder (format reference: trace_binary.hpp).
//
// Its two readers, read_trace_columns (ColumnStore rows, trace_mmap.cpp)
// and read_trace_binary_stream (chunks to a TraceSink), differ only in
// where bytes come from and where events go.  So the prelude parser and
// the chunk-header walk here are generic over the byte source (an
// in-memory Cursor or the stream reader's source), the control-byte event
// walk hands each event to a destination callback, and every validation
// rule and error message exists exactly once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/access_event.hpp"
#include "runtime/instance_registry.hpp"
#include "runtime/trace_binary.hpp"

namespace dsspy::par {
class ThreadPool;
}

namespace dsspy::runtime::codec {

[[noreturn]] inline void fail(const std::string& what) {
    throw std::runtime_error("trace_io: " + what);
}

/// Control-byte flags: each bit marks one field as "took its common delta"
/// (see trace_binary.hpp); clear bits have an explicit value following.
enum : std::uint8_t {
    kSeqPlusOne = 1u << 0,
    kTimeSame = 1u << 1,
    kSameInstance = 1u << 2,
    kSameOp = 1u << 3,
    kPosPlusOne = 1u << 4,
    kSizeSame = 1u << 5,
    kSameThread = 1u << 6,
    kControlReserved = 1u << 7,
};

/// Chunk-local delta baseline (all fields zero — AccessEvent's defaults
/// use sentinels, so build it explicitly).
inline AccessEvent chunk_baseline() {
    AccessEvent ev;
    ev.instance = 0;
    ev.op = OpKind::Get;
    return ev;
}

template <typename T>
T load_le(const unsigned char* p) {
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) v |= T{p[i]} << (8 * i);
    return v;
}

template <typename T>
T checked_narrow(std::uint64_t v, const char* what,
                 std::uint64_t max = std::numeric_limits<T>::max()) {
    if (v > max)
        fail(std::string("field '") + what + "' out of range");
    return static_cast<T>(v);
}

/// Fixed-width, varint, zigzag-delta and string decoding over a byte
/// source.  `Source::take(n, what)` returns the next `n` contiguous bytes
/// and consumes them, or fails with `what` when the input ends first.
template <class Source>
class ByteReader {
public:
    std::uint8_t u8() { return *self().take(1, "truncated byte field"); }

    std::uint32_t u32() { return fixed<std::uint32_t>(); }
    std::uint64_t u64() { return fixed<std::uint64_t>(); }

    std::uint64_t varint() {
        std::uint64_t v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            const unsigned char byte = *self().take(1, "unterminated varint");
            v |= std::uint64_t{byte & 0x7Fu} << shift;
            if ((byte & 0x80u) == 0) {
                // The 10th byte carries only bit 63: anything above is
                // an overlong/corrupt encoding.
                if (shift == 63 && byte > 1) fail("varint overflows 64 bits");
                return v;
            }
        }
        fail("varint longer than 10 bytes");
    }

    std::uint64_t delta(std::uint64_t prev) {
        const std::uint64_t z = varint();
        const std::uint64_t d = (z >> 1) ^ (~(z & 1) + 1);  // un-zigzag
        return prev + d;
    }

    std::string str() {
        const auto n = static_cast<std::size_t>(varint());
        const unsigned char* p = self().take(n, "truncated string field");
        return std::string(reinterpret_cast<const char*>(p), n);
    }

private:
    Source& self() { return static_cast<Source&>(*this); }

    template <typename T>
    T fixed() {
        return load_le<T>(
            self().take(sizeof(T), "truncated fixed-width field"));
    }
};

/// Bounded cursor over an in-memory buffer; every read checks the
/// remaining length.
struct Cursor : ByteReader<Cursor> {
    const unsigned char* ptr;
    const unsigned char* end;

    Cursor(const unsigned char* begin, const unsigned char* stop)
        : ptr(begin), end(stop) {}

    [[nodiscard]] std::size_t remaining() const {
        return static_cast<std::size_t>(end - ptr);
    }
    [[nodiscard]] bool at_end() const { return ptr == end; }

    const unsigned char* take(std::size_t n, const char* what) {
        if (remaining() < n) fail(what);
        const unsigned char* p = ptr;
        ptr += n;
        return p;
    }
};

/// Parse the prelude — magic, version, counts and instance table — handing
/// each instance record to `on_instance`.  Returns the declared event
/// count, with `src` positioned at the first chunk header.  Here and in
/// events, the "no instance" sentinel kInvalidInstance is out of range.
template <class Source, class OnInstance>
std::uint64_t read_prelude(Source& src, OnInstance&& on_instance) {
    constexpr const char* kBadMagic = "bad magic (not a DST1 trace)";
    if (std::memcmp(src.take(sizeof(kTraceBinaryMagic), kBadMagic),
                    kTraceBinaryMagic, sizeof(kTraceBinaryMagic)) != 0)
        fail(kBadMagic);
    const std::uint32_t version = src.u32();
    if (version != kTraceBinaryVersion)
        fail("unsupported DST1 version " + std::to_string(version));
    const std::uint64_t instance_count = src.u64();
    const std::uint64_t event_count = src.u64();
    if (instance_count > src.remaining())  // each record is >= 7 bytes
        fail("instance count exceeds input size");
    for (std::uint64_t i = 0; i < instance_count; ++i) {
        InstanceInfo info;
        info.id = checked_narrow<InstanceId>(src.varint(), "id",
                                             kInvalidInstance - 1);
        const std::uint64_t kind = src.varint();
        if (kind >= kDsKindCount) fail("bad kind value");
        info.kind = static_cast<DsKind>(kind);
        info.location.position =
            checked_narrow<std::uint32_t>(src.varint(), "position");
        info.type_name = src.str();
        info.location.class_name = src.str();
        info.location.method = src.str();
        info.deallocated = src.u8() != 0;
        on_instance(std::move(info));
    }
    return event_count;
}

/// One chunk: its bounds-checked payload, its event count, and the number
/// of events in the chunks before it (its first row in file order).
struct ChunkRef {
    Cursor payload;
    std::uint32_t count;
    std::size_t first_row;
};

/// Walk the chunk headers after the prelude, handing each chunk to
/// `on_chunk` in file order (its payload is valid until `on_chunk`
/// returns).  Rejects empty chunks, payloads that overrun the input, more
/// events than payload bytes (each costs at least its control byte), a
/// count total that misses `event_count`, and bytes after the last chunk.
template <class Source, class OnChunk>
void for_each_chunk(Source& src, std::uint64_t event_count,
                    OnChunk&& on_chunk) {
    std::uint64_t declared = 0;
    while (declared < event_count) {
        const unsigned char* header = src.take(8, "truncated chunk header");
        const auto count = load_le<std::uint32_t>(header);
        const auto payload_bytes = load_le<std::uint32_t>(header + 4);
        if (count == 0) fail("empty event chunk");
        if (count > payload_bytes)
            fail("chunk event count exceeds payload size");
        const unsigned char* payload =
            src.take(payload_bytes, "truncated event chunk");
        on_chunk(ChunkRef{Cursor{payload, payload + payload_bytes}, count,
                          static_cast<std::size_t>(declared)});
        declared += count;
    }
    if (declared != event_count) fail("chunk event counts exceed header total");
    if (!src.at_end()) fail("trailing bytes after final chunk");
}

/// Decode exactly `chunk.count` events, handing the i-th to
/// `emit(i, event)`.  Delta baselines restart at all-zero fields per chunk.
template <class Emit>
void decode_chunk(const ChunkRef& chunk, Emit&& emit) {
    Cursor cur = chunk.payload;
    AccessEvent prev = chunk_baseline();
    for (std::uint32_t i = 0; i < chunk.count; ++i) {
        const std::uint8_t control = cur.u8();
        if (control & kControlReserved) fail("bad event control byte");
        prev.seq =
            (control & kSeqPlusOne) ? prev.seq + 1 : cur.delta(prev.seq);
        if (!(control & kTimeSame)) prev.time_ns = cur.delta(prev.time_ns);
        if (!(control & kSameInstance))  // kInvalidInstance is a sentinel
            prev.instance = checked_narrow<InstanceId>(
                cur.delta(prev.instance), "instance", kInvalidInstance - 1);
        if (!(control & kSameOp)) {
            const std::uint8_t op = cur.u8();
            if (op >= kOpKindCount) fail("bad op value");
            prev.op = static_cast<OpKind>(op);
        }
        const auto uprev_pos = static_cast<std::uint64_t>(prev.position);
        prev.position = static_cast<std::int64_t>(
            (control & kPosPlusOne) ? uprev_pos + 1 : cur.delta(uprev_pos));
        if (!(control & kSizeSame))
            prev.size =
                checked_narrow<std::uint32_t>(cur.delta(prev.size), "size");
        if (!(control & kSameThread))
            prev.thread =
                checked_narrow<ThreadId>(cur.delta(prev.thread), "thread");
        emit(i, prev);
    }
    if (!cur.at_end()) fail("chunk payload longer than declared events");
}

/// A complete in-memory DST1 buffer parsed up to its event payloads.
struct ChunkIndex {
    std::vector<InstanceInfo> instances;
    std::vector<ChunkRef> chunks;
    std::size_t event_count = 0;
};

/// Parse the prelude and index every chunk of `bytes` (headers carry the
/// payload size, so this is a skip-scan; decode_chunk checks the payloads).
[[nodiscard]] ChunkIndex index_chunks(std::string_view bytes);

/// Call `decode(i)` for every chunk index in [0, chunk_count) —
/// concurrently with a pool — under one "trace.chunk_decode" span, and
/// count the chunks in `trace.chunks_decoded`.  Chunks must decode into
/// disjoint destinations; the first decode error is rethrown here.
void decode_chunks(std::size_t chunk_count, par::ThreadPool* pool,
                   const std::function<void(std::size_t)>& decode);

}  // namespace dsspy::runtime::codec
