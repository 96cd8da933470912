#include "runtime/trace_binary.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/trace_codec.hpp"

namespace dsspy::runtime {

namespace {

using namespace codec;  // control bits, fail, chunk_baseline

/// Self-telemetry: DST1 chunks decoded (lazy-registered; call sites guard
/// on obs::enabled()).
obs::MetricId chunks_decoded_metric() {
    static const obs::MetricId id =
        obs::MetricsRegistry::global().counter("trace.chunks_decoded");
    return id;
}

// ---------------------------------------------------------------- encoding

/// Little-endian fixed-width integer (codec::load_le reads it back).
template <typename T>
void put_le(std::string& out, T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i)
        out += static_cast<char>((v >> (8 * i)) & 0xFF);
}

/// LEB128: 7 value bits per byte, high bit = continuation.
void put_varint(std::string& out, std::uint64_t v) {
    while (v >= 0x80) {
        out += static_cast<char>((v & 0x7F) | 0x80);
        v >>= 7;
    }
    out += static_cast<char>(v);
}

/// Zigzag folds small negative deltas into small varints.
std::uint64_t zigzag(std::uint64_t delta) {
    const auto s = static_cast<std::int64_t>(delta);
    return (static_cast<std::uint64_t>(s) << 1) ^
           static_cast<std::uint64_t>(s >> 63);
}

void put_delta(std::string& out, std::uint64_t cur, std::uint64_t prev) {
    put_varint(out, zigzag(cur - prev));  // mod-2^64 delta: exact round trip
}

void put_string(std::string& out, const std::string& s) {
    put_varint(out, s.size());
    out += s;
}

void put_event(std::string& out, const AccessEvent& ev,
               const AccessEvent& prev) {
    const auto upos = static_cast<std::uint64_t>(ev.position);
    const auto uprev_pos = static_cast<std::uint64_t>(prev.position);
    std::uint8_t control = 0;
    if (ev.seq == prev.seq + 1) control |= kSeqPlusOne;
    if (ev.time_ns == prev.time_ns) control |= kTimeSame;
    if (ev.instance == prev.instance) control |= kSameInstance;
    if (ev.op == prev.op) control |= kSameOp;
    if (upos == uprev_pos + 1) control |= kPosPlusOne;
    if (ev.size == prev.size) control |= kSizeSame;
    if (ev.thread == prev.thread) control |= kSameThread;
    out += static_cast<char>(control);
    if (!(control & kSeqPlusOne)) put_delta(out, ev.seq, prev.seq);
    if (!(control & kTimeSame)) put_delta(out, ev.time_ns, prev.time_ns);
    if (!(control & kSameInstance))
        put_delta(out, ev.instance, prev.instance);
    if (!(control & kSameOp)) out += static_cast<char>(ev.op);
    if (!(control & kPosPlusOne)) put_delta(out, upos, uprev_pos);
    if (!(control & kSizeSame)) put_delta(out, ev.size, prev.size);
    if (!(control & kSameThread)) put_delta(out, ev.thread, prev.thread);
}

// ---------------------------------------------------------------- decoding
// The prelude, chunk walk and event walk live in trace_codec.hpp.

/// Byte source for the streaming reader: the sniffed prefix, then the
/// stream.  take(n) reads exactly the missing bytes, in slices of at most
/// kReadSlice, so the buffer grows with the bytes actually received — a
/// corrupt length costs one slice before the input runs out, not the
/// length it declares.
class StreamSource : public ByteReader<StreamSource> {
public:
    StreamSource(std::istream& is, std::string_view prefix)
        : is_(is), unread_(prefix) {}

    const unsigned char* take(std::size_t n, const char* what) {
        if (unread_.size() < n) {
            buf_.assign(unread_);
            while (buf_.size() < n) {
                const std::size_t have = buf_.size();
                buf_.resize(have + std::min(n - have, kReadSlice));
                is_.read(buf_.data() + have,
                         static_cast<std::streamsize>(buf_.size() - have));
                if (is_.bad()) fail("I/O error while reading trace");
                buf_.resize(have + static_cast<std::size_t>(is_.gcount()));
                if (!is_) fail(what);  // input ended short of n bytes
            }
            unread_ = buf_;
        }
        const auto* p = reinterpret_cast<const unsigned char*>(unread_.data());
        unread_.remove_prefix(n);
        return p;
    }

    /// Unknown until the stream ends: no upper bound.
    static std::size_t remaining() { return SIZE_MAX; }

    [[nodiscard]] bool at_end() {
        return unread_.empty() &&
               is_.peek() == std::istream::traits_type::eof();
    }

private:
    static constexpr std::size_t kReadSlice = 64 * 1024;

    std::istream& is_;
    std::string_view unread_;  // the rest of the prefix, or of buf_
    std::string buf_;
};

/// Decode one chunk into AccessEvent records.
void decode_events(const ChunkRef& chunk, std::vector<AccessEvent>& out) {
    out.resize(chunk.count);
    decode_chunk(chunk, [&](std::uint32_t i, const AccessEvent& ev) {
        out[i] = ev;
    });
}

}  // namespace

std::size_t read_trace_binary_stream(std::istream& is, std::string_view prefix,
                                     TraceSink& sink) {
    StreamSource src(is, prefix);
    const std::uint64_t event_count = read_prelude(
        src, [&](const InstanceInfo& info) { sink.on_instance(info); });
    std::vector<AccessEvent> decoded;
    std::size_t delivered = 0;
    for_each_chunk(src, event_count, [&](const ChunkRef& chunk) {
        decode_events(chunk, decoded);
        if (obs::enabled())
            obs::MetricsRegistry::global().add(chunks_decoded_metric());
        sink.on_events(decoded);
        delivered += decoded.size();
    });
    return delivered;
}

bool is_binary_trace(std::string_view bytes) {
    return bytes.size() >= sizeof(kTraceBinaryMagic) &&
           std::memcmp(bytes.data(), kTraceBinaryMagic,
                       sizeof(kTraceBinaryMagic)) == 0;
}

std::size_t write_trace_binary(std::ostream& os,
                               const std::vector<InstanceInfo>& instances,
                               const ColumnStore& columns,
                               const std::uint64_t* seq) {
    const std::vector<InstanceId> order =
        detail::event_write_order(instances, columns);
    std::uint64_t event_count = 0;
    for (const InstanceId id : order) event_count += columns.range(id).size();

    std::string head;
    head.append(kTraceBinaryMagic, sizeof(kTraceBinaryMagic));
    put_le(head, kTraceBinaryVersion);
    put_le<std::uint64_t>(head, instances.size());
    put_le<std::uint64_t>(head, event_count);
    for (const InstanceInfo& info : instances) {
        put_varint(head, info.id);
        put_varint(head, static_cast<std::uint64_t>(info.kind));
        put_varint(head, info.location.position);
        put_string(head, info.type_name);
        put_string(head, info.location.class_name);
        put_string(head, info.location.method);
        head += static_cast<char>(info.deallocated ? 1 : 0);
    }
    os.write(head.data(), static_cast<std::streamsize>(head.size()));

    // Stream events chunk by chunk across instance boundaries.
    std::string payload;
    payload.reserve(kTraceBinaryChunkEvents * 4);
    std::uint32_t in_chunk = 0;
    AccessEvent prev = chunk_baseline();
    const auto flush_chunk = [&] {
        if (in_chunk == 0) return;
        std::string header;
        put_le(header, in_chunk);
        put_le(header, static_cast<std::uint32_t>(payload.size()));
        os.write(header.data(), static_cast<std::streamsize>(header.size()));
        os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
        payload.clear();
        in_chunk = 0;
        prev = chunk_baseline();
    };
    std::size_t written = 0;
    for (const InstanceId id : order) {
        for_each_event(columns, seq, id, [&](const AccessEvent& ev) {
            put_event(payload, ev, prev);
            prev = ev;
            ++written;
            if (++in_chunk == kTraceBinaryChunkEvents) flush_chunk();
        });
    }
    flush_chunk();
    return written;
}

namespace codec {

ChunkIndex index_chunks(std::string_view bytes) {
    ChunkIndex index;
    const auto* begin = reinterpret_cast<const unsigned char*>(bytes.data());
    Cursor cur(begin, begin + bytes.size());
    const std::uint64_t event_count =
        read_prelude(cur, [&](InstanceInfo&& info) {
            index.instances.push_back(std::move(info));
        });
    for_each_chunk(cur, event_count, [&](const ChunkRef& chunk) {
        index.chunks.push_back(chunk);
    });
    index.event_count = static_cast<std::size_t>(event_count);
    return index;
}

void decode_chunks(std::size_t chunk_count, par::ThreadPool* pool,
                   const std::function<void(std::size_t)>& decode) {
    DSSPY_TRACE_SPAN("trace.chunk_decode");
    // Pool shards parent under the decode span explicitly — they run on
    // pool threads whose TLS context is empty.
    const obs::TraceContext decode_ctx = obs::current_trace_context();
    if (pool != nullptr && chunk_count > 1) {
        // parallel_for_chunks rethrows the first decode error here.
        par::parallel_for_chunks(
            *pool, 0, chunk_count, [&](std::size_t lo, std::size_t hi) {
                DSSPY_TRACE_SPAN_UNDER("trace.decode_shard", decode_ctx);
                for (std::size_t i = lo; i < hi; ++i) decode(i);
            });
    } else {
        for (std::size_t i = 0; i < chunk_count; ++i) decode(i);
    }
    if (obs::enabled())
        obs::MetricsRegistry::global().add(chunks_decoded_metric(),
                                           chunk_count);
}

}  // namespace codec

}  // namespace dsspy::runtime
