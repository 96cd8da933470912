#include "runtime/trace_io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/trace_binary.hpp"
#include "support/strings.hpp"

namespace dsspy::runtime {

namespace {

/// Self-telemetry ids for trace serialization (registered lazily; every
/// call site guards on obs::enabled() first).
struct TraceMetricIds {
    obs::MetricId bytes_written;
    obs::MetricId bytes_read;
    obs::MetricId events_written;
    obs::MetricId events_read;
    obs::MetricId blank_records;  ///< Empty CSV records skipped.
};

const TraceMetricIds& trace_metrics() {
    static const TraceMetricIds ids = [] {
        auto& reg = obs::MetricsRegistry::global();
        return TraceMetricIds{
            reg.counter("trace.bytes_written"),
            reg.counter("trace.bytes_read"),
            reg.counter("trace.events_written"),
            reg.counter("trace.events_read"),
            reg.counter("trace.blank_records_skipped"),
        };
    }();
    return ids;
}

template <typename T>
T parse_number(std::string_view field, const char* what) {
    T value{};
    const auto* begin = field.data();
    const auto* end = field.data() + field.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{} || ptr != end)
        throw std::runtime_error(std::string("trace_io: bad ") + what +
                                 " field: '" + std::string(field) + "'");
    return value;
}

/// Quote-aware CSV record extraction as a resumable state machine: a
/// record ends at a '\n' outside quotes, and `""` toggles the quote state
/// twice (no net change), so quoted fields may span physical lines — and,
/// here, buffer refills: the quote state and any partial record carry over
/// between feed() calls, so a boundary can fall anywhere (even between the
/// two '"' of an escaped quote) without changing what is parsed.  The
/// column loader (parse_csv_trace) and the streaming reader run on it.
class CsvRecordScanner {
public:
    /// Scan `chunk`, invoking `emit(std::string_view record)` for every
    /// completed record.  The view is valid only during the call.
    template <typename Fn>
    void feed(std::string_view chunk, Fn&& emit) {
        std::size_t start = 0;
        for (std::size_t i = 0; i < chunk.size(); ++i) {
            const char ch = chunk[i];
            if (ch == '"') {
                in_quote_ = !in_quote_;
            } else if (ch == '\n' && !in_quote_) {
                if (carry_.empty()) {
                    emit(chunk.substr(start, i - start));
                } else {
                    carry_.append(chunk, start, i - start);
                    emit(std::string_view(carry_));
                    carry_.clear();
                }
                start = i + 1;
            }
        }
        carry_.append(chunk, start, chunk.size() - start);
    }

    /// End of input: emit the final unterminated record, if any.  Throws
    /// if a quoted field is still open.
    template <typename Fn>
    void finish(Fn&& emit) {
        if (in_quote_)
            throw std::runtime_error("trace_io: unterminated quoted field");
        if (!carry_.empty()) {
            emit(std::string_view(carry_));
            carry_.clear();
        }
    }

private:
    std::string carry_;    ///< Partial record spanning feed() boundaries.
    bool in_quote_ = false;
};

/// CSV trace bytes in pieces of any size: records from the scanner,
/// fields split into views, instances and event batches to the sink.
class CsvTraceParser {
public:
    explicit CsvTraceParser(TraceSink& sink) : sink_(sink) {
        batch_.reserve(1024);
    }

    void feed(std::string_view bytes) {
        scanner_.feed(bytes, [this](std::string_view r) { parse_record(r); });
    }

    /// End of input: parse the last record and flush the batch.  Returns
    /// the number of events parsed.
    std::size_t finish() {
        scanner_.finish([this](std::string_view r) { parse_record(r); });
        if (!batch_.empty()) sink_.on_events(batch_);
        batch_.clear();
        return events_;
    }

private:
    void parse_record(std::string_view line);

    TraceSink& sink_;
    CsvRecordScanner scanner_;
    std::vector<AccessEvent> batch_;  ///< Flushed when full.
    std::vector<std::string_view> fields_;
    std::string scratch_;  ///< Unescaped quoted fields.
    std::size_t events_ = 0;
};

void CsvTraceParser::parse_record(std::string_view line) {
    if (line.empty()) {
        if (obs::enabled())
            obs::MetricsRegistry::global().add(trace_metrics().blank_records);
        return;
    }
    detail::split_csv_record(line, fields_, scratch_);
    const std::vector<std::string_view>& fields = fields_;
    if (fields[0] == "I") {
        if (fields.size() != 8)
            throw std::runtime_error(
                "trace_io: instance record needs 8 fields, got " +
                std::to_string(fields.size()));
        InstanceInfo info;
        info.id = parse_number<InstanceId>(fields[1], "id");
        const auto kind = parse_number<unsigned>(fields[2], "kind");
        if (kind >= kDsKindCount)
            throw std::runtime_error("trace_io: bad kind value");
        info.kind = static_cast<DsKind>(kind);
        info.type_name = fields[3];
        info.location.class_name = fields[4];
        info.location.method = fields[5];
        info.location.position =
            parse_number<std::uint32_t>(fields[6], "position");
        info.deallocated = fields[7] == "1";
        sink_.on_instance(info);
        return;
    }
    if (fields[0] == "E") {
        if (fields.size() != 8)
            throw std::runtime_error(
                "trace_io: event record needs 8 fields, got " +
                std::to_string(fields.size()));
        AccessEvent ev;
        ev.seq = parse_number<std::uint64_t>(fields[1], "seq");
        ev.time_ns = parse_number<std::uint64_t>(fields[2], "time_ns");
        ev.instance = parse_number<InstanceId>(fields[3], "instance");
        const auto op = parse_number<unsigned>(fields[4], "op");
        if (op >= kOpKindCount)
            throw std::runtime_error("trace_io: bad op value");
        ev.op = static_cast<OpKind>(op);
        ev.position = parse_number<std::int64_t>(fields[5], "position");
        ev.size = parse_number<std::uint32_t>(fields[6], "size");
        ev.thread = parse_number<ThreadId>(fields[7], "thread");
        batch_.push_back(ev);
        ++events_;
        if (batch_.size() == batch_.capacity()) {
            sink_.on_events(batch_);
            batch_.clear();
        }
        return;
    }
    throw std::runtime_error("trace_io: unknown record tag '" +
                             std::string(fields[0]) + "'");
}

std::size_t write_trace_csv(std::ostream& os,
                            const std::vector<InstanceInfo>& instances,
                            const ColumnStore& columns,
                            const std::uint64_t* seq) {
    for (const InstanceInfo& info : instances)
        detail::write_csv_instance_record(os, info);
    std::size_t events = 0;
    for (const InstanceId id : detail::event_write_order(instances, columns)) {
        for_each_event(columns, seq, id, [&](const AccessEvent& ev) {
            detail::write_csv_event_record(os, ev);
            ++events;
        });
    }
    return events;
}

/// The one trace writer: instances, then each instance's rows in
/// detail::event_write_order.  Every public write_trace overload
/// forwards here.
std::size_t write_rows(std::ostream& os,
                       const std::vector<InstanceInfo>& instances,
                       const ColumnStore& columns, const std::uint64_t* seq,
                       TraceFormat format) {
    DSSPY_TRACE_SPAN("trace.write");
    const std::streampos before = obs::enabled() ? os.tellp()
                                                 : std::streampos{-1};
    const std::size_t events =
        format == TraceFormat::Binary
            ? write_trace_binary(os, instances, columns, seq)
            : write_trace_csv(os, instances, columns, seq);
    if (obs::enabled()) {
        auto& reg = obs::MetricsRegistry::global();
        reg.add(trace_metrics().events_written, events);
        // Non-seekable sinks (pipes) report -1; skip the byte count then.
        const std::streampos after = os.tellp();
        if (before >= std::streampos{0} && after >= before)
            reg.add(trace_metrics().bytes_written,
                    static_cast<std::uint64_t>(after - before));
    }
    return events;
}

/// Open `path` for writing and run `write` on it; false when the file
/// cannot be opened or the flushed stream reports a short write.
template <class Write>
bool write_file(const std::string& path, Write&& write) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    write(out);
    // A short write (full disk, dead pipe) may only surface at flush time;
    // report it instead of pretending the trace landed.
    out.flush();
    return static_cast<bool>(out);
}

/// Streaming CSV: refill a fixed buffer and feed it through the scanner;
/// quote state and partial records survive the refills.
std::size_t read_trace_csv_stream(std::istream& is, std::string_view first,
                                  TraceSink& sink, std::size_t buffer_bytes) {
    CsvTraceParser parser(sink);
    std::size_t bytes = first.size();
    parser.feed(first);
    std::string buf(buffer_bytes, '\0');
    while (is) {
        is.read(buf.data(), static_cast<std::streamsize>(buf.size()));
        const auto got = static_cast<std::size_t>(is.gcount());
        if (got == 0) break;
        bytes += got;
        parser.feed(std::string_view(buf.data(), got));
    }
    if (is.bad())
        throw std::runtime_error("trace_io: I/O error while reading trace");
    const std::size_t events = parser.finish();
    detail::count_trace_read(bytes, events);
    return events;
}

}  // namespace

namespace detail {

std::vector<InstanceId> event_write_order(
    const std::vector<InstanceInfo>& instances, const ColumnStore& columns) {
    std::vector<InstanceId> order;
    order.reserve(instances.size());
    std::vector<bool> listed(columns.instance_slots(), false);
    for (const InstanceInfo& info : instances) {
        order.push_back(info.id);
        if (info.id < listed.size()) listed[info.id] = true;
    }
    // Store-only ids (events appended without a matching registry entry,
    // e.g. by an external tool building traces directly) must still be
    // written — dropping them silently would corrupt the round trip.
    for (InstanceId id = 0; id < listed.size(); ++id)
        if (!listed[id] && !columns.range(id).empty()) order.push_back(id);
    return order;
}

void write_csv_instance_record(std::ostream& os, const InstanceInfo& info) {
    os << "I," << info.id << ','
       << static_cast<unsigned>(info.kind) << ','
       << support::csv_escape(info.type_name) << ','
       << support::csv_escape(info.location.class_name) << ','
       << support::csv_escape(info.location.method) << ','
       << info.location.position << ','
       << (info.deallocated ? 1 : 0) << '\n';
}

void write_csv_event_record(std::ostream& os, const AccessEvent& ev) {
    os << "E," << ev.seq << ',' << ev.time_ns << ',' << ev.instance << ','
       << static_cast<unsigned>(ev.op) << ',' << ev.position << ',' << ev.size
       << ',' << ev.thread << '\n';
}

std::size_t parse_csv_trace(std::string_view bytes, TraceSink& sink) {
    CsvTraceParser parser(sink);
    parser.feed(bytes);
    return parser.finish();
}

void split_csv_record(std::string_view record,
                      std::vector<std::string_view>& fields,
                      std::string& scratch) {
    fields.clear();
    scratch.clear();
    // Unescaping never lengthens a field, so the buffer never moves.
    scratch.reserve(record.size());
    std::size_t start = 0;
    for (;;) {
        const std::size_t stop = record.find_first_of(",\"", start);
        if (stop == std::string_view::npos || record[stop] == ',') {
            fields.push_back(record.substr(start, stop - start));
            if (stop == std::string_view::npos) return;
            start = stop + 1;
            continue;
        }
        // A quote toggles quoting anywhere in the field, and `""` inside
        // quotes stands for one quote.
        const std::size_t from = scratch.size();
        bool quoted = false;
        std::size_t i = start;
        for (; i < record.size(); ++i) {
            const char ch = record[i];
            if (ch == '"') {
                if (quoted && i + 1 < record.size() && record[i + 1] == '"') {
                    scratch += '"';
                    ++i;
                } else {
                    quoted = !quoted;
                }
            } else if (ch == ',' && !quoted) {
                break;
            } else {
                scratch += ch;
            }
        }
        fields.push_back(std::string_view(scratch).substr(from));
        if (i == record.size()) return;
        start = i + 1;
    }
}

void count_trace_read(std::size_t bytes, std::size_t events) {
    if (!obs::enabled()) return;
    auto& reg = obs::MetricsRegistry::global();
    reg.add(trace_metrics().bytes_read, bytes);
    reg.add(trace_metrics().events_read, events);
}

}  // namespace detail

std::size_t write_trace(std::ostream& os,
                        const std::vector<InstanceInfo>& instances,
                        const ProfileStore& store, TraceFormat format) {
    const ColumnStore& columns = store.columns();
    return write_rows(os, instances, columns, store.seq(), format);
}

std::size_t write_trace(std::ostream& os, const ColumnTrace& trace,
                        TraceFormat format) {
    if (trace.seq == nullptr && trace.columns.total_events() > 0)
        throw std::invalid_argument(
            "trace_io: cannot write a trace whose seq column was released");
    return write_rows(os, trace.instances, trace.columns, trace.seq.get(),
                      format);
}

std::size_t write_trace(std::ostream& os, const ProfilingSession& session,
                        TraceFormat format) {
    return write_trace(os, session.registry().snapshot(), session.store(),
                       format);
}

std::size_t read_trace_stream(std::istream& is, TraceSink& sink,
                              std::size_t buffer_bytes) {
    DSSPY_TRACE_SPAN("trace.read");
    const std::size_t cap = std::max<std::size_t>(buffer_bytes, 64);
    // Probe one buffer to sniff the format, then hand the consumed prefix
    // to the chosen reader so no byte is parsed twice.
    std::string probe(cap, '\0');
    is.read(probe.data(), static_cast<std::streamsize>(cap));
    probe.resize(static_cast<std::size_t>(is.gcount()));
    if (is.bad())
        throw std::runtime_error("trace_io: I/O error while reading trace");
    if (is_binary_trace(probe))
        return read_trace_binary_stream(is, probe, sink);
    return read_trace_csv_stream(is, probe, sink, cap);
}

std::size_t read_trace_stream_file(const std::string& path, TraceSink& sink,
                                   std::size_t buffer_bytes) {
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("trace_io: cannot open trace file '" + path +
                                 "'");
    return read_trace_stream(in, sink, buffer_bytes);
}

namespace {

/// Read-only streambuf over a ChunkSource: underflow() pulls the next
/// chunk and exposes it as the get area without copying.  This is what
/// lets the framed socket connections of the serve layer feed the same
/// istream-based prefix-carry readers files go through.
class ChunkSourceBuf final : public std::streambuf {
public:
    explicit ChunkSourceBuf(const ChunkSource& next) : next_(next) {}

protected:
    int_type underflow() override {
        if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
        const std::string_view chunk = next_();
        if (chunk.empty()) return traits_type::eof();
        // The source guarantees the chunk stays valid until the next pull;
        // the get area never outlives it (underflow refills before reads).
        char* base = const_cast<char*>(chunk.data());
        setg(base, base, base + chunk.size());
        return traits_type::to_int_type(*gptr());
    }

private:
    const ChunkSource& next_;
};

}  // namespace

std::size_t read_trace_stream(const ChunkSource& next_chunk, TraceSink& sink,
                              std::size_t buffer_bytes) {
    ChunkSourceBuf buf(next_chunk);
    std::istream is(&buf);
    return read_trace_stream(is, sink, buffer_bytes);
}

bool write_trace_file(const std::string& path,
                      const std::vector<InstanceInfo>& instances,
                      const ProfileStore& store, TraceFormat format) {
    return write_file(path, [&](std::ostream& os) {
        write_trace(os, instances, store, format);
    });
}

bool write_trace_file(const std::string& path, const ColumnTrace& trace,
                      TraceFormat format) {
    return write_file(path,
                      [&](std::ostream& os) { write_trace(os, trace, format); });
}

bool write_trace_file(const std::string& path, const ProfilingSession& session,
                      TraceFormat format) {
    return write_trace_file(path, session.registry().snapshot(),
                            session.store(), format);
}

}  // namespace dsspy::runtime
