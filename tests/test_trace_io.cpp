// Tests for trace serialization: CSV and DST1 binary round trips through
// the one post-mortem loader (read_trace_columns), offline analysis,
// adversarial field content, and malformed-input rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <new>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "aos_oracle.hpp"
#include "core/dsspy.hpp"
#include "ds/ds.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/trace_binary.hpp"
#include "runtime/trace_codec.hpp"
#include "runtime/trace_io.hpp"
#include "runtime/trace_mmap.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "temp_path.hpp"

namespace {

/// Largest single allocation allowed while an AllocationCap is held.
std::atomic<std::size_t> g_allocation_cap{SIZE_MAX};

}  // namespace

// Capped replacement of the global allocator: a reader that sizes a
// buffer by a length its input declares, rather than by the bytes it
// received, fails under an AllocationCap with std::bad_alloc instead of
// exhausting the machine.
void* operator new(std::size_t n) {
    if (n > g_allocation_cap.load(std::memory_order_relaxed))
        throw std::bad_alloc();
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
    std::free(p);
}

namespace dsspy::runtime {
namespace {

struct AllocationCap {
    explicit AllocationCap(std::size_t bytes) { g_allocation_cap = bytes; }
    ~AllocationCap() { g_allocation_cap = SIZE_MAX; }
    AllocationCap(const AllocationCap&) = delete;
    AllocationCap& operator=(const AllocationCap&) = delete;
};

/// Record a small but classification-rich session.
void drive_session(ProfilingSession& session) {
    ds::ProfiledList<std::string> list(
        &session, {"Trace.Test, with comma", "Run \"quoted\"", 3});
    for (int i = 0; i < 150; ++i)
        list.add("value," + std::to_string(i));
    for (std::size_t i = 0; i < list.count(); ++i) (void)list.get(i);

    ds::ProfiledDictionary<int, int> dict(&session, {"Trace.Test", "Aux", 9});
    dict.set(1, 2);
}

/// A trace built in memory: instance metadata plus the store it is
/// written from.
struct StoreTrace {
    std::vector<InstanceInfo> instances;
    ProfileStore store;
};

std::size_t total_events(const StoreTrace& t) {
    return t.store.total_events();
}
std::size_t total_events(const ColumnTrace& t) {
    return t.columns.total_events();
}
std::size_t instance_slots(const StoreTrace& t) {
    return t.store.instance_slots();
}
std::size_t instance_slots(const ColumnTrace& t) {
    return t.columns.instance_slots();
}
std::vector<AccessEvent> events_of(const StoreTrace& t, InstanceId id) {
    return oracle::events_of(t.store, id);
}
std::vector<AccessEvent> events_of(const ColumnTrace& t, InstanceId id) {
    return oracle::events_of(t, id);
}

/// Full structural equality of two traces (instances and the per-instance
/// event sequences, every field included).
template <class A, class B>
void expect_traces_equal(const A& a, const B& b) {
    ASSERT_EQ(a.instances.size(), b.instances.size());
    for (std::size_t i = 0; i < a.instances.size(); ++i)
        EXPECT_EQ(a.instances[i], b.instances[i]) << "instance " << i;
    EXPECT_EQ(total_events(a), total_events(b));
    const std::size_t slots = std::max(instance_slots(a), instance_slots(b));
    for (std::size_t id = 0; id < slots; ++id) {
        const auto iid = static_cast<InstanceId>(id);
        const auto ea = events_of(a, iid);
        const auto eb = events_of(b, iid);
        ASSERT_EQ(ea.size(), eb.size()) << "instance " << id;
        for (std::size_t i = 0; i < ea.size(); ++i)
            EXPECT_EQ(ea[i], eb[i]) << "instance " << id << " event " << i;
    }
}

/// Serialize a session in `format` and load the result back.
ColumnTrace round_trip(const ProfilingSession& session, TraceFormat format,
                       par::ThreadPool* pool = nullptr) {
    std::ostringstream buffer;
    write_trace(buffer, session, format);
    return read_trace_columns(buffer.str(), pool);
}

/// Write `bytes` to a scratch file and load it with the file loader.
ColumnTrace load_file(const std::string& bytes,
                      par::ThreadPool* pool = nullptr) {
    const std::string path = testing_support::unique_temp_path(".trace");
    std::ofstream(path, std::ios::binary) << bytes;
    struct Remove {
        const std::string& path;
        ~Remove() { std::remove(path.c_str()); }
    } remove{path};
    return read_trace_columns_file(path, pool);
}

TEST(TraceIo, RoundTripPreservesEverything) {
    ProfilingSession session;
    drive_session(session);
    session.stop();

    std::stringstream buffer;
    const std::size_t written = write_trace(buffer, session);
    EXPECT_EQ(written, session.store().total_events());

    const ColumnTrace trace = read_trace_columns(buffer.str());
    ASSERT_EQ(trace.instances.size(), session.registry().size());
    EXPECT_EQ(trace.columns.total_events(), session.store().total_events());

    for (const InstanceInfo& original : session.registry().snapshot()) {
        const InstanceInfo& restored = trace.instances[original.id];
        EXPECT_EQ(restored.id, original.id);
        EXPECT_EQ(restored.kind, original.kind);
        EXPECT_EQ(restored.type_name, original.type_name);
        EXPECT_EQ(restored.location, original.location);
        EXPECT_EQ(restored.deallocated, original.deallocated);

        const auto orig_events =
            oracle::events_of(session.store(), original.id);
        const auto rest_events = oracle::events_of(trace, original.id);
        ASSERT_EQ(orig_events.size(), rest_events.size());
        for (std::size_t i = 0; i < orig_events.size(); ++i)
            EXPECT_EQ(orig_events[i], rest_events[i]);
    }
}

TEST(TraceIo, OfflineAnalysisMatchesLiveAnalysis) {
    ProfilingSession session;
    drive_session(session);
    session.stop();

    const core::Dsspy analyzer;
    const auto live = analyzer.analyze(session);

    std::stringstream buffer;
    write_trace(buffer, session);
    const ColumnTrace trace = read_trace_columns(buffer.str());
    const auto offline = analyzer.analyze(trace.instances, trace.columns);

    EXPECT_EQ(live.total_instances(), offline.total_instances());
    EXPECT_EQ(live.list_array_instances(), offline.list_array_instances());
    EXPECT_EQ(live.flagged_instances(), offline.flagged_instances());
    EXPECT_EQ(live.use_case_counts(), offline.use_case_counts());
    ASSERT_EQ(live.instances().size(), offline.instances().size());
    for (std::size_t i = 0; i < live.instances().size(); ++i)
        EXPECT_EQ(live.instances()[i].patterns.size(),
                  offline.instances()[i].patterns.size());
}

TEST(TraceIo, EmptySessionRoundTrips) {
    ProfilingSession session;
    session.stop();
    std::stringstream buffer;
    EXPECT_EQ(write_trace(buffer, session), 0u);
    const ColumnTrace trace = read_trace_columns(buffer.str());
    EXPECT_TRUE(trace.instances.empty());
    EXPECT_EQ(trace.columns.total_events(), 0u);
}

TEST(TraceIo, FileRoundTrip) {
    ProfilingSession session;
    drive_session(session);
    session.stop();

    const std::string path = testing_support::unique_temp_path(".csv");
    ASSERT_TRUE(write_trace_file(path, session));
    const ColumnTrace trace = read_trace_columns_file(path);
    EXPECT_EQ(trace.columns.total_events(), session.store().total_events());
    std::remove(path.c_str());
}

TEST(TraceIo, BinaryFileRoundTrip) {
    ProfilingSession session;
    drive_session(session);
    session.stop();

    const std::string path = testing_support::unique_temp_path(".dst");
    ASSERT_TRUE(write_trace_file(path, session, TraceFormat::Binary));
    const ColumnTrace trace = read_trace_columns_file(path);  // auto-detected
    expect_traces_equal(trace, round_trip(session, TraceFormat::Csv));
    std::remove(path.c_str());
}

TEST(TraceIo, ReadMissingFileThrows) {
    EXPECT_THROW((void)read_trace_columns_file("/nonexistent/dsspy.csv"),
                 std::runtime_error);
}

TEST(TraceIo, WriteToUnwritablePathReportsFailure) {
    ProfilingSession session;
    session.stop();
    EXPECT_FALSE(write_trace_file("/nonexistent/dir/dsspy.csv", session));
    EXPECT_FALSE(write_trace_file("/nonexistent/dir/dsspy.dst", session,
                                  TraceFormat::Binary));
}

/// The message the column loader throws on `bytes`, or "" when it
/// accepts them.
std::string load_error(std::string_view bytes) {
    try {
        (void)read_trace_columns(bytes);
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

// CSV errors keep the messages the CSV parser has always thrown.
TEST(TraceIo, RejectsUnknownRecordTag) {
    EXPECT_EQ(load_error("X,1,2,3\n"), "trace_io: unknown record tag 'X'");
}

TEST(TraceIo, RejectsWrongFieldCount) {
    EXPECT_EQ(load_error("E,1,2,3\n"),
              "trace_io: event record needs 8 fields, got 4");
    EXPECT_EQ(load_error("I,0,0\n"),
              "trace_io: instance record needs 8 fields, got 3");
}

TEST(TraceIo, RejectsNonNumericField) {
    EXPECT_EQ(load_error("E,abc,2,0,1,0,1,0\n"),
              "trace_io: bad seq field: 'abc'");
}

TEST(TraceIo, RejectsOutOfRangeEnums) {
    EXPECT_EQ(load_error("E,1,2,0,250,0,1,0\n"), "trace_io: bad op value");
    EXPECT_EQ(load_error("I,0,99,List<Int32>,C,M,1,0\n"),
              "trace_io: bad kind value");
}

TEST(TraceIo, RejectsUnterminatedQuote) {
    EXPECT_EQ(load_error("I,0,0,\"List<Int32>,C,M,1,0\n"),
              "trace_io: unterminated quoted field");
}

TEST(TraceIo, SkipsBlankLines) {
    const ColumnTrace trace = read_trace_columns(
        "I,0,0,List<Int32>,C,M,1,0\n\nE,1,10,0,2,0,1,0\n\n");
    EXPECT_EQ(trace.instances.size(), 1u);
    EXPECT_EQ(trace.columns.total_events(), 1u);
}

TEST(TraceIo, HandlesQuotedFieldsWithCommasAndQuotes) {
    const ColumnTrace trace = read_trace_columns(
        "I,0,0,\"List<Pair<A, B>>\",\"Cls \"\"X\"\"\",M,1,1\n");
    ASSERT_EQ(trace.instances.size(), 1u);
    EXPECT_EQ(trace.instances[0].type_name, "List<Pair<A, B>>");
    EXPECT_EQ(trace.instances[0].location.class_name, "Cls \"X\"");
    EXPECT_TRUE(trace.instances[0].deallocated);
}

/// The record splitter the CSV reader used before it split into views: one
/// heap string per field.  The oracle for split_csv_record.
std::vector<std::string> split_csv_oracle(std::string_view line) {
    std::vector<std::string> fields;
    std::string current;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char ch = line[i];
        if (quoted) {
            if (ch == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    current += '"';
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                current += ch;
            }
        } else if (ch == '"') {
            quoted = true;
        } else if (ch == ',') {
            fields.push_back(std::move(current));
            current.clear();
        } else {
            current += ch;
        }
    }
    fields.push_back(std::move(current));
    return fields;
}

void expect_split_matches_oracle(std::string_view record,
                                 std::vector<std::string_view>& fields,
                                 std::string& scratch) {
    detail::split_csv_record(record, fields, scratch);
    const std::vector<std::string> want = split_csv_oracle(record);
    ASSERT_EQ(fields.size(), want.size()) << '[' << record << ']';
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(fields[i], want[i]) << '[' << record << "] field " << i;
}

// Field boundaries and quote semantics match the per-field-string splitter
// on any byte string over the CSV metacharacters, balanced or not, and on
// records written from quoted, embedded-quote, comma and newline fields.
TEST(TraceIo, SplitCsvRecordMatchesStringSplitter) {
    support::Rng rng(0xC5F5EED);
    std::vector<std::string_view> fields;
    std::string scratch;
    constexpr char kBytes[] = {'a', 'Z', ' ', ',', '"', '\n'};
    for (int round = 0; round < 20'000; ++round) {
        std::string record(rng.next_below(24), ' ');
        for (char& ch : record) ch = kBytes[rng.next_below(sizeof(kBytes))];
        expect_split_matches_oracle(record, fields, scratch);
    }
    constexpr std::string_view kPieces[] = {"List<A, B>", "\"", "\"\"", ",",
                                            "\n", "Cls", "", "1"};
    for (int round = 0; round < 5'000; ++round) {
        std::vector<std::string> want(1 + rng.next_below(9));
        std::string record;
        for (std::size_t f = 0; f < want.size(); ++f) {
            for (std::uint64_t n = rng.next_below(4); n > 0; --n)
                want[f] += kPieces[rng.next_below(std::size(kPieces))];
            record += (f == 0 ? "" : ",") + support::csv_escape(want[f]);
        }
        expect_split_matches_oracle(record, fields, scratch);
        ASSERT_EQ(fields.size(), want.size());
        for (std::size_t f = 0; f < want.size(); ++f)
            ASSERT_EQ(fields[f], want[f]) << '[' << record << ']';
    }
}

// Regression: escape() quotes fields containing '\n', but the reader used
// to split on physical lines, so a newline inside a name blew up the
// field count on re-import.
TEST(TraceIo, NewlineInNamesRoundTrips) {
    ProfilingSession session;
    ds::ProfiledList<int> list(
        &session, {"Gen\nerated.Cls", "lambda\nat line 7", 42});
    list.add(1);
    session.stop();

    for (const TraceFormat format : {TraceFormat::Csv, TraceFormat::Binary}) {
        const ColumnTrace trace = round_trip(session, format);
        ASSERT_EQ(trace.instances.size(), 1u);
        EXPECT_EQ(trace.instances[0].location.class_name, "Gen\nerated.Cls");
        EXPECT_EQ(trace.instances[0].location.method, "lambda\nat line 7");
        EXPECT_EQ(trace.columns.total_events(),
                  session.store().total_events());
    }
}

// Store events whose instance id has no registry entry (externally built
// traces) must survive a write/read cycle instead of being dropped.
TEST(TraceIo, OrphanStoreEventsSurviveRoundTrip) {
    std::vector<InstanceInfo> instances;
    InstanceInfo known;
    known.id = 0;
    known.kind = DsKind::List;
    known.type_name = "List<Int32>";
    known.location = {"Cls", "M", 1};
    instances.push_back(known);

    ProfileStore store;
    const AccessEvent known_ev{1, 10, 0, /*instance=*/0, 1, OpKind::Add, 0};
    const AccessEvent orphan_ev{2, 20, 3, /*instance=*/5, 7, OpKind::Get, 1};
    const AccessEvent events[] = {known_ev, orphan_ev};
    store.append(events);
    store.finalize();

    for (const TraceFormat format : {TraceFormat::Csv, TraceFormat::Binary}) {
        std::stringstream buffer;
        EXPECT_EQ(write_trace(buffer, instances, store, format), 2u);
        const ColumnTrace trace = read_trace_columns(buffer.str());
        EXPECT_EQ(trace.columns.total_events(), 2u);
        ASSERT_EQ(oracle::events_of(trace, 5).size(), 1u);
        EXPECT_EQ(oracle::events_of(trace, 5)[0], orphan_ev);
        ASSERT_EQ(oracle::events_of(trace, 0).size(), 1u);
        EXPECT_EQ(oracle::events_of(trace, 0)[0], known_ev);
    }
}

// ------------------------------------------------------------ adversarial

TEST(TraceIoAdversarial, HostileNamesRoundTripInBothFormats) {
    const std::string hostile[] = {
        "plain",
        "comma, separated, name",
        "quote \"in\" the middle",
        "\"fully quoted\"",
        "newline\nin the middle",
        "both, \"and\"\nmore,\n\"even\" this",
        "trailing newline\n",
        "UTF-8: δομή δεδομένων 🚀 ラムダ",
        ",",
        "\"",
        "\n",
        std::string("embedded\0NUL-free? no: keep bytes", 33),
    };
    ProfilingSession session;
    for (const std::string& name : hostile) {
        ds::ProfiledList<int> list(&session, {name, name + "#m", 7});
        list.add(1);
    }
    session.stop();

    for (const TraceFormat format : {TraceFormat::Csv, TraceFormat::Binary}) {
        const ColumnTrace trace = round_trip(session, format);
        ASSERT_EQ(trace.instances.size(), std::size(hostile));
        for (std::size_t i = 0; i < std::size(hostile); ++i) {
            EXPECT_EQ(trace.instances[i].location.class_name, hostile[i])
                << "format " << static_cast<int>(format) << " name " << i;
            EXPECT_EQ(trace.instances[i].location.method, hostile[i] + "#m");
        }
    }
}

TEST(TraceIoAdversarial, ExtremeFieldValuesRoundTrip) {
    std::vector<InstanceInfo> instances;
    InstanceInfo info;
    info.id = 0;
    info.kind = DsKind::Array;
    info.type_name = "Int64[]";
    info.location = {"Cls", "M", std::numeric_limits<std::uint32_t>::max()};
    instances.push_back(info);

    constexpr std::uint64_t u64max = std::numeric_limits<std::uint64_t>::max();
    const AccessEvent extremes[] = {
        // seq, time_ns, position, instance, size, op, thread
        {0, 0, std::numeric_limits<std::int64_t>::min(), 0, 0, OpKind::Get, 0},
        {1, u64max, std::numeric_limits<std::int64_t>::max(), 0,
         std::numeric_limits<std::uint32_t>::max(), OpKind::Resize,
         std::numeric_limits<ThreadId>::max()},
        {u64max, 1, kWholeContainer, 0, 1, OpKind::Clear, 1},
    };
    ProfileStore store;
    store.append(extremes);
    store.finalize();

    for (const TraceFormat format : {TraceFormat::Csv, TraceFormat::Binary}) {
        std::stringstream buffer;
        write_trace(buffer, instances, store, format);
        const ColumnTrace trace = read_trace_columns(buffer.str());
        ASSERT_EQ(trace.instances.size(), 1u);
        EXPECT_EQ(trace.instances[0], info);
        const auto events = oracle::events_of(trace, 0);
        ASSERT_EQ(events.size(), 3u);
        // The store re-sorts by seq on finalize and writes in that order.
        EXPECT_EQ(events[0], extremes[0]);
        EXPECT_EQ(events[1], extremes[1]);
        EXPECT_EQ(events[2], extremes[2]);
    }
}

TEST(TraceIoAdversarial, CrossFormatConversionsAgree) {
    ProfilingSession session;
    drive_session(session);
    session.stop();

    const ColumnTrace from_csv = round_trip(session, TraceFormat::Csv);
    const ColumnTrace from_binary = round_trip(session, TraceFormat::Binary);
    expect_traces_equal(from_csv, from_binary);

    // And converting the loaded CSV trace to binary (the `dsspy convert`
    // path: a ColumnTrace written back out) is still lossless, down to
    // the bytes the session writes.
    std::ostringstream converted;
    write_trace(converted, from_csv, TraceFormat::Binary);
    std::ostringstream direct;
    write_trace(direct, session, TraceFormat::Binary);
    EXPECT_EQ(converted.str(), direct.str());
    expect_traces_equal(read_trace_columns(converted.str()), from_binary);
}

// ------------------------------------------------------------ DST1 binary

/// A multi-chunk session: enough synthetic events to span several 64K
/// chunks without driving real containers.
StoreTrace multi_chunk_trace(
    std::size_t events = 3 * kTraceBinaryChunkEvents / 2 + 137) {
    StoreTrace trace;
    for (InstanceId id = 0; id < 8; ++id) {
        InstanceInfo info;
        info.id = id;
        info.kind = DsKind::List;
        info.type_name = "List<Int32>";
        info.location = {"Chunky.Cls", "m" + std::to_string(id), id};
        trace.instances.push_back(std::move(info));
    }
    std::vector<AccessEvent> batch;
    batch.reserve(events);
    std::uint64_t seq = 0;
    for (std::size_t i = 0; i < events; ++i) {
        AccessEvent ev;
        ev.seq = seq++;
        ev.time_ns = 1'000'000 + i * 17;
        ev.instance = static_cast<InstanceId>(i % 8);
        ev.op = static_cast<OpKind>(i % kOpKindCount);
        ev.position = static_cast<std::int64_t>(i % 1024) - 1;
        ev.size = static_cast<std::uint32_t>(i % 4096);
        ev.thread = static_cast<ThreadId>(i % 4);
        batch.push_back(ev);
    }
    trace.store.append(batch);
    trace.store.finalize();
    return trace;
}

std::string binary_bytes(const StoreTrace& trace) {
    std::ostringstream out;
    write_trace(out, trace.instances, trace.store, TraceFormat::Binary);
    return std::move(out).str();
}

// The TraceIoBinary tests load DST1 through the mmap file loader, the
// TraceIoColumns tests from a buffer.

TEST(TraceIoBinary, MultiChunkRoundTrips) {
    const StoreTrace original = multi_chunk_trace();
    const std::string binary = binary_bytes(original);
    ASSERT_TRUE(is_binary_trace(binary));
    expect_traces_equal(load_file(binary), original);
}

TEST(TraceIoBinary, CompactEncodingBeatsCsvSize) {
    // A realistic capture (append phase + read sweeps, the pattern the
    // control-byte encoding is built for): the acceptance bar for the
    // 1M-event bench is ≥5× smaller than CSV, and a genuine workload must
    // clear it at test scale too.
    ProfilingSession session;
    {
        ds::ProfiledList<int> list(&session, {"Size.Test", "Fill", 1});
        for (int i = 0; i < 20000; ++i) list.add(i);
        for (int sweep = 0; sweep < 2; ++sweep)
            for (std::size_t i = 0; i < list.count(); ++i) (void)list.get(i);
    }
    session.stop();

    std::ostringstream csv;
    write_trace(csv, session, TraceFormat::Csv);
    std::ostringstream binary;
    write_trace(binary, session, TraceFormat::Binary);
    EXPECT_GE(csv.str().size(), 5 * binary.str().size())
        << "csv=" << csv.str().size() << " binary=" << binary.str().size();
}

TEST(TraceIoBinary, ParallelDecodeIsBitIdenticalToSequential) {
    const std::string binary = binary_bytes(multi_chunk_trace());
    const ColumnTrace sequential = load_file(binary, nullptr);
    par::ThreadPool pool(4);
    const ColumnTrace parallel = load_file(binary, &pool);
    expect_traces_equal(sequential, parallel);
}

TEST(TraceIoBinary, AutoDetectsFormatFromStream) {
    const StoreTrace original = multi_chunk_trace();
    for (const TraceFormat format : {TraceFormat::Csv, TraceFormat::Binary}) {
        std::ostringstream buffer;
        write_trace(buffer, original.instances, original.store, format);
        expect_traces_equal(load_file(buffer.str()), original);
    }
}

TEST(TraceIoBinary, RejectsBadMagicAndVersion) {
    std::string bytes = binary_bytes(multi_chunk_trace());
    {
        std::string bad = bytes;
        bad[3] = '9';  // "DST9"
        // Without the DST1 magic the loader reads CSV — which rejects the
        // garbage as a malformed record, not a crash.
        EXPECT_THROW((void)load_file(bad), std::runtime_error);
    }
    {
        std::string bad = bytes;
        bad[4] = 0x7F;  // version word
        EXPECT_THROW((void)load_file(bad), std::runtime_error);
    }
}

TEST(TraceIoBinary, RejectsBadVarint) {
    // Header declaring one instance, then an id varint that never
    // terminates (11 continuation bytes).
    std::string bytes(kTraceBinaryMagic, sizeof(kTraceBinaryMagic));
    const auto put_u32 = [&](std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            bytes += static_cast<char>((v >> (8 * i)) & 0xFF);
    };
    const auto put_u64 = [&](std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            bytes += static_cast<char>((v >> (8 * i)) & 0xFF);
    };
    put_u32(kTraceBinaryVersion);
    put_u64(1);  // instance_count
    put_u64(0);  // event_count
    bytes.append(11, static_cast<char>(0x80));
    EXPECT_THROW((void)load_file(bytes), std::runtime_error);
}

// ----------------------------------------------- one loader, two formats

/// Identical loads: instances, ranges, and every column and seq row for
/// row.
void expect_same_columns(const ColumnTrace& a, const ColumnTrace& b) {
    EXPECT_EQ(a.instances, b.instances);
    ASSERT_EQ(a.columns.total_events(), b.columns.total_events());
    ASSERT_EQ(a.columns.instance_slots(), b.columns.instance_slots());
    for (std::size_t id = 0; id < a.columns.instance_slots(); ++id) {
        const auto iid = static_cast<InstanceId>(id);
        EXPECT_EQ(a.columns.range(iid).begin, b.columns.range(iid).begin);
        EXPECT_EQ(a.columns.range(iid).end, b.columns.range(iid).end);
    }
    for (std::size_t i = 0; i < a.columns.total_events(); ++i) {
        EXPECT_EQ(a.seq[i], b.seq[i]) << "row " << i;
        EXPECT_EQ(a.columns.row(i), b.columns.row(i)) << "row " << i;
    }
}

TEST(TraceIoColumns, GroupedCsvAndDst1LoadIdentically) {
    // write_trace emits each instance as one contiguous ascending-seq
    // block, so both formats take the zero-copy grouping scan.
    ProfilingSession session;
    drive_session(session);
    session.stop();
    const ColumnTrace from_csv = round_trip(session, TraceFormat::Csv);
    const ColumnTrace from_dst1 = round_trip(session, TraceFormat::Binary);
    expect_same_columns(from_csv, from_dst1);
    for (const InstanceInfo& info : session.registry().snapshot())
        EXPECT_EQ(oracle::events_of(from_dst1, info.id),
                  oracle::events_of(session.store(), info.id));
}

void put_u32(std::string& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out += static_cast<char>((v >> (8 * i)) & 0xFF);
}

void put_u64(std::string& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out += static_cast<char>((v >> (8 * i)) & 0xFF);
}

void put_varint(std::string& out, std::uint64_t v) {
    while (v >= 0x80) {
        out += static_cast<char>((v & 0x7F) | 0x80);
        v >>= 7;
    }
    out += static_cast<char>(v);
}

/// DST1 header declaring `instances` records and `events` events.
std::string dst1_header(std::uint64_t instances, std::uint64_t events) {
    std::string bytes(kTraceBinaryMagic, sizeof(kTraceBinaryMagic));
    put_u32(bytes, kTraceBinaryVersion);
    put_u64(bytes, instances);
    put_u64(bytes, events);
    return bytes;
}

/// Instance record with id 0, the given kind and empty names.
std::string instance_record(std::uint64_t kind) {
    std::string bytes;
    put_varint(bytes, 0);     // id
    put_varint(bytes, kind);  // kind
    bytes.append(5, '\0');    // position, three empty names, deallocated
    return bytes;
}

/// Chunk header plus payload.
std::string chunk(std::uint32_t count, const std::string& payload) {
    std::string bytes;
    put_u32(bytes, count);
    put_u32(bytes, static_cast<std::uint32_t>(payload.size()));
    return bytes + payload;
}

/// DST1 bytes holding `events` in the given order, every event with
/// control byte 0 — all fields explicit, which is valid, just
/// uncompressed.  Our writers always group events by instance, so an
/// interleaved stream (what an external producer recording in capture
/// order would emit) must be hand-encoded.
std::string dst1_in_order(const std::vector<InstanceInfo>& instances,
                          const std::vector<AccessEvent>& events) {
    const auto put_delta = [](std::string& out, std::uint64_t cur,
                              std::uint64_t prev) {
        const auto s = static_cast<std::int64_t>(cur - prev);
        put_varint(out, (static_cast<std::uint64_t>(s) << 1) ^
                            static_cast<std::uint64_t>(s >> 63));
    };
    const auto put_string = [](std::string& out, const std::string& s) {
        put_varint(out, s.size());
        out += s;
    };
    std::string bytes = dst1_header(instances.size(), events.size());
    for (const InstanceInfo& info : instances) {
        put_varint(bytes, info.id);
        put_varint(bytes, static_cast<std::uint64_t>(info.kind));
        put_varint(bytes, info.location.position);
        put_string(bytes, info.type_name);
        put_string(bytes, info.location.class_name);
        put_string(bytes, info.location.method);
        bytes += static_cast<char>(info.deallocated ? 1 : 0);
    }
    std::string payload;
    AccessEvent prev;  // chunk baseline: all-zero fields, instance 0, op Get
    prev.instance = 0;
    prev.op = OpKind::Get;
    for (const AccessEvent& ev : events) {
        payload += static_cast<char>(0);  // control: everything explicit
        put_delta(payload, ev.seq, prev.seq);
        put_delta(payload, ev.time_ns, prev.time_ns);
        put_delta(payload, ev.instance, prev.instance);
        payload += static_cast<char>(ev.op);
        put_delta(payload, static_cast<std::uint64_t>(ev.position),
                  static_cast<std::uint64_t>(prev.position));
        put_delta(payload, ev.size, prev.size);
        put_delta(payload, ev.thread, prev.thread);
        prev = ev;
    }
    return bytes + chunk(static_cast<std::uint32_t>(events.size()), payload);
}

/// CSV text holding `instances`, then `events` in the given order.
std::string csv_in_order(const std::vector<InstanceInfo>& instances,
                         const std::vector<AccessEvent>& events) {
    std::ostringstream out;
    for (const InstanceInfo& info : instances)
        detail::write_csv_instance_record(out, info);
    for (const AccessEvent& ev : events)
        detail::write_csv_event_record(out, ev);
    return std::move(out).str();
}

TEST(TraceIoColumns, InterleavedTraceTakesArgsortFallback) {
    std::vector<InstanceInfo> instances;
    for (InstanceId id = 0; id < 2; ++id) {
        InstanceInfo info;
        info.id = id;
        info.kind = DsKind::List;
        info.type_name = "List<Int32>";
        info.location = {"Interleaved.Cls", "m" + std::to_string(id),
                         10 + id};
        instances.push_back(std::move(info));
    }
    constexpr std::uint32_t kEvents = 40;
    std::vector<AccessEvent> events;
    for (std::uint32_t i = 0; i < kEvents; ++i) {
        AccessEvent ev;
        ev.seq = (i * 7) % kEvents;  // out of order within each instance
        ev.time_ns = 1000 + i * 3;
        ev.instance = i % 2;  // alternating: defeats the grouped fast path
        ev.op = (i % 3 == 0) ? OpKind::Add : OpKind::Get;
        ev.position = static_cast<std::int64_t>(i / 2) - 1;
        ev.size = i / 2;
        ev.thread = static_cast<ThreadId>(i % 3);
        events.push_back(ev);
    }
    // The store regroups appended events by (instance, seq) as well.
    StoreTrace expected{instances, {}};
    expected.store.append(events);
    expected.store.finalize();

    const ColumnTrace from_dst1 =
        read_trace_columns(dst1_in_order(instances, events));
    const ColumnTrace from_csv =
        read_trace_columns(csv_in_order(instances, events));
    ASSERT_EQ(from_dst1.columns.range(0).size(), kEvents / 2);
    expect_traces_equal(from_dst1, expected);
    expect_same_columns(from_csv, from_dst1);
}

// CSV events on the "no instance" sentinel are dropped, as
// ProfileStore::append drops them; DST1 rejects the sentinel outright.
TEST(TraceIoColumns, CsvDropsSentinelInstanceEvents) {
    const ColumnTrace trace = read_trace_columns(
        "I,0,0,List<Int32>,C,M,1,0\n"
        "E,1,10,0,2,0,1,0\n"
        "E,2,20," + std::to_string(kInvalidInstance) + ",2,1,2,0\n"
        "E,3,30,0,0,0,1,0\n");
    EXPECT_EQ(trace.columns.total_events(), 2u);
    const std::vector<AccessEvent> events = oracle::events_of(trace, 0);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].seq, 1u);
    EXPECT_EQ(events[1].seq, 3u);
}

TEST(TraceIoColumns, EmptyFileIsAnEmptyTrace) {
    const ColumnTrace trace = load_file("");
    EXPECT_TRUE(trace.instances.empty());
    EXPECT_EQ(trace.columns.total_events(), 0u);
}

TEST(TraceIoColumns, ParallelDecodeIsBitIdenticalToSequential) {
    const std::string bytes = binary_bytes(multi_chunk_trace());
    const ColumnTrace sequential = read_trace_columns(bytes);
    par::ThreadPool pool(4);
    expect_same_columns(read_trace_columns(bytes, &pool), sequential);
}

TEST(TraceIoColumns, FileReadMatchesBufferRead) {
    const StoreTrace original = multi_chunk_trace();
    const std::string path = testing_support::unique_temp_path(".dst");
    ASSERT_TRUE(write_trace_file(path, original.instances, original.store,
                                 TraceFormat::Binary));
    ASSERT_TRUE(is_binary_trace_file(path));

    const ColumnTrace mapped = read_trace_columns_file(path);
    expect_traces_equal(mapped, original);
    std::ifstream in(path, std::ios::binary);
    const std::string bytes{std::istreambuf_iterator<char>(in), {}};
    expect_same_columns(mapped, read_trace_columns(bytes));
    std::remove(path.c_str());
}

TEST(TraceIoColumns, IsBinaryTraceFileSniffs) {
    EXPECT_FALSE(is_binary_trace_file("/nonexistent/dsspy.dst"));
    const std::string path = testing_support::unique_temp_path(".csv");
    std::ofstream(path) << "I,0,0,List<Int32>,C,M,1,0\n";
    EXPECT_FALSE(is_binary_trace_file(path));
    std::remove(path.c_str());
}

TEST(TraceIoColumns, RejectsMisalignedRegion) {
    const std::string bytes = binary_bytes(multi_chunk_trace());
    // An mmapped region is page-aligned by construction; a buffer shifted
    // off 8-byte alignment simulates a broken mapping and must be refused
    // up front, not decoded at a skew.
    std::string padded = "x" + bytes;
    const std::string_view skewed(padded.data() + 1, bytes.size());
    ASSERT_NE(reinterpret_cast<std::uintptr_t>(skewed.data()) %
                  alignof(std::uint64_t),
              0u);
    try {
        (void)read_trace_columns(skewed);
        FAIL() << "misaligned region accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("misaligned mmap region"),
                  std::string::npos)
            << e.what();
    }
}

// --------------------------------------------- one decoder, two readers

/// Offset of the `index`-th chunk header in DST1 bytes write_trace wrote:
/// scan for the first full chunk's count, then hop over payloads.
std::size_t chunk_offset(const std::string& bytes, int index) {
    const auto u32_at = [&](std::size_t off) {
        return codec::load_le<std::uint32_t>(
            reinterpret_cast<const unsigned char*>(bytes.data()) + off);
    };
    std::size_t off = 24;
    while (off + 4 <= bytes.size() && u32_at(off) != kTraceBinaryChunkEvents)
        ++off;
    for (int i = 0; i < index; ++i) off += 8 + u32_at(off + 4);
    EXPECT_LT(off + 8, bytes.size());
    return off;
}

/// Three crafted inputs every reader must reject without crashing and
/// without allocating the lengths they declare (also committed under
/// tests/data/ for the CLI exit-code test).
std::string sentinel_instance_trace() {
    // One event, control byte "everything same but instance", whose
    // instance delta decodes to kInvalidInstance.
    std::string payload(1, static_cast<char>(0x7B));
    put_varint(payload, std::uint64_t{kInvalidInstance} << 1);  // zigzag
    return dst1_header(1, 1) + instance_record(0) + chunk(1, payload);
}

std::string oversized_payload_trace() {
    std::string bytes = dst1_header(0, 1);
    put_u32(bytes, 1);
    put_u32(bytes, 0xFFFFFFF0u);  // payload_bytes far beyond the input
    return bytes + '\0';
}

std::string oversized_string_trace() {
    std::string bytes = dst1_header(1, 0);
    bytes.append(3, '\0');                     // id, kind, position
    put_varint(bytes, (std::uint64_t{1} << 30) - 1);  // type_name length
    return bytes + "abc";
}

/// Bytes without the DST1 magic are CSV to both readers, and a CSV
/// record tag runs into whatever binary bytes follow: for those rows,
/// `message` is a prefix of what they throw.
struct CorruptCase {
    std::string name;
    std::string bytes;
    std::string message;  // what both readers throw...
    // ...except where read_trace_stream cannot match: then its message
    // starts with this (empty: it throws `message` too).
    std::string stream_message;

    /// True when `error` is what the column loader should throw.
    [[nodiscard]] bool expected(const std::string& error) const {
        return is_binary_trace(bytes) ? error == message
                                      : error.starts_with(message);
    }
};

std::vector<CorruptCase> corrupt_cases() {
    const std::string good = binary_bytes(multi_chunk_trace());
    const std::size_t first_chunk = chunk_offset(good, 0);
    std::vector<CorruptCase> cases;
    const auto add = [&](std::string name, std::string bytes,
                         std::string message, std::string stream = "") {
        cases.push_back({std::move(name), std::move(bytes),
                         "trace_io: " + message, std::move(stream)});
    };

    std::string bad = good;
    bad[3] = '9';
    // Without the DST1 magic, both readers parse the input as CSV.
    add("bad magic", bad, "unknown record tag 'DST9");
    bad = good;
    bad[4] = 0x7F;
    add("bad version", bad, "unsupported DST1 version 127");

    // Truncation inside the magic, the counts, the instance table, the
    // first chunk header, a payload, and the final byte.
    add("truncated magic", good.substr(0, 3), "unknown record tag 'DST'");
    add("truncated counts", good.substr(0, 11), "truncated fixed-width field");
    // 6 bytes cannot hold 8 instance records; a stream's length is unknown.
    add("truncated instance table", good.substr(0, 30),
        "instance count exceeds input size",
        "trace_io: truncated string field");
    add("truncated instance record", good.substr(0, 200),
        "unterminated varint");
    add("missing chunk header", good.substr(0, first_chunk),
        "truncated chunk header");
    add("truncated chunk header", good.substr(0, first_chunk + 4),
        "truncated chunk header");
    add("truncated payload", good.substr(0, good.size() / 2),
        "truncated event chunk");
    add("truncated final byte", good.substr(0, good.size() - 1),
        "truncated event chunk");

    std::string varint_bytes = dst1_header(1, 0);
    varint_bytes.append(5, static_cast<char>(0x80));
    add("unterminated varint", varint_bytes, "unterminated varint");
    varint_bytes = dst1_header(1, 0);
    varint_bytes.append(11, static_cast<char>(0x80));
    add("varint longer than 10 bytes", varint_bytes,
        "varint longer than 10 bytes");
    varint_bytes = dst1_header(1, 0);
    varint_bytes.append(9, static_cast<char>(0xFF));
    varint_bytes += static_cast<char>(0x02);
    add("varint overflowing 64 bits", varint_bytes,
        "varint overflows 64 bits");

    bad = good;
    bad[first_chunk] = static_cast<char>(0xFF);  // 65536 -> 65791 events
    // The column loader indexes every chunk header before decoding; the
    // stream reader decodes chunk 0 first and runs out of payload.
    add("inflated chunk count", bad, "chunk event counts exceed header total",
        "trace_io: truncated byte field");
    bad = good;
    bad[first_chunk + 3] = 0x7F;
    add("chunk count beyond payload size", bad,
        "chunk event count exceeds payload size");
    bad = good;
    bad[16] = static_cast<char>(bad[16] - 1);  // header event_count - 1
    add("chunk counts beyond header total", bad,
        "chunk event counts exceed header total");
    add("empty chunk", dst1_header(0, 1) + chunk(0, std::string(1, '\0')),
        "empty event chunk");
    add("payload longer than its events",
        dst1_header(0, 1) + chunk(1, std::string(9, '\0')),
        "chunk payload longer than declared events");
    add("trailing bytes", good + "extra", "trailing bytes after final chunk");

    // Nine chunks; the reserved control bit on the first event of the
    // eighth, so the error surfaces from a chunk a pool helper may decode.
    bad = binary_bytes(multi_chunk_trace(8 * kTraceBinaryChunkEvents + 137));
    const std::size_t late = chunk_offset(bad, 7) + 8;
    bad[late] = static_cast<char>(static_cast<unsigned char>(bad[late]) |
                                  codec::kControlReserved);
    add("reserved control bit in a late chunk", bad, "bad event control byte");
    // control 0x77: every field "same" except the op, which follows.
    add("bad op", dst1_header(0, 1) + chunk(1, {'\x77', char{kOpKindCount}}),
        "bad op value");
    add("bad kind", dst1_header(1, 0) + instance_record(kDsKindCount),
        "bad kind value");

    add("sentinel instance id", sentinel_instance_trace(),
        "field 'instance' out of range");
    std::string table_sentinel = dst1_header(1, 0);
    put_varint(table_sentinel, kInvalidInstance);
    table_sentinel.append(6, '\0');  // kind, position, names, deallocated
    add("sentinel id in the instance table", table_sentinel,
        "field 'id' out of range");
    add("oversized payload length", oversized_payload_trace(),
        "truncated event chunk");
    add("oversized string length", oversized_string_trace(),
        "truncated string field");
    return cases;
}

/// The runtime_error message `read` throws, or "" when it accepts.
template <class Read>
std::string error_of(Read&& read) {
    try {
        read();
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

struct NullSink final : TraceSink {
    void on_instance(const InstanceInfo&) override {}
    void on_events(std::span<const AccessEvent>) override {}
};

TEST(TraceIoDecoders, AllReadersRejectCorruptionAlike) {
    const std::vector<CorruptCase> cases = corrupt_cases();
    par::ThreadPool pool(4);
    // Every legitimate buffer here is a few MB; the crafted lengths ask
    // for gigabytes.
    const AllocationCap cap(std::size_t{64} << 20);
    for (const CorruptCase& c : cases) {
        SCOPED_TRACE(c.name);
        for (par::ThreadPool* p : {static_cast<par::ThreadPool*>(nullptr),
                                   &pool}) {
            SCOPED_TRACE(p != nullptr ? "pool" : "sequential");
            const std::string error =
                error_of([&] { (void)read_trace_columns(c.bytes, p); });
            EXPECT_TRUE(c.expected(error)) << error;
        }
        std::istringstream in(c.bytes);
        NullSink sink;
        const std::string stream_error =
            error_of([&] { (void)read_trace_stream(in, sink, 64); });
        if (c.stream_message.empty())
            EXPECT_TRUE(c.expected(stream_error)) << stream_error;
        else
            EXPECT_TRUE(stream_error.starts_with(c.stream_message))
                << stream_error;
    }
}

/// Reads each named row of corrupt_cases() with `read`, sequentially and
/// on a pool, and expects that row's message.
template <class Read>
void expect_rows_rejected(const std::vector<std::string_view>& names,
                          Read&& read) {
    static const std::vector<CorruptCase> cases = corrupt_cases();
    par::ThreadPool pool(4);
    for (const std::string_view name : names) {
        SCOPED_TRACE(name);
        const auto row = std::find_if(
            cases.begin(), cases.end(),
            [&](const CorruptCase& c) { return c.name == name; });
        ASSERT_NE(row, cases.end());
        for (par::ThreadPool* p : {static_cast<par::ThreadPool*>(nullptr),
                                   &pool}) {
            SCOPED_TRACE(p != nullptr ? "pool" : "sequential");
            const std::string error = error_of([&] { read(row->bytes, p); });
            EXPECT_TRUE(row->expected(error)) << error;
        }
    }
}

const std::vector<std::string_view> kTruncationRows = {
    "truncated magic",           "truncated counts",
    "truncated instance table",  "truncated instance record",
    "truncated payload",         "truncated final byte"};
const std::vector<std::string_view> kChunkCountRows = {
    "inflated chunk count", "chunk count beyond payload size",
    "chunk counts beyond header total"};

const auto kReadFile = [](const std::string& bytes, par::ThreadPool* p) {
    (void)load_file(bytes, p);
};
const auto kReadColumns = [](const std::string& bytes, par::ThreadPool* p) {
    (void)read_trace_columns(bytes, p);
};

TEST(TraceIoBinary, RejectsTruncation) {
    expect_rows_rejected(kTruncationRows, kReadFile);
}

TEST(TraceIoBinary, RejectsTrailingGarbage) {
    expect_rows_rejected({"trailing bytes"}, kReadFile);
}

TEST(TraceIoBinary, RejectsCorruptChunkCounts) {
    expect_rows_rejected(kChunkCountRows, kReadFile);
}

TEST(TraceIoColumns, RejectsTruncatedChunkHeader) {
    expect_rows_rejected({"missing chunk header", "truncated chunk header"},
                         kReadColumns);
}

TEST(TraceIoColumns, RejectsCorruptChunkCounts) {
    expect_rows_rejected(kChunkCountRows, kReadColumns);
}

TEST(TraceIoColumns, RejectsTruncationAtEveryBoundary) {
    expect_rows_rejected(kTruncationRows, kReadColumns);
}

TEST(TraceIoColumns, RejectsTrailingGarbage) {
    expect_rows_rejected({"trailing bytes"}, kReadColumns);
}

TEST(TraceIoDecoders, CorruptLateChunkThrowsWithAndWithoutPool) {
    expect_rows_rejected({"reserved control bit in a late chunk"},
                         kReadFile);
    expect_rows_rejected({"reserved control bit in a late chunk"},
                         kReadColumns);
}

TEST(TraceIoColumns, MissingFileThrows) {
    EXPECT_THROW((void)read_trace_columns_file("/nonexistent/dsspy.dst"),
                 std::runtime_error);
}

}  // namespace
}  // namespace dsspy::runtime
