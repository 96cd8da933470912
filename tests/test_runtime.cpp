// Unit tests for dsspy::runtime: bulk buffers, registry, store, session.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "aos_oracle.hpp"
#include "live_sink.hpp"
#include "runtime/bulk_buffer.hpp"
#include "runtime/column_store.hpp"
#include "runtime/instance_registry.hpp"
#include "runtime/profile_store.hpp"
#include "runtime/session.hpp"

namespace dsspy::runtime {
namespace {

// ------------------------------------------------------------ bulk buffers

/// True when /proc/self/maps lists a mapping that contains `p` (the
/// kernel may merge neighbouring mappings, so starts need not match).
bool address_is_mapped(const void* p) {
    std::ifstream maps("/proc/self/maps");
    const auto want = reinterpret_cast<std::uintptr_t>(p);
    std::string line;
    while (std::getline(maps, line)) {
        std::istringstream in(line);
        std::uintptr_t start = 0, end = 0;
        char dash = 0;
        in >> std::hex >> start >> dash >> end;
        if (start <= want && want < end) return true;
    }
    return false;
}

TEST(BulkBuffer, LargeRequestIsAHugePageMappingUsedWhole) {
    std::size_t capacity = 0;
    const std::size_t n = (3u << 20) / sizeof(AccessEvent);
    BulkBuffer<AccessEvent> buf = make_bulk_buffer<AccessEvent>(n, &capacity);
    const std::size_t mapped = buf.get_deleter().mapped_bytes;
    EXPECT_EQ(mapped, std::size_t{4} << 20);  // rounded up to 2 MiB pages
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.get()) % kHugePageBytes,
              0u);
    EXPECT_EQ(capacity, mapped / sizeof(AccessEvent));
    // Every slot of the capacity is writable.
    buf[0].seq = 1;
    buf[capacity - 1].seq = 2;
    EXPECT_EQ(buf[capacity - 1].seq, 2u);
}

TEST(BulkBuffer, SmallRequestStaysOnMalloc) {
    const std::size_t before = bulk_mappings_created();
    std::size_t capacity = 0;
    const std::size_t n = kHugePageBytes / sizeof(std::uint64_t) - 1;
    BulkBuffer<std::uint64_t> buf =
        make_bulk_buffer<std::uint64_t>(n, &capacity);
    EXPECT_EQ(buf.get_deleter().mapped_bytes, 0u);
    EXPECT_EQ(capacity, n);
    EXPECT_EQ(bulk_mappings_created(), before);
    buf[n - 1] = 7;
    EXPECT_EQ(bulk_mapping_size(n * sizeof(std::uint64_t)), 0u);
    EXPECT_EQ(bulk_mapping_size(kHugePageBytes), kHugePageBytes);
}

TEST(BulkBuffer, ZeroSizeRequestWorks) {
    std::size_t capacity = 99;
    BulkBuffer<std::uint64_t> buf = make_bulk_buffer<std::uint64_t>(0, &capacity);
    EXPECT_NE(buf.get(), nullptr);
    EXPECT_EQ(capacity, 0u);
    EXPECT_EQ(buf.get_deleter().mapped_bytes, 0u);
    buf.reset();
    EXPECT_EQ(buf.get(), nullptr);
}

TEST(BulkBuffer, MoveLeavesTheSourceEmpty) {
    BulkBuffer<std::uint32_t> src =
        make_bulk_buffer<std::uint32_t>(kHugePageBytes / sizeof(std::uint32_t));
    std::uint32_t* const data = src.get();
    data[0] = 5;
    BulkBuffer<std::uint32_t> dst = std::move(src);
    EXPECT_EQ(src.get(), nullptr);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(dst.get(), data);
    EXPECT_EQ(dst[0], 5u);
    EXPECT_EQ(dst.get_deleter().mapped_bytes, kHugePageBytes);
}

TEST(BulkBuffer, ResetUnmapsTheMapping) {
#if !defined(__linux__)
    GTEST_SKIP() << "reads /proc/self/maps";
#endif
    BulkBuffer<std::byte> buf = make_bulk_buffer<std::byte>(kHugePageBytes);
    const void* const base = buf.get();
    EXPECT_TRUE(address_is_mapped(base));
    buf.reset();
    EXPECT_FALSE(address_is_mapped(base));
}

TEST(BulkBuffer, AllocatorGrowsAVectorAcrossTheThreshold) {
    std::vector<std::uint64_t, BulkAllocator<std::uint64_t>> values;
    const std::size_t n = 2 * kHugePageBytes / sizeof(std::uint64_t);
    const std::size_t before = bulk_mappings_created();
    for (std::size_t i = 0; i < n; ++i) values.push_back(i);
    EXPECT_GT(bulk_mappings_created(), before);
    for (std::size_t i = 0; i < n; i += 4099) EXPECT_EQ(values[i], i);
    EXPECT_EQ(values.back(), n - 1);
}

TEST(BulkBuffer, SmallSessionCreatesNoMapping) {
    const std::size_t before = bulk_mappings_created();
    ProfilingSession session;
    const InstanceId id = session.register_instance(DsKind::List, "List<Int32>",
                                                    {"C", "M", 1});
    for (int i = 0; i < 100; ++i) session.record(id, OpKind::Add, i, i + 1);
    session.stop();
    ASSERT_EQ(session.store().total_events(), 100u);
    EXPECT_EQ(oracle::events_of(session.store(), id).size(), 100u);
    EXPECT_EQ(bulk_mappings_created(), before);
}

#if defined(__SANITIZE_ADDRESS__)
// ASan does not track mmap'd memory: the slack past the requested bytes
// and the gaps between carved columns are poisoned by hand.
TEST(BulkBuffer, AsanPoisonsSlackPastTheRequest) {
    const std::size_t n = kHugePageBytes / sizeof(std::uint64_t) + 3;
    BulkBuffer<std::uint64_t> buf = make_bulk_buffer<std::uint64_t>(n);
    ASSERT_GT(buf.get_deleter().mapped_bytes, 0u);
    EXPECT_FALSE(__asan_address_is_poisoned(buf.get() + n - 1));
    EXPECT_TRUE(__asan_address_is_poisoned(buf.get() + n));
    std::size_t capacity = 0;
    BulkBuffer<std::uint64_t> whole =
        make_bulk_buffer<std::uint64_t>(n, &capacity);
    EXPECT_FALSE(__asan_address_is_poisoned(whole.get() + capacity - 1));
}

TEST(BulkBuffer, AsanGuardsEveryColumnEnd) {
    ColumnStore columns;
    const std::size_t rows = (4u << 20) / 23;
    columns.allocate(rows, 1);
    EXPECT_TRUE(__asan_address_is_poisoned(columns.time_ns() + rows));
    EXPECT_TRUE(__asan_address_is_poisoned(columns.position() + rows));
    EXPECT_TRUE(__asan_address_is_poisoned(columns.sizes() + rows));
    EXPECT_TRUE(__asan_address_is_poisoned(columns.thread() + rows));
    EXPECT_TRUE(__asan_address_is_poisoned(columns.op() + rows));
    EXPECT_FALSE(__asan_address_is_poisoned(columns.op() + rows - 1));
}
#endif

TEST(InstanceRegistry, RegisterAndLookup) {
    InstanceRegistry registry;
    const InstanceId a = registry.register_instance(
        DsKind::List, "List<Int32>", {"Cls", "M", 1});
    const InstanceId b = registry.register_instance(
        DsKind::Array, "Array<Double>", {"Cls", "N", 2});
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(registry.size(), 2u);
    EXPECT_EQ(registry.info(a).type_name, "List<Int32>");
    EXPECT_EQ(registry.info(b).kind, DsKind::Array);
    EXPECT_FALSE(registry.info(a).deallocated);
    registry.mark_deallocated(a);
    EXPECT_TRUE(registry.info(a).deallocated);
}

TEST(ProfileStore, GroupsByInstanceAndSortsBySeq) {
    ProfileStore store;
    AccessEvent e1{.seq = 2, .time_ns = 20, .position = 1, .instance = 0,
                   .size = 2, .op = OpKind::Get, .thread = 0};
    AccessEvent e2{.seq = 1, .time_ns = 10, .position = 0, .instance = 0,
                   .size = 1, .op = OpKind::Add, .thread = 0};
    AccessEvent e3{.seq = 3, .time_ns = 30, .position = 0, .instance = 2,
                   .size = 1, .op = OpKind::Add, .thread = 1};
    const AccessEvent batch[] = {e1, e2, e3};
    store.append(batch);
    store.finalize();
    EXPECT_EQ(store.total_events(), 3u);
    EXPECT_EQ(store.populated_instances(), 2u);
    const auto ev0 = oracle::events_of(store, 0);
    ASSERT_EQ(ev0.size(), 2u);
    EXPECT_EQ(ev0[0].seq, 1u);  // sorted by seq
    EXPECT_EQ(ev0[1].seq, 2u);
    EXPECT_EQ(oracle::events_of(store, 1).size(), 0u);
    EXPECT_EQ(oracle::events_of(store, 2).size(), 1u);
    EXPECT_EQ(oracle::events_of(store, 77).size(), 0u);  // out of range
}

TEST(ProfileStore, IgnoresInvalidInstance) {
    ProfileStore store;
    AccessEvent ev;
    ev.instance = kInvalidInstance;
    store.append({&ev, 1});
    EXPECT_EQ(store.total_events(), 0u);
}

class SessionModeTest : public ::testing::TestWithParam<Delivery> {};

TEST_P(SessionModeTest, RecordsEventsWithMetadata) {
    ProfilingSession session;
    LiveSinkCheck sink;
    sink.attach(session, GetParam());
    const InstanceId id = session.register_instance(
        DsKind::List, "List<Int32>", {"Cls", "M", 1});
    for (int i = 0; i < 100; ++i)
        session.record(id, OpKind::Add, i, static_cast<std::uint32_t>(i + 1));
    session.stop();

    const auto events = oracle::events_of(session.store(), id);
    ASSERT_EQ(events.size(), 100u);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(events[static_cast<size_t>(i)].position, i);
        EXPECT_EQ(events[static_cast<size_t>(i)].op, OpKind::Add);
        EXPECT_EQ(events[static_cast<size_t>(i)].size,
                  static_cast<std::uint32_t>(i + 1));
    }
    // Sequence numbers are strictly increasing.
    for (size_t i = 1; i < events.size(); ++i)
        EXPECT_LT(events[i - 1].seq, events[i].seq);
    EXPECT_EQ(session.thread_count(), 1u);
    EXPECT_EQ(session.events_recorded(), 100u);
    sink.expect_complete(session, GetParam());
}

TEST_P(SessionModeTest, MultiThreadedRecordingLosesNothing) {
    ProfilingSession session;
    LiveSinkCheck sink;
    sink.attach(session, GetParam());
    constexpr int kThreads = 4;
    constexpr int kPerThread = 25'000;
    std::vector<InstanceId> ids;
    for (int t = 0; t < kThreads; ++t)
        ids.push_back(session.register_instance(
            DsKind::List, "List<Int64>",
            {"Cls", "M", static_cast<std::uint32_t>(t)}));

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&session, &ids, t] {
            for (int i = 0; i < kPerThread; ++i)
                session.record(ids[static_cast<size_t>(t)], OpKind::Get, i,
                               100);
        });
    }
    for (auto& th : threads) th.join();
    session.stop();

    std::size_t total = 0;
    for (const InstanceId id : ids) {
        const auto events = oracle::events_of(session.store(), id);
        EXPECT_EQ(events.size(), static_cast<std::size_t>(kPerThread));
        total += events.size();
        // Per-instance events come from one thread: positions in order.
        for (size_t i = 1; i < events.size(); ++i)
            EXPECT_EQ(events[i].position, events[i - 1].position + 1);
    }
    EXPECT_EQ(total, static_cast<std::size_t>(kThreads * kPerThread));
    EXPECT_EQ(session.thread_count(), static_cast<std::size_t>(kThreads));
    sink.expect_complete(session, GetParam());
}

TEST_P(SessionModeTest, StopIsIdempotentAndStopsCapture) {
    ProfilingSession session;
    LiveSinkCheck sink;
    sink.attach(session, GetParam());
    const InstanceId id = session.register_instance(
        DsKind::List, "List<Int32>", {"Cls", "M", 1});
    session.record(id, OpKind::Add, 0, 1);
    EXPECT_TRUE(session.capturing());
    session.stop();
    EXPECT_FALSE(session.capturing());
    session.record(id, OpKind::Add, 1, 2);  // ignored after stop
    session.stop();                         // idempotent
    EXPECT_EQ(oracle::events_of(session.store(), id).size(), 1u);
    EXPECT_GT(session.capture_duration_ns(), 0u);
    sink.expect_complete(session, GetParam());
}

INSTANTIATE_TEST_SUITE_P(BothModes, SessionModeTest,
                         ::testing::Values(Delivery::Buffered,
                                           Delivery::Streaming),
                         delivery_name);

TEST(Session, LiveDrainBackpressureLosesNothingWithTinyBound) {
    // A deliberately tiny drain bound makes the producers wait for the
    // collector at every refill; every event must still arrive exactly
    // once, in the store and at the sink.
    ProfilingSession session(CaptureMode::Buffered, /*drain_bound=*/4);
    LiveSinkCheck sink;
    sink.attach(session, Delivery::Streaming);
    constexpr int kThreads = 3;
    constexpr int kPerThread = 20'000;
    std::vector<InstanceId> ids;
    for (int t = 0; t < kThreads; ++t)
        ids.push_back(session.register_instance(
            DsKind::List, "List<Int64>",
            {"BP", "M", static_cast<std::uint32_t>(t)}));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&session, &ids, t] {
            for (int i = 0; i < kPerThread; ++i)
                session.record(ids[static_cast<size_t>(t)], OpKind::Add, i,
                               static_cast<std::uint32_t>(i + 1));
        });
    }
    for (auto& th : threads) th.join();
    session.stop();
    for (const InstanceId id : ids) {
        const auto events = oracle::events_of(session.store(), id);
        ASSERT_EQ(events.size(), static_cast<std::size_t>(kPerThread));
        for (size_t i = 0; i < events.size(); ++i)
            EXPECT_EQ(events[i].position, static_cast<std::int64_t>(i));
    }
    sink.expect_complete(session, Delivery::Streaming);
    EXPECT_EQ(sink.events, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Session, TwoLiveSessionsDoNotInterfere) {
    ProfilingSession s1(CaptureMode::Buffered);
    ProfilingSession s2(CaptureMode::Buffered);
    const InstanceId a = s1.register_instance(DsKind::List, "List<Int32>",
                                              {"C", "M", 1});
    const InstanceId b = s2.register_instance(DsKind::List, "List<Int32>",
                                              {"C", "M", 2});
    for (int i = 0; i < 10; ++i) {
        s1.record(a, OpKind::Add, i, static_cast<std::uint32_t>(i + 1));
        s2.record(b, OpKind::Get, i, 10);
    }
    s1.stop();
    s2.stop();
    EXPECT_EQ(oracle::events_of(s1.store(), a).size(), 10u);
    EXPECT_EQ(oracle::events_of(s2.store(), b).size(), 10u);
    EXPECT_EQ(oracle::events_of(s1.store(), a)[0].op, OpKind::Add);
    EXPECT_EQ(oracle::events_of(s2.store(), b)[0].op, OpKind::Get);
}

// A thread caches four sessions.  Recording round-robin into five evicts
// a slot on every record; the thread must find its channel again instead
// of registering a new one (with a fresh seq block, chunk and thread id)
// each time.
TEST(Session, FiveLiveSessionsOnOneThreadKeepOneChannel) {
    constexpr int kSessions = 5;
    constexpr int kRecords = 100;
    const std::size_t mappings_before = bulk_mappings_created();
    std::vector<std::unique_ptr<ProfilingSession>> sessions;
    std::vector<InstanceId> ids;
    for (int s = 0; s < kSessions; ++s) {
        sessions.push_back(
            std::make_unique<ProfilingSession>(CaptureMode::Buffered));
        ids.push_back(sessions.back()->register_instance(
            DsKind::List, "List<Int32>",
            {"C", "M", static_cast<std::uint32_t>(s)}));
    }
    for (int i = 0; i < kRecords; ++i)
        for (int s = 0; s < kSessions; ++s)
            sessions[s]->record(ids[s], OpKind::Add, i,
                                static_cast<std::uint32_t>(i));
    for (int s = 0; s < kSessions; ++s) {
        ProfilingSession& session = *sessions[s];
        session.stop();
        EXPECT_EQ(session.thread_count(), 1u) << "session " << s;
        const ColumnStore& cols = session.store().columns();
        ASSERT_EQ(cols.total_events(), static_cast<std::size_t>(kRecords));
        const auto events = oracle::events_of(session.store(), ids[s]);
        for (int i = 0; i < kRecords; ++i) {
            EXPECT_EQ(cols.thread()[i], 0u) << "session " << s << ":" << i;
            EXPECT_EQ(cols.position()[i], i);
            // One seq block serves all of them.
            EXPECT_EQ(events[i].seq, events[0].seq + i);
        }
    }
    // 5 × 100 rows fit the first chunk of each session, on malloc.
    EXPECT_EQ(bulk_mappings_created(), mappings_before);
}

}  // namespace
}  // namespace dsspy::runtime
