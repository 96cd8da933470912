// Stress tests for the rewritten capture path: per-thread sequence blocks,
// amortized timestamps, lock-free channel registration, and the parallel
// post-mortem pipeline.  These are the tests the DSSPY_SANITIZE=thread
// build runs under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <utility>
#include <span>
#include <thread>
#include <vector>

#include "aos_oracle.hpp"
#include "core/dsspy.hpp"
#include "corpus/program_model.hpp"
#include "corpus/workload.hpp"
#include "live_sink.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/bulk_buffer.hpp"
#include "runtime/profile_store.hpp"
#include "runtime/session.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace dsspy::runtime {
namespace {

// 8+ producers against a deliberately tiny drain bound: the collector
// must apply backpressure (bound 256 << events) yet lose nothing, and the
// reconciled order must stay deterministic.
TEST(CaptureStress, LiveDrainEightProducersTinyBoundLoseNothing) {
    constexpr int kThreads = 8;
    constexpr int kPerThread = 50'000;
    ProfilingSession session(CaptureMode::Buffered, /*drain_bound=*/256);
    LiveSinkCheck sink;
    sink.attach(session, Delivery::Streaming);
    std::vector<InstanceId> ids;
    ids.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        ids.push_back(session.register_instance(
            DsKind::List, "List<Int64>",
            {"Stress", "M", static_cast<std::uint32_t>(t)}));

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&session, &ids, t] {
            for (int i = 0; i < kPerThread; ++i)
                session.record(ids[static_cast<std::size_t>(t)], OpKind::Add,
                               i, static_cast<std::uint32_t>(i + 1));
        });
    }
    for (auto& th : threads) th.join();
    session.stop();

    // Zero loss, per-thread program order, and globally unique sequence
    // numbers (the reconciled total order is a valid interleaving).
    std::set<std::uint64_t> all_seqs;
    for (const InstanceId id : ids) {
        const auto events = oracle::events_of(session.store(), id);
        ASSERT_EQ(events.size(), static_cast<std::size_t>(kPerThread));
        for (std::size_t i = 0; i < events.size(); ++i) {
            EXPECT_EQ(events[i].position, static_cast<std::int64_t>(i));
            if (i > 0) {
                EXPECT_LT(events[i - 1].seq, events[i].seq);
                EXPECT_LE(events[i - 1].time_ns, events[i].time_ns);
            }
            all_seqs.insert(events[i].seq);
        }
    }
    EXPECT_EQ(all_seqs.size(),
              static_cast<std::size_t>(kThreads) * kPerThread);
    EXPECT_EQ(session.events_recorded(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(session.thread_count(), static_cast<std::size_t>(kThreads));
    sink.expect_complete(session, Delivery::Streaming);
}

class ReconciliationTest : public ::testing::TestWithParam<Delivery> {};

// Several threads interleave on ONE shared instance.  After finalize() the
// instance's merged sequence must contain every thread's events as a
// subsequence in program order — the per-thread sequence blocks must never
// reorder a thread against itself.
TEST_P(ReconciliationTest, SharedInstancePreservesPerThreadProgramOrder) {
    constexpr int kThreads = 6;
    // > kSeqBlockSize events per thread so every thread crosses several
    // block boundaries.
    constexpr int kPerThread = 3 * 1024 + 257;
    ProfilingSession session(CaptureMode::Buffered, /*drain_bound=*/512);
    LiveSinkCheck sink;
    sink.attach(session, GetParam());
    const InstanceId shared = session.register_instance(
        DsKind::List, "List<Int64>", {"Recon", "M", 1});

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&session, shared, t] {
            for (int i = 0; i < kPerThread; ++i) {
                // Encode (thread, op index) in the position so the merged
                // stream can be audited per thread.
                const std::int64_t pos = t * 1'000'000LL + i;
                session.record(shared, OpKind::Add, pos, 1);
            }
        });
    }
    for (auto& th : threads) th.join();
    session.stop();

    const auto events = oracle::events_of(session.store(), shared);
    ASSERT_EQ(events.size(),
              static_cast<std::size_t>(kThreads) * kPerThread);
    std::vector<std::int64_t> next_index(kThreads, 0);
    std::uint64_t prev_seq = 0;
    bool first = true;
    for (const AccessEvent& ev : events) {
        if (!first) {
            EXPECT_LT(prev_seq, ev.seq);  // strict total order
        }
        prev_seq = ev.seq;
        first = false;
        const auto t = static_cast<std::size_t>(ev.position / 1'000'000LL);
        const std::int64_t i = ev.position % 1'000'000LL;
        ASSERT_LT(t, static_cast<std::size_t>(kThreads));
        EXPECT_EQ(i, next_index[t]) << "thread " << t
                                    << " reordered against itself";
        ++next_index[t];
    }
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(next_index[static_cast<std::size_t>(t)], kPerThread);
    sink.expect_complete(session, GetParam());
}

INSTANTIATE_TEST_SUITE_P(BothModes, ReconciliationTest,
                         ::testing::Values(Delivery::Buffered,
                                           Delivery::Streaming),
                         delivery_name);

// Amortized timestamps must stay monotonic per thread and move forward
// across stride boundaries.
TEST(CaptureStress, AmortizedTimestampsAreMonotonicAndAdvance) {
    ProfilingSession session(CaptureMode::Buffered);
    const InstanceId id = session.register_instance(
        DsKind::List, "List<Int64>", {"Ts", "M", 1});
    constexpr int kEvents = 64 * 1024;
    for (int i = 0; i < kEvents; ++i)
        session.record(id, OpKind::Add, i, 1);
    session.stop();

    const auto events = oracle::events_of(session.store(), id);
    ASSERT_EQ(events.size(), static_cast<std::size_t>(kEvents));
    std::set<std::uint64_t> distinct;
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (i > 0) {
            EXPECT_LE(events[i - 1].time_ns, events[i].time_ns);
        }
        distinct.insert(events[i].time_ns);
    }
    // The clock is read once per kTimestampStride events plus once per
    // sequence-block boundary, so there must be multiple distinct readings
    // over 64K events — but far fewer than one per event.
    EXPECT_GT(distinct.size(), 1u);
    EXPECT_LE(distinct.size(),
              events.size() / ProfilingSession::kTimestampStride +
                  events.size() / ProfilingSession::kSeqBlockSize + 2);
}

// Parallel finalize must produce byte-for-byte the same store as the
// sequential one.
TEST(CaptureStress, ParallelFinalizeMatchesSequential) {
    auto build = [] {
        ProfileStore store;
        // Unsorted appends across 33 instances, seqs deliberately shuffled
        // by striding.
        std::vector<AccessEvent> batch;
        for (std::uint64_t s = 0; s < 40'000; ++s) {
            AccessEvent ev;
            ev.seq = (s * 7919) % 40'000;  // permutation of [0, 40000)
            ev.time_ns = ev.seq * 10;
            ev.instance = static_cast<InstanceId>(s % 33);
            ev.position = static_cast<std::int64_t>(s);
            ev.size = 1;
            ev.op = OpKind::Add;
            ev.thread = static_cast<ThreadId>(s % 5);
            batch.push_back(ev);
        }
        ProfileStore out;
        out.append(batch);
        return out;
    };
    ProfileStore sequential = build();
    ProfileStore parallel = build();
    sequential.finalize(nullptr);
    par::ThreadPool pool(4);
    parallel.finalize(&pool);

    ASSERT_EQ(sequential.instance_slots(), parallel.instance_slots());
    ASSERT_EQ(sequential.total_events(), parallel.total_events());
    for (std::size_t id = 0; id < sequential.instance_slots(); ++id) {
        const auto iid = static_cast<InstanceId>(id);
        const auto a = oracle::events_of(sequential, iid);
        const auto b = oracle::events_of(parallel, iid);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
    }
}

// Parallel analyze must be bit-identical to sequential analyze over the
// full study corpus (every program model's workload).
TEST(CaptureStress, ParallelAnalyzeMatchesSequentialOnCorpus) {
    par::ThreadPool pool(4);
    const core::Dsspy analyzer;
    for (const corpus::ProgramModel* program : corpus::study15_programs()) {
        ProfilingSession session;
        corpus::run_study15_workload(*program, &session, 7);
        session.stop();

        const core::AnalysisResult seq = analyzer.analyze(session);
        const core::AnalysisResult par_res = analyzer.analyze(session, &pool);

        ASSERT_EQ(seq.instances().size(), par_res.instances().size())
            << program->name;
        for (std::size_t i = 0; i < seq.instances().size(); ++i) {
            const core::InstanceAnalysis& a = seq.instances()[i];
            const core::InstanceAnalysis& b = par_res.instances()[i];
            EXPECT_EQ(a.patterns, b.patterns) << program->name;
            EXPECT_EQ(a.use_cases, b.use_cases) << program->name;
            EXPECT_TRUE(a.stats == b.stats) << program->name;
        }
        EXPECT_EQ(seq.flagged_instances(), par_res.flagged_instances());
        EXPECT_EQ(seq.total_events(), par_res.total_events());
        EXPECT_EQ(seq.search_space_reduction(),
                  par_res.search_space_reduction());
    }
}

// Buffered stop() handshake: all events recorded by quiesced threads are
// merged, and counts agree across the acquire/release boundary.
TEST(CaptureStress, BufferedQuiesceHandshakeMergesEverything) {
    constexpr int kThreads = 8;
    constexpr int kPerThread = 30'000;  // crosses several chunk boundaries
    ProfilingSession session(CaptureMode::Buffered);
    const InstanceId id = session.register_instance(
        DsKind::List, "List<Int64>", {"Quiesce", "M", 1});
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&session, id] {
            for (int i = 0; i < kPerThread; ++i)
                session.record(id, OpKind::Get, i, 100);
        });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(session.events_recorded(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    session.stop();
    EXPECT_EQ(oracle::events_of(session.store(), id).size(),
              static_cast<std::size_t>(kThreads) * kPerThread);
    // Late records are dropped (and would assert in debug builds if a
    // recording thread were still live — here the thread-local channel is
    // sealed, so the record is silently ignored).
    EXPECT_EQ(session.events_recorded(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ---------------------------------------------------------------------------
// Differential store test: the columnar ProfileStore against the store's
// earlier algorithm, kept here as a test-only oracle — group events by
// instance in arrival order, then sort each instance's events by seq.

struct OracleStore {
    std::vector<std::vector<AccessEvent>> per_instance;

    void append(std::span<const AccessEvent> events) {
        for (const AccessEvent& ev : events) {
            if (ev.instance == kInvalidInstance) continue;
            if (ev.instance >= per_instance.size())
                per_instance.resize(std::size_t{ev.instance} + 1);
            per_instance[ev.instance].push_back(ev);
        }
    }

    void finalize() {
        for (auto& events : per_instance)
            std::stable_sort(events.begin(), events.end(),
                             [](const AccessEvent& a, const AccessEvent& b) {
                                 return a.seq < b.seq;
                             });
    }
};

/// Columns, ranges, events(id) with every field, and the store counters
/// must all equal the oracle's.
void expect_store_matches(const ProfileStore& store, const OracleStore& oracle,
                          std::size_t registered) {
    const ColumnStore& cols = store.columns();
    ASSERT_EQ(cols.instance_slots(), oracle.per_instance.size());
    std::size_t row = 0;
    std::size_t populated = 0;
    std::size_t orphans = 0;
    for (std::size_t slot = 0; slot < oracle.per_instance.size(); ++slot) {
        const auto id = static_cast<InstanceId>(slot);
        const std::vector<AccessEvent>& expected = oracle.per_instance[slot];
        const ColumnRange range = cols.range(id);
        ASSERT_EQ(range.begin, row) << "instance " << id;
        ASSERT_EQ(range.size(), expected.size()) << "instance " << id;
        for (std::size_t i = 0; i < expected.size(); ++i) {
            const AccessEvent& ev = expected[i];
            const std::size_t r = range.begin + i;
            ASSERT_EQ(cols.time_ns()[r], ev.time_ns) << id << ":" << i;
            ASSERT_EQ(cols.position()[r], ev.position) << id << ":" << i;
            ASSERT_EQ(cols.sizes()[r], ev.size) << id << ":" << i;
            ASSERT_EQ(cols.op()[r], static_cast<std::uint8_t>(ev.op));
            ASSERT_EQ(cols.thread()[r], ev.thread) << id << ":" << i;
        }
        const std::vector<AccessEvent> events = oracle::events_of(store, id);
        ASSERT_TRUE(std::equal(events.begin(), events.end(), expected.begin(),
                               expected.end()))
            << "instance " << id;
        row += expected.size();
        if (!expected.empty()) ++populated;
        if (slot >= registered) orphans += expected.size();
    }
    EXPECT_EQ(store.total_events(), row);
    EXPECT_EQ(cols.total_events(), row);
    EXPECT_EQ(store.instance_slots(), oracle.per_instance.size());
    EXPECT_EQ(store.populated_instances(), populated);
    EXPECT_EQ(store.orphan_events(registered), orphans);
}

/// Registered ids in the synthetic streams; ids at or past it are orphans.
constexpr std::size_t kRegistered = 12;

/// Per-thread event chains as a session would capture them: seqs drawn in
/// blocks from one allocator (so threads interleave in seq), instances
/// private to a thread, shared by all threads, orphan, or the invalid
/// sentinel.  Each chain is split into chunks of random size and slack.
std::vector<std::vector<EventChunk>> synthetic_chains(std::size_t threads,
                                                      std::size_t per_thread,
                                                      std::uint64_t seed) {
    support::Rng rng(seed);
    std::vector<std::vector<AccessEvent>> streams(threads);
    std::uint64_t next_block = 0;
    std::vector<std::uint64_t> seq(threads, 0), block_end(threads, 0);
    for (std::size_t done = 0; done < threads * per_thread;) {
        const std::size_t t = rng.next_below(threads);
        if (streams[t].size() == per_thread) continue;
        if (seq[t] == block_end[t]) {
            seq[t] = next_block;
            block_end[t] = next_block += 1 + rng.next_below(96);
        }
        AccessEvent ev;
        ev.seq = seq[t]++;
        ev.time_ns = ev.seq * 3 + rng.next_below(3);
        ev.position = static_cast<std::int64_t>(rng.next_below(500)) - 1;
        ev.size = static_cast<std::uint32_t>(rng.next_below(1000));
        ev.op = static_cast<OpKind>(rng.next_below(kOpKindCount));
        ev.thread = static_cast<ThreadId>(t);
        const std::uint64_t pick = rng.next_below(100);
        ev.instance = pick < 45   ? static_cast<InstanceId>(rng.next_below(4))
                      : pick < 90 ? static_cast<InstanceId>(4 + t % 8)
                      : pick < 98 ? static_cast<InstanceId>(kRegistered + 3)
                                  : kInvalidInstance;
        streams[t].push_back(ev);
        ++done;
    }
    std::vector<std::vector<EventChunk>> chains(threads);
    for (std::size_t t = 0; t < threads; ++t) {
        for (std::size_t at = 0; at < per_thread;) {
            const std::size_t n = std::min<std::size_t>(
                per_thread - at, 1 + rng.next_below(6000));
            EventChunk chunk;
            chunk.capacity = n + rng.next_below(64);
            chunk.size = n;
            chunk.events = make_bulk_buffer<AccessEvent>(chunk.capacity);
            std::copy_n(streams[t].begin() + static_cast<std::ptrdiff_t>(at),
                        n, chunk.events.get());
            chains[t].push_back(std::move(chunk));
            at += n;
        }
    }
    return chains;
}

enum class Feed { WholeChunks, AppendBatches };

// Whole chunks appended chain by chain and round-robin append batches,
// from 1 and 4 threads, with and without a pool.
TEST(StoreDifferential, ScatterMatchesGroupThenSortOracle) {
    par::ThreadPool pool(4);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        for (const Feed feed : {Feed::WholeChunks, Feed::AppendBatches}) {
            for (par::ThreadPool* with : {static_cast<par::ThreadPool*>(nullptr),
                                          &pool}) {
                SCOPED_TRACE(::testing::Message()
                             << threads << " threads, "
                             << (feed == Feed::WholeChunks ? "chunks"
                                                             : "batches")
                             << (with != nullptr ? ", pool" : ", no pool"));
                auto chains = synthetic_chains(threads, 25'000, 17 + threads);
                OracleStore oracle;
                ProfileStore store;
                // The session lists channels newest first.
                std::reverse(chains.begin(), chains.end());
                if (feed == Feed::WholeChunks) {
                    for (const auto& chain : chains) {
                        for (const EventChunk& chunk : chain) {
                            oracle.append({chunk.events.get(), chunk.size});
                            store.append({chunk.events.get(), chunk.size});
                        }
                    }
                } else {
                    // Up to 1024 events per chain per round.
                    std::vector<std::size_t> chunk(chains.size(), 0);
                    std::vector<std::size_t> offset(chains.size(), 0);
                    for (bool any = true; any;) {
                        any = false;
                        for (std::size_t c = 0; c < chains.size(); ++c) {
                            if (chunk[c] == chains[c].size()) continue;
                            const EventChunk& from = chains[c][chunk[c]];
                            const std::size_t n =
                                std::min<std::size_t>(1024,
                                                      from.size - offset[c]);
                            const std::span<const AccessEvent> batch(
                                from.events.get() + offset[c], n);
                            oracle.append(batch);
                            store.append(batch);
                            if ((offset[c] += n) == from.size) {
                                ++chunk[c];
                                offset[c] = 0;
                            }
                            any = true;
                        }
                    }
                }
                oracle.finalize();
                store.finalize(with);
                expect_store_matches(store, oracle, kRegistered);
            }
        }
    }
}

// Appends after a finalize join the rows already placed.
TEST(StoreDifferential, AppendAfterFinalizeMatchesOracle) {
    auto chains = synthetic_chains(3, 4'000, 5);
    OracleStore oracle;
    ProfileStore store;
    for (std::size_t c = 0; c < chains.size(); ++c) {
        for (const EventChunk& chunk : chains[c]) {
            oracle.append({chunk.events.get(), chunk.size});
            store.append({chunk.events.get(), chunk.size});
        }
        store.finalize();
    }
    oracle.finalize();
    expect_store_matches(store, oracle, kRegistered);
}

// Live sessions: every event a session captures reaches its event sink in
// seq order, so the sink's copy is the oracle's input.  A drain bound that
// holds the producers back and one that never does at these sizes, 1 and
// 4 recording threads on shared, private and orphan ids, below and above
// the pool threshold of finalize.
TEST(StoreDifferential, LiveSessionsMatchOracle) {
    for (const std::size_t bound : {std::size_t{1024}, std::size_t{1} << 20}) {
        for (const int threads : {1, 4}) {
            for (const int per_thread : {3'000, 40'000}) {
                SCOPED_TRACE(::testing::Message()
                             << "drain bound " << bound << ", " << threads
                             << " threads, " << per_thread << " events each");
                ProfilingSession session(CaptureMode::Buffered, bound);
                std::mutex sink_mutex;
                OracleStore oracle;
                session.set_event_sink([&](std::span<const AccessEvent> ev) {
                    std::scoped_lock lock(sink_mutex);
                    oracle.append(ev);
                });
                std::vector<InstanceId> ids;
                for (int i = 0; i < 6; ++i)
                    ids.push_back(session.register_instance(
                        DsKind::List, "List<Int64>",
                        {"Diff", "M", static_cast<std::uint32_t>(i)}));
                std::vector<std::thread> workers;
                for (int t = 0; t < threads; ++t) {
                    workers.emplace_back([&, t] {
                        support::Rng rng(static_cast<std::uint64_t>(t) + 1);
                        for (int i = 0; i < per_thread; ++i) {
                            const std::uint64_t pick = rng.next_below(10);
                            const InstanceId id =
                                pick < 5   ? ids[rng.next_below(2)]  // shared
                                : pick < 9 ? ids[2 + static_cast<std::size_t>(t)]
                                           : InstanceId{40};  // orphan
                            session.record(id, OpKind::Add, i,
                                           static_cast<std::uint32_t>(i));
                        }
                    });
                }
                for (auto& worker : workers) worker.join();
                session.stop();
                oracle.finalize();
                std::scoped_lock lock(sink_mutex);
                expect_store_matches(session.store(), oracle,
                                     session.registry().size());
                EXPECT_EQ(session.orphan_events(),
                          session.store().orphan_events(
                              session.registry().size()));
            }
        }
    }
}


// ---------------------------------------------------------------------------
// Compact capture rows: Buffered capture stores 24-byte rows and derives
// seq, time_ns and thread from each row's index in its thread's chain.
// These tests pin the derivation rules and check that the derived store is
// the store the same events build when appended as whole AccessEvents.

/// Buffered capture from `threads` threads, `per_thread` events each, on a
/// shared instance (re-sorted when several threads write it), one private
/// instance per thread and an orphan id.  The event sink's stream is
/// returned in `stream`; position is the thread's event index, and size
/// identifies the thread.
void capture_buffered(ProfilingSession& session, int threads, int per_thread,
                      std::vector<AccessEvent>& stream) {
    session.set_event_sink([&](std::span<const AccessEvent> events) {
        stream.insert(stream.end(), events.begin(), events.end());
    });
    std::vector<InstanceId> ids;
    for (int i = 0; i < 1 + threads; ++i)
        ids.push_back(session.register_instance(
            DsKind::List, "List<Int64>",
            {"Compact", "M", static_cast<std::uint32_t>(i)}));
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            support::Rng rng(static_cast<std::uint64_t>(t) + 7);
            for (int i = 0; i < per_thread; ++i) {
                const std::uint64_t pick = rng.next_below(16);
                const InstanceId id =
                    pick < 6    ? ids[0]
                    : pick < 15 ? ids[1 + static_cast<std::size_t>(t)]
                                : InstanceId{50};  // orphan
                session.record(id, static_cast<OpKind>(i % kOpKindCount), i,
                               static_cast<std::uint32_t>(t));
            }
        });
    }
    for (auto& worker : workers) worker.join();
    session.stop();
}

/// The events of `stream` appended as AccessEvents, in collector-sized
/// batches.
ProfileStore append_in_batches(const std::vector<AccessEvent>& stream) {
    ProfileStore appended;
    for (std::size_t at = 0; at < stream.size(); at += 1024)
        appended.append(std::span(stream).subspan(
            at, std::min<std::size_t>(1024, stream.size() - at)));
    return appended;
}

/// `live_store` holds the columns, ranges, events() (with every field, `seq`
/// included) and orphan count of `expected_store`.
void expect_same_store(const ProfileStore& live_store,
                       const ProfileStore& expected_store,
                       std::size_t registered) {
    const ColumnStore& live = live_store.columns();
    const ColumnStore& expected = expected_store.columns();
    ASSERT_EQ(live.total_events(), expected.total_events());
    ASSERT_EQ(live.instance_slots(), expected.instance_slots());
    const std::size_t rows = live.total_events();
    EXPECT_TRUE(std::equal(live.time_ns(), live.time_ns() + rows,
                           expected.time_ns()));
    EXPECT_TRUE(std::equal(live.position(), live.position() + rows,
                           expected.position()));
    EXPECT_TRUE(
        std::equal(live.sizes(), live.sizes() + rows, expected.sizes()));
    EXPECT_TRUE(std::equal(live.op(), live.op() + rows, expected.op()));
    EXPECT_TRUE(std::equal(live.thread(), live.thread() + rows,
                           expected.thread()));
    for (std::size_t slot = 0; slot < live.instance_slots(); ++slot) {
        const auto id = static_cast<InstanceId>(slot);
        EXPECT_EQ(live.range(id).begin, expected.range(id).begin);
        EXPECT_EQ(live.range(id).end, expected.range(id).end);
        const auto a = oracle::events_of(live_store, id);
        const auto b = oracle::events_of(expected_store, id);
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
            << "instance " << id;
    }
    EXPECT_EQ(live_store.orphan_events(registered),
              expected_store.orphan_events(registered));
}

// 1 and 4 threads; per-thread runs cross 64-event strides, 1024-event seq
// blocks and chunk boundaries (the first capture chunks hold 6,788,
// 13,577, 27,155 and 54,311 rows, then 173,800 per 4 MiB mapping).
TEST(CompactRows, BufferedStoreMatchesAppendedEvents) {
    for (const auto& [threads, per_thread] :
         {std::pair{1, 110'000}, std::pair{4, 60'000}}) {
        SCOPED_TRACE(::testing::Message() << threads << " threads");
        ProfilingSession session(CaptureMode::Buffered);
        std::vector<AccessEvent> stream;
        capture_buffered(session, threads, per_thread, stream);
        ASSERT_EQ(stream.size(),
                  static_cast<std::size_t>(threads) *
                      static_cast<std::size_t>(per_thread));

        // The derivation rules, read off the sink's stream: per thread,
        // event i's seq is its block's base plus i mod 1024, and its time
        // is the reading at i - i mod 64.
        std::vector<std::vector<const AccessEvent*>> by_thread(
            static_cast<std::size_t>(threads));
        for (const AccessEvent& ev : stream) {
            ASSERT_LT(ev.size, by_thread.size());
            by_thread[ev.size].push_back(&ev);
        }
        std::set<ThreadId> thread_ids;
        for (const auto& events : by_thread) {
            ASSERT_EQ(events.size(), static_cast<std::size_t>(per_thread));
            thread_ids.insert(events[0]->thread);
            for (std::size_t i = 0; i < events.size(); ++i) {
                ASSERT_EQ(events[i]->position, static_cast<std::int64_t>(i));
                ASSERT_EQ(events[i]->thread, events[0]->thread);
                const std::size_t block = i - i % 1024;
                ASSERT_EQ(events[i]->seq, events[block]->seq + i % 1024) << i;
                ASSERT_EQ(events[i]->time_ns, events[i - i % 64]->time_ns)
                    << i;
                if (i % 64 == 0 && i > 0) {
                    ASSERT_GE(events[i]->time_ns, events[i - 64]->time_ns);
                }
            }
        }
        EXPECT_EQ(thread_ids.size(), static_cast<std::size_t>(threads));

        // The same events appended as AccessEvents build a byte-identical
        // store.
        expect_same_store(session.store(), append_in_batches(stream),
                          session.registry().size());
    }
}

// Each chunk's counts come from the tally its recording thread kept, so
// they must be the counts append() takes from the same events.  A skewed
// stream over 300 instances, in runs of 1 to 300 events that cross
// 64-row strides, the 6,788-row first chunk and the 4 MiB chunks (from
// row 101,831 of a thread on); a third of the instances register while
// the threads record, so tallies grow mid-chunk; every thread stops
// mid-stride.
TEST(CompactRows, CountsArriveWithTheChunks) {
    constexpr std::size_t kInstances = 300;
    constexpr std::size_t kEarly = 200;  // registered before recording
    for (const auto& [threads, per_thread] :
         {std::pair{1, 180'037}, std::pair{4, 120'037}}) {
        SCOPED_TRACE(::testing::Message() << threads << " threads");
        ProfilingSession session;
        std::vector<AccessEvent> stream;
        session.set_event_sink([&](std::span<const AccessEvent> events) {
            stream.insert(stream.end(), events.begin(), events.end());
        });
        std::vector<InstanceId> early;
        for (std::size_t i = 0; i < kEarly; ++i)
            early.push_back(session.register_instance(
                DsKind::List, "List<Int64>",
                {"Tally", "M", static_cast<std::uint32_t>(i)}));
        const std::size_t late_each =
            (kInstances - kEarly) / static_cast<std::size_t>(threads);
        std::vector<std::thread> workers;
        for (int t = 0; t < threads; ++t) {
            workers.emplace_back([&, t] {
                support::Rng rng(static_cast<std::uint64_t>(t) + 31);
                std::vector<InstanceId> late;
                for (int i = 0; i < per_thread;) {
                    if (i >= per_thread / 2 && late.empty()) {
                        for (std::size_t j = 0; j < late_each; ++j)
                            late.push_back(session.register_instance(
                                DsKind::Queue, "Queue<Int32>",
                                {"Tally", "Late",
                                 static_cast<std::uint32_t>(j)}));
                    }
                    // Low ids far more often than high ones.
                    const InstanceId id =
                        !late.empty() && rng.next_below(4) == 0
                            ? late[rng.next_below(late.size())]
                            : early[rng.next_below(
                                  rng.next_below(kEarly) + 1)];
                    const int run = 1 + static_cast<int>(rng.next_below(
                                            rng.next_below(2) == 0 ? 3 : 300));
                    for (const int end = std::min(per_thread, i + run);
                         i < end; ++i)
                        session.record(id,
                                       static_cast<OpKind>(i % kOpKindCount),
                                       i, static_cast<std::uint32_t>(t));
                }
            });
        }
        for (auto& worker : workers) worker.join();
        session.stop();
        ASSERT_EQ(session.registry().size(), kInstances);
        ASSERT_EQ(stream.size(), static_cast<std::size_t>(threads) *
                                     static_cast<std::size_t>(per_thread));
        const ProfileStore appended = append_in_batches(stream);
        expect_same_store(session.store(), appended,
                          session.registry().size());
        EXPECT_EQ(session.orphan_events(),
                  appended.orphan_events(session.registry().size()));
    }
}

// An id the registry never issued, recorded mid-chunk in a Postmortem
// session: that chunk drops its tally and the store counts it instead, so
// the events are stored, and counted as orphans, like any others.
TEST(CompactRows, UnregisteredIdMidChunkIsStoredAsOrphan) {
    ProfilingSession session;
    std::vector<AccessEvent> stream;
    session.set_event_sink([&](std::span<const AccessEvent> events) {
        stream.insert(stream.end(), events.begin(), events.end());
    });
    std::vector<InstanceId> ids;
    for (std::uint32_t i = 0; i < 3; ++i)
        ids.push_back(session.register_instance(DsKind::List, "List<Int64>",
                                                {"Orphan", "M", i}));
    const auto orphan =
        static_cast<InstanceId>(session.registry().size() + 1000);
    constexpr std::int64_t kEvents = 20'000;  // three chunks
    constexpr std::int64_t kOrphanFrom = 3'000, kOrphans = 10;
    for (std::int64_t i = 0; i < kEvents; ++i) {
        const bool stray = i >= kOrphanFrom && i < kOrphanFrom + kOrphans;
        session.record(stray ? orphan : ids[static_cast<std::size_t>(i % 3)],
                       OpKind::Add, i, static_cast<std::uint32_t>(i));
    }
    session.stop();
    const auto stored = oracle::events_of(session.store(), orphan);
    ASSERT_EQ(stored.size(), static_cast<std::size_t>(kOrphans));
    for (std::int64_t i = 0; i < kOrphans; ++i)
        EXPECT_EQ(stored[static_cast<std::size_t>(i)].position,
                  kOrphanFrom + i);
    EXPECT_EQ(session.orphan_events(), static_cast<std::size_t>(kOrphans));
    EXPECT_EQ(session.store().total_events(),
              static_cast<std::size_t>(kEvents));
    expect_same_store(session.store(), append_in_batches(stream),
                      session.registry().size());
}

// The incremental sink gets the store's events, every one exactly once,
// as one stream in ascending seq order.
TEST(CompactRows, SinkStreamIsTheStoreInSeqOrder) {
    for (const int threads : {1, 4}) {
        SCOPED_TRACE(::testing::Message() << threads << " threads");
        ProfilingSession session(CaptureMode::Buffered);
        std::vector<AccessEvent> stream;
        capture_buffered(session, threads, 20'000, stream);
        for (std::size_t i = 1; i < stream.size(); ++i)
            ASSERT_LT(stream[i - 1].seq, stream[i].seq) << i;
        std::vector<AccessEvent> stored;
        for (std::size_t id = 0; id < session.store().instance_slots(); ++id) {
            const auto events =
                oracle::events_of(session.store(), static_cast<InstanceId>(id));
            stored.insert(stored.end(), events.begin(), events.end());
        }
        std::sort(stored.begin(), stored.end(),
                  [](const AccessEvent& a, const AccessEvent& b) {
                      return a.seq < b.seq;
                  });
        EXPECT_TRUE(std::equal(stored.begin(), stored.end(), stream.begin(),
                               stream.end()));
    }
}

// Event i of a thread carries the clock reading taken while event
// i - i mod 64 was recorded: bracket every stride-start record with clock
// reads of our own, and every other event must repeat its stride's value.
TEST(CompactRows, TimestampIsTheReadingAtTheStrideStart) {
    for (const Delivery delivery : {Delivery::Buffered, Delivery::Streaming}) {
        SCOPED_TRACE(delivery == Delivery::Buffered ? "Buffered" : "Streaming");
        ProfilingSession session;
        LiveSinkCheck sink;
        sink.attach(session, delivery);
        const InstanceId id = session.register_instance(
            DsKind::List, "List<Int64>", {"Stamp", "M", 1});
        constexpr std::size_t kEvents = 9'000;  // past the first chunk
        std::vector<std::pair<std::uint64_t, std::uint64_t>> brackets;
        for (std::size_t i = 0; i < kEvents; ++i) {
            if (i % ProfilingSession::kTimestampStride == 0) {
                const std::uint64_t before = support::now_ns();
                session.record(id, OpKind::Set, static_cast<std::int64_t>(i),
                               1);
                brackets.emplace_back(before, support::now_ns());
            } else {
                session.record(id, OpKind::Set, static_cast<std::int64_t>(i),
                               1);
            }
        }
        session.stop();
        const auto events = oracle::events_of(session.store(), id);
        ASSERT_EQ(events.size(), kEvents);
        for (std::size_t i = 0; i < kEvents; ++i) {
            constexpr std::size_t kStride = ProfilingSession::kTimestampStride;
            ASSERT_EQ(events[i].time_ns, events[i - i % kStride].time_ns) << i;
            const auto [before, after] = brackets[i / kStride];
            ASSERT_GE(events[i].time_ns, before) << i;
            ASSERT_LE(events[i].time_ns, after) << i;
        }
        sink.expect_complete(session, delivery);
    }
}

// ---------------------------------------------------------------------------
// Live drain: with an event sink attached, the collector acknowledges each
// chain's published rows while the workload records and delivers them in
// seq order straight from the chunks.

// A thread held at the drain bound waits for the collector's
// acknowledgement, never for delivery.  Here a second channel records one
// event first and then idles, so the rest of its seq block is never filled
// and every event of the busy thread, all of them in later blocks, waits
// for stop().  A collector that counted delivered events against the bound
// would hold the busy thread forever.  The waiting rows stay where they
// are: the busy thread's 160 KiB chunks stay alive until delivery.
TEST(LiveDrain, ProducerAtTheBoundOutrunsAHeldWatermark) {
    constexpr std::uint64_t kEvents = 200'000;
    const std::size_t live_before = bulk_buffers_live();
    ProfilingSession session(CaptureMode::Buffered, /*drain_bound=*/1024,
                             AnalysisMode::Incremental);
    std::atomic<std::uint64_t> delivered{0};
    session.set_event_sink([&](std::span<const AccessEvent> batch) {
        delivered.fetch_add(batch.size(), std::memory_order_relaxed);
    });
    const InstanceId idle_id = session.register_instance(
        DsKind::List, "List<Int64>", {"Held", "Idle", 1});
    const InstanceId busy_id = session.register_instance(
        DsKind::List, "List<Int64>", {"Held", "Busy", 2});

    std::atomic<bool> recorded{false};
    std::atomic<bool> release{false};
    std::thread idle([&] {
        session.record(idle_id, OpKind::Add, 0, 1);  // draws seq block 0
        recorded.store(true, std::memory_order_release);
        while (!release.load(std::memory_order_acquire))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    while (!recorded.load(std::memory_order_acquire))
        std::this_thread::yield();
    std::thread busy([&] {
        for (std::uint64_t i = 0; i < kEvents; ++i)
            session.record(busy_id, OpKind::Get,
                           static_cast<std::int64_t>(i), 1);
    });
    busy.join();
    // Every busy event has a seq above the idle channel's open block.
    EXPECT_LE(delivered.load(std::memory_order_relaxed), 1u);
    EXPECT_GE(bulk_buffers_live() - live_before,
              (kEvents + 1) * sizeof(CaptureRow) / (160 * 1024));
    release.store(true, std::memory_order_release);
    idle.join();
    session.stop();
    EXPECT_EQ(delivered.load(std::memory_order_relaxed), kEvents + 1);
    EXPECT_EQ(bulk_buffers_live(), live_before);
}

// An Incremental session frees each chunk the collector has read while the
// workload is still recording: 2 M events fill about 295 chunks of 6,788
// rows, and the 64 K-event drain bound keeps about ten of them alive.
TEST(LiveDrain, IncrementalSessionFreesChunksDuringCapture) {
    constexpr std::uint64_t kEvents = 2'000'000;
    const std::size_t live_before = bulk_buffers_live();
    ProfilingSession session(CaptureMode::Buffered, 64 * 1024,
                             AnalysisMode::Incremental);
    LiveSinkCheck sink;
    sink.attach(session, Delivery::Streaming);
    const InstanceId id = session.register_instance(
        DsKind::List, "List<Int64>", {"Free", "M", 1});
    std::size_t peak_chunks = 0;
    for (std::uint64_t i = 0; i < kEvents; ++i) {
        session.record(id, OpKind::Add, static_cast<std::int64_t>(i), 1);
        if (i % 4096 == 0)
            peak_chunks =
                std::max(peak_chunks, bulk_buffers_live() - live_before);
    }
    EXPECT_GT(peak_chunks, 0u);
    EXPECT_LE(peak_chunks, 16u);
    session.stop();
    sink.expect_complete(session, Delivery::Streaming);
    EXPECT_EQ(sink.events, kEvents);
    EXPECT_EQ(session.store().total_events(), 0u);
    EXPECT_EQ(bulk_buffers_live(), live_before);
}

// One thread records 1,500 events, ending inside its second seq block, and
// exits while three others keep recording: the unfilled rest of that block
// holds delivery until stop(), whose final flush skips it.  Every event
// still reaches the sink exactly once, in ascending seq order.
TEST(LiveDrain, ThreadExitingMidBlockHoldsNothingBack) {
    constexpr int kBusy = 3;
    constexpr std::int64_t kShort = 1'500;
    constexpr std::int64_t kLong = 30'000;
    ProfilingSession session(CaptureMode::Buffered, 4096,
                             AnalysisMode::Incremental);
    std::vector<AccessEvent> stream;
    session.set_event_sink([&](std::span<const AccessEvent> batch) {
        stream.insert(stream.end(), batch.begin(), batch.end());
    });
    std::vector<InstanceId> ids;
    for (int t = 0; t <= kBusy; ++t)
        ids.push_back(session.register_instance(
            DsKind::List, "List<Int64>",
            {"Exit", "M", static_cast<std::uint32_t>(t)}));

    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t <= kBusy; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            const std::int64_t n = t == 0 ? kShort : kLong;
            for (std::int64_t i = 0; i < n; ++i)
                session.record(ids[static_cast<std::size_t>(t)], OpKind::Add,
                               i, 1);
        });
    }
    go.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();
    session.stop();

    ASSERT_EQ(stream.size(),
              static_cast<std::size_t>(kShort + kBusy * kLong));
    for (std::size_t i = 1; i < stream.size(); ++i)
        ASSERT_LT(stream[i - 1].seq, stream[i].seq) << i;
    // Per instance the positions arrive as 0, 1, 2, ...: none lost, none
    // twice.
    std::map<InstanceId, std::int64_t> next;
    for (const AccessEvent& ev : stream)
        ASSERT_EQ(ev.position, next[ev.instance]++);
    EXPECT_EQ(next[ids[0]], kShort);
    for (int t = 1; t <= kBusy; ++t)
        EXPECT_EQ(next[ids[static_cast<std::size_t>(t)]], kLong);
}

}  // namespace
}  // namespace dsspy::runtime
