// The adaptive container layer: hysteresis controller damping, strategy
// adoption, correctness differentials against the plain containers, zero
// verdict divergence against offline analysis, and concurrent readers
// racing a strategy migration (the adapt_tsan target).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "adapt/adaptive_dictionary.hpp"
#include "adapt/adaptive_list.hpp"
#include "adapt/controller.hpp"
#include "core/dsspy.hpp"
#include "ds/list.hpp"
#include "ds/profiled_list.hpp"
#include "runtime/session.hpp"

namespace {

using dsspy::adapt::AdaptConfig;
using dsspy::adapt::AdaptiveDictionary;
using dsspy::adapt::AdaptiveList;
using dsspy::adapt::AdviceSignal;
using dsspy::adapt::ControllerConfig;
using dsspy::adapt::HysteresisController;
using dsspy::adapt::Strategy;
using dsspy::adapt::strategy_for;
using dsspy::core::AdviceAction;
using dsspy::core::UseCaseKind;

// --- controller unit tests ---------------------------------------------------

TEST(AdaptController, StrategyVocabulary) {
    EXPECT_EQ(strategy_for(AdviceAction::BuildIndex), Strategy::Indexed);
    EXPECT_EQ(strategy_for(AdviceAction::ParallelForAll), Strategy::Parallel);
    EXPECT_EQ(strategy_for(AdviceAction::ParallelInsert), Strategy::Parallel);
    EXPECT_EQ(strategy_for(AdviceAction::ParallelPhases), Strategy::Parallel);
    EXPECT_EQ(strategy_for(AdviceAction::UseDeque), Strategy::DequeBacked);
    EXPECT_EQ(strategy_for(AdviceAction::ParallelContainer),
              Strategy::DequeBacked);
    // Source-level advice has no container-side remedy.
    EXPECT_EQ(strategy_for(AdviceAction::UseStack), Strategy::Sequential);
    EXPECT_EQ(strategy_for(AdviceAction::DropWrites), Strategy::Sequential);
    EXPECT_EQ(dsspy::adapt::strategy_name(Strategy::Indexed), "Indexed");
}

TEST(AdaptController, ScoreOfCountSentinelIsZero) {
    HysteresisController ctl;
    const AdviceSignal fs{AdviceAction::BuildIndex, 1.0};
    ctl.observe(&fs, 1, 100, 400);
    EXPECT_GT(ctl.score(AdviceAction::BuildIndex), 0.0);
    // The "no action" sentinel must not read past the score array.
    EXPECT_EQ(ctl.score(AdviceAction::Count), 0.0);
}

TEST(AdaptController, ColdContainerAdoptsFirstVerdictQuickly) {
    HysteresisController ctl;
    const AdviceSignal fs{AdviceAction::BuildIndex, 0.9};
    // One observation is below the enter threshold (EWMA), a couple more
    // cross it; no dwell gate applies before the first switch.
    Strategy s = Strategy::Sequential;
    std::size_t rounds = 0;
    while (s == Strategy::Sequential && rounds < 10) {
        s = ctl.observe(&fs, 1, /*size=*/10'000, /*ops_delta=*/8);
        ++rounds;
    }
    EXPECT_EQ(s, Strategy::Indexed);
    EXPECT_LE(rounds, 3u);  // 0.4*0.9 = 0.36, then 0.576 >= 0.5.
    EXPECT_EQ(ctl.switch_count(), 1u);
}

TEST(AdaptController, OneOutlierVerdictDoesNotFlip) {
    HysteresisController ctl;
    const AdviceSignal fs{AdviceAction::BuildIndex, 1.0};
    for (int i = 0; i < 6; ++i) ctl.observe(&fs, 1, 100, 400);
    ASSERT_EQ(ctl.current(), Strategy::Indexed);
    // A single reclassification with no verdict at all: the incumbent
    // score decays but stays above the exit band.
    ctl.observe(nullptr, 0, 100, 400);
    EXPECT_EQ(ctl.current(), Strategy::Indexed);
    EXPECT_EQ(ctl.switch_count(), 1u);
}

TEST(AdaptController, FlappingVerdictsStayBounded) {
    HysteresisController ctl;
    const AdviceSignal fs{AdviceAction::BuildIndex, 0.8};
    const AdviceSignal deque{AdviceAction::UseDeque, 0.8};
    // 200 reclassifications alternating between two contradictory
    // verdicts every round.  Raw acting would switch ~200 times; the EWMA
    // keeps both scores in the middle band and the dual thresholds keep
    // the incumbent.
    for (int i = 0; i < 200; ++i)
        ctl.observe(i % 2 == 0 ? &fs : &deque, 1, 1'000, 300);
    EXPECT_LE(ctl.switch_count(), 3u);
}

TEST(AdaptController, PhaseChangeSwitchesAtMostThreeTimes) {
    // The closed-loop bound: insert-heavy -> search-heavy -> insert-heavy
    // -> search-heavy, 25 reclassifications × 40 ops per phase.  The
    // escalating dwell (256, 512, 1024, 2048 ...) lets the controller
    // follow the first phase changes but suppresses the last one: at most
    // 3 switches for 4 phases instead of chasing every one.
    ControllerConfig config;
    config.switch_cost_factor = 0.0;  // Isolate the dwell escalation.
    HysteresisController ctl(config);
    const AdviceSignal li{AdviceAction::ParallelInsert, 0.9};
    const AdviceSignal fs{AdviceAction::BuildIndex, 0.9};
    for (int phase = 0; phase < 4; ++phase) {
        const AdviceSignal& sig = phase % 2 == 0 ? li : fs;
        for (int i = 0; i < 25; ++i) ctl.observe(&sig, 1, 5'000, 40);
    }
    EXPECT_GE(ctl.switch_count(), 1u);
    EXPECT_LE(ctl.switch_count(), 3u);
    EXPECT_GT(ctl.suppressed_count(), 0u);
}

TEST(AdaptController, DwellGateSuppressesEagerSecondSwitch) {
    ControllerConfig config;
    config.min_dwell_ops = 1'000;
    HysteresisController ctl(config);
    const AdviceSignal fs{AdviceAction::BuildIndex, 1.0};
    for (int i = 0; i < 4; ++i) ctl.observe(&fs, 1, 10, 10);
    ASSERT_EQ(ctl.current(), Strategy::Indexed);
    // The verdict flips to deque traffic immediately; too few operations
    // have passed to amortize another migration.
    const AdviceSignal deque{AdviceAction::UseDeque, 1.0};
    for (int i = 0; i < 8; ++i) ctl.observe(&deque, 1, 10, 10);
    EXPECT_EQ(ctl.current(), Strategy::Indexed);
    EXPECT_GT(ctl.suppressed_count(), 0u);
    // After the dwell, the sideways switch is allowed.
    for (int i = 0; i < 8; ++i) ctl.observe(&deque, 1, 10, 500);
    EXPECT_EQ(ctl.current(), Strategy::DequeBacked);
}

TEST(AdaptController, RetreatsToSequentialWhenVerdictFades) {
    HysteresisController ctl;
    const AdviceSignal fs{AdviceAction::BuildIndex, 1.0};
    for (int i = 0; i < 5; ++i) ctl.observe(&fs, 1, 100, 400);
    ASSERT_EQ(ctl.current(), Strategy::Indexed);
    for (int i = 0; i < 20; ++i) ctl.observe(nullptr, 0, 100, 400);
    EXPECT_EQ(ctl.current(), Strategy::Sequential);
    EXPECT_EQ(ctl.switch_count(), 2u);
}

// --- AdaptiveList: strategy adoption -----------------------------------------

/// Small intervals/dwell so unit-test-sized workloads cross phases.
AdaptConfig fast_config() {
    AdaptConfig config;
    config.reclassify_interval = 64;
    config.controller.min_dwell_ops = 64;
    config.controller.switch_cost_factor = 0.0;
    return config;
}

TEST(AdaptList, SearchHeavyWorkloadAdoptsIndex) {
    AdaptiveList<int> list(fast_config());
    for (int i = 0; i < 200; ++i) list.add(i * 3);
    // The Frequent-Search shape from the paper apps: sequential point
    // reads (the Read-Forward patterns) interleaved with heavy index_of
    // traffic (the search operations).
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 200; ++i)
            ASSERT_EQ(list.get(static_cast<std::size_t>(i)), i * 3);
        for (int i = 0; i < 200; ++i)
            ASSERT_EQ(list.index_of(i * 3), i);
    }
    EXPECT_EQ(list.strategy(), Strategy::Indexed);
    // Index answers stay correct, including misses and duplicates.
    EXPECT_EQ(list.index_of(1), -1);
    list.add(0);  // Duplicate of the first element.
    EXPECT_EQ(list.index_of(0), 0);  // First occurrence, like ds::List.
}

TEST(AdaptList, FrontTrafficAdoptsDeque) {
    AdaptiveList<int> list(fast_config());
    for (int i = 0; i < 600; ++i) {
        list.insert(0, i);
        if (i % 2 == 1) list.remove_at(list.count() - 1);
    }
    EXPECT_EQ(list.strategy(), Strategy::DequeBacked);
    // Order must survive the migration: inserts at the front mean the
    // newest odd-survivor ordering is descending from the front.
    ASSERT_GT(list.count(), 0u);
    EXPECT_EQ(list.get(0), 599);
}

TEST(AdaptList, WholeReadsAdoptParallelTraversal) {
    AdaptiveList<std::int64_t> list(fast_config());
    for (int i = 0; i < 4'096; ++i) list.add(i);
    std::int64_t expected = 0;
    for (int i = 0; i < 4'096; ++i) expected += i;
    for (int round = 0; round < 40; ++round) {
        std::atomic<std::int64_t> sum{0};
        list.for_each([&sum](std::int64_t v) {
            sum.fetch_add(v, std::memory_order_relaxed);
        });
        ASSERT_EQ(sum.load(), expected);
    }
    EXPECT_EQ(list.strategy(), Strategy::Parallel);
}

TEST(AdaptList, ParallelSearchFindsFirstOccurrence) {
    // Under Parallel, index_of past the size cutoff is a chunked scan on
    // the pool; it must still answer the first occurrence, like ds::List.
    AdaptiveList<std::int64_t> list(fast_config());
    dsspy::ds::List<std::int64_t> plain;
    for (int i = 0; i < 4'096; ++i) {
        list.add(i % 1'000);
        plain.add(i % 1'000);
    }
    for (int round = 0; round < 40; ++round) {
        std::atomic<std::int64_t> sum{0};
        list.for_each([&sum](std::int64_t v) {
            sum.fetch_add(v, std::memory_order_relaxed);
        });
    }
    ASSERT_EQ(list.strategy(), Strategy::Parallel);
    for (std::int64_t v = -1; v < 1'001; v += 7)
        ASSERT_EQ(list.index_of(v), plain.index_of(v));
}

TEST(AdaptList, PhaseChangeWorkloadSwitchesAtMostThreeTimes) {
    AdaptiveList<int> list(fast_config());
    for (int phase = 0; phase < 4; ++phase) {
        if (phase % 2 == 0) {
            for (int i = 0; i < 2'000; ++i) list.add(phase * 10'000 + i);
        } else {
            for (int i = 0; i < 2'000; ++i)
                (void)list.index_of(i % 977);
        }
    }
    EXPECT_LE(list.switch_count(), 3u);
}

// --- AdaptiveList: correctness differential ----------------------------------

TEST(AdaptList, DifferentialAgainstPlainListAcrossStrategies) {
    AdaptiveList<int> adaptive(fast_config());
    dsspy::ds::List<int> plain;
    std::uint64_t rng = 0x2545F4914F6CDD1Dull;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    for (int i = 0; i < 6'000; ++i) {
        const auto r = next();
        const int value = static_cast<int>(r % 997);
        switch (r % 10) {
            case 0:
            case 1:
            case 2:
                adaptive.add(value);
                plain.add(value);
                break;
            case 3:
                adaptive.insert(0, value);
                plain.insert(0, value);
                break;
            case 4:
                if (plain.count() > 0) {
                    const std::size_t idx = r % plain.count();
                    adaptive.remove_at(idx);
                    plain.remove_at(idx);
                }
                break;
            case 5:
                if (plain.count() > 0) {
                    const std::size_t idx = r % plain.count();
                    adaptive.set(idx, value);
                    plain.set(idx, value);
                }
                break;
            case 6:
                ASSERT_EQ(adaptive.index_of(value), plain.index_of(value));
                break;
            case 7:
                ASSERT_EQ(adaptive.remove(value), plain.remove(value));
                break;
            default:
                if (plain.count() > 0) {
                    const std::size_t idx = r % plain.count();
                    ASSERT_EQ(adaptive.get(idx), plain.get(idx));
                }
                break;
        }
    }
    ASSERT_EQ(adaptive.count(), plain.count());
    for (std::size_t i = 0; i < plain.count(); ++i)
        ASSERT_EQ(adaptive.get(i), plain.get(i));
}

// --- AdaptiveList: zero verdict divergence -----------------------------------

/// One workload, one container API — driven identically against a
/// ProfiledList (offline analysis) and an AdaptiveList (embedded
/// analyzer).  Mixes inserts, point reads, searches, and traversals so
/// several detectors are exercised.
template <typename ListT>
void drive_verdict_workload(ListT& list) {
    for (int round = 0; round < 6; ++round) {
        for (int i = 0; i < 300; ++i) list.add(round * 1'000 + i);
        for (int i = 0; i < 400; ++i)
            (void)list.index_of(i % 1'700);
        long sum = 0;
        list.for_each([&sum](long v) { sum += v; });
        ASSERT_GT(sum, 0);
    }
}

std::multiset<UseCaseKind> verdict_kinds(
    const std::vector<dsspy::core::UseCase>& use_cases) {
    std::multiset<UseCaseKind> kinds;
    for (const auto& uc : use_cases) kinds.insert(uc.kind);
    return kinds;
}

TEST(AdaptList, VerdictsMatchOfflineAnalysisOfSameStream) {
    // Offline: the instrumented container records into a session, the
    // post-mortem engine classifies afterwards.
    dsspy::runtime::ProfilingSession session;
    dsspy::ds::ProfiledList<long> profiled(&session, {"Adapt", "Drive", 1});
    drive_verdict_workload(profiled);
    session.stop();
    const dsspy::core::AnalysisResult offline =
        dsspy::core::Dsspy{}.analyze(session);
    std::multiset<UseCaseKind> offline_kinds;
    for (const auto& inst : offline.instances())
        for (const auto& uc : inst.use_cases)
            offline_kinds.insert(uc.kind);

    // Closed loop: the adaptive container folds the same access stream
    // into its embedded analyzer as it executes.
    AdaptiveList<long> adaptive(fast_config());
    drive_verdict_workload(adaptive);

    EXPECT_EQ(verdict_kinds(adaptive.verdicts()), offline_kinds)
        << "adaptive container verdicts diverged from offline analysis";
    EXPECT_GT(adaptive.events_folded(), 0u);
}

// --- AdaptiveList: concurrent readers during switches (adapt_tsan) -----------

TEST(AdaptConcurrency, ReadersRaceStrategyMigrations) {
    AdaptConfig config = fast_config();
    config.reclassify_interval = 32;  // Migrate as often as possible.
    AdaptiveList<int> list(config);
    for (int i = 0; i < 512; ++i) list.add(i);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> reads{0};
    std::vector<std::jthread> readers;
    for (int t = 0; t < 3; ++t) {
        readers.emplace_back([&list, &stop, &reads] {
            std::uint64_t local = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                const std::size_t n = list.count();
                if (n > 0) (void)list.get(local % n);
                (void)list.index_of(static_cast<int>(local % 700));
                long sum = 0;
                list.for_each([&sum](int v) { sum += v; });
                ++local;
                reads.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    // The writer alternates phases to force migrations while the readers
    // hammer the container; it keeps mutating until every reader has made
    // real progress, so reads genuinely race migrations.
    for (int phase = 0; reads.load(std::memory_order_relaxed) < 200 ||
                        phase < 6; ++phase) {
        if (phase % 2 == 0) {
            for (int i = 0; i < 400; ++i) list.insert(0, 512 + i);
        } else {
            for (int i = 0; i < 400; ++i)
                if (list.count() > 256) list.remove_at(0);
        }
    }
    stop.store(true);
    readers.clear();
    EXPECT_GE(reads.load(), 200u);
    EXPECT_GT(list.count(), 0u);
}

TEST(AdaptConcurrency, ConcurrentRemovesByValueStayInBounds) {
    // remove(value) must search and erase in one critical section: with a
    // released lock between them, concurrent removers see stale indices
    // and erase out of bounds once the container shrinks underneath them
    // (the adapt_tsan sweep runs this under TSan).
    AdaptConfig config = fast_config();
    config.reclassify_interval = 32;
    AdaptiveList<int> list(config);
    constexpr int kValues = 256;
    for (int round = 0; round < 4; ++round)
        for (int i = 0; i < kValues; ++i) list.add(i);
    std::atomic<int> removed{0};
    {
        std::vector<std::jthread> removers;
        for (int t = 0; t < 4; ++t) {
            removers.emplace_back([&list, &removed, t] {
                // All threads chase the same values, so most races are
                // search-hit vs concurrent-shrink.
                for (int i = 0; i < kValues; ++i)
                    if (list.remove((i + t * 64) % kValues))
                        removed.fetch_add(1, std::memory_order_relaxed);
            });
        }
    }
    // Every successful remove erased exactly one element.
    EXPECT_EQ(list.count() + static_cast<std::size_t>(removed.load()),
              static_cast<std::size_t>(4 * kValues));
}

// --- AdaptiveDictionary ------------------------------------------------------

TEST(AdaptDictionary, BasicMapSemantics) {
    AdaptiveDictionary<std::string, int> dict;
    dict.set("one", 1);
    dict.set("two", 2);
    dict.set("one", 10);  // Overwrite keeps the entry's position.
    EXPECT_EQ(dict.count(), 2u);
    EXPECT_EQ(dict.get("one"), 10);
    int out = 0;
    EXPECT_TRUE(dict.try_get("two", out));
    EXPECT_EQ(out, 2);
    EXPECT_FALSE(dict.try_get("three", out));
    EXPECT_TRUE(dict.contains_key("one"));
    EXPECT_THROW((void)dict.get("three"), std::out_of_range);
    EXPECT_TRUE(dict.remove("one"));
    EXPECT_FALSE(dict.remove("one"));
    EXPECT_EQ(dict.count(), 1u);
    dict.clear();
    EXPECT_TRUE(dict.empty());
}

TEST(AdaptDictionary, ForEachPreservesInsertionOrderSequentially) {
    AdaptiveDictionary<int, int> dict;
    for (int i = 0; i < 50; ++i) dict.set(i, i * i);
    std::vector<int> keys;
    dict.for_each([&keys](int k, int) { keys.push_back(k); });
    ASSERT_EQ(keys.size(), 50u);
    for (int i = 0; i < 50; ++i) EXPECT_EQ(keys[static_cast<size_t>(i)], i);
}

TEST(AdaptDictionary, ValueSearchHeavyWorkloadAdoptsReverseIndex) {
    AdaptiveDictionary<int, int> dict(fast_config());
    for (int i = 0; i < 300; ++i) dict.set(i, 100'000 + i);
    // Insertion-order gets give the Read-Forward patterns, find_key gives
    // the search operations — the Frequent-Search shape on the dense
    // entry view.
    for (int round = 0; round < 8; ++round) {
        for (int i = 0; i < 300; ++i)
            ASSERT_EQ(dict.get(i), 100'000 + i);
        for (int i = 0; i < 300; ++i) {
            const auto key = dict.find_key(100'000 + i);
            ASSERT_TRUE(key.has_value());
            ASSERT_EQ(*key, i);
        }
    }
    EXPECT_EQ(dict.strategy(), Strategy::Indexed);
    EXPECT_FALSE(dict.find_key(42).has_value());
    // Mutations keep the reverse index honest.
    dict.set(7, 999'999);
    EXPECT_EQ(dict.find_key(999'999).value_or(-1), 7);
    EXPECT_FALSE(dict.find_key(100'007).has_value());
    dict.remove(7);
    EXPECT_FALSE(dict.find_key(999'999).has_value());
}

TEST(AdaptDictionary, FailedRemovesAreNotFrontDeleteTraffic) {
    // A remove() miss is a failed key lookup, not a front delete; a
    // workload of misses must not synthesize Insert-Delete-Front /
    // Implement-Queue traffic the real access stream never had.
    AdaptiveDictionary<int, int> dict(fast_config());
    for (int i = 0; i < 64; ++i) dict.set(i, i);
    for (int round = 0; round < 40; ++round)
        for (int i = 1'000; i < 1'064; ++i) EXPECT_FALSE(dict.remove(i));
    for (const auto& uc : dict.verdicts()) {
        EXPECT_NE(uc.kind, UseCaseKind::InsertDeleteFront);
        EXPECT_NE(uc.kind, UseCaseKind::ImplementQueue);
    }
    EXPECT_NE(dict.strategy(), Strategy::DequeBacked);
}

TEST(AdaptDictionary, ReverseIndexStaysExactUnderDuplicateChurn) {
    // Exercises the incremental reverse-index maintenance: overwrites and
    // removals that hit (and miss) the canonical key of duplicated
    // values, cross-checked against a linear first-key-wins scan.
    AdaptConfig config = fast_config();
    AdaptiveDictionary<int, int> dict(config);
    std::vector<std::pair<int, int>> shadow;  // Insertion-ordered truth.
    auto shadow_find = [&shadow](int value) {
        for (const auto& [k, v] : shadow)
            if (v == value) return std::optional<int>(k);
        return std::optional<int>();
    };
    for (int i = 0; i < 200; ++i) {
        dict.set(i, i % 7);  // Heavily duplicated values.
        shadow.emplace_back(i, i % 7);
    }
    // The Frequent-Search shape: in-order point reads plus heavy
    // find_key traffic until the reverse index is adopted.
    for (int round = 0; round < 3; ++round)
        for (int i = 0; i < 200; ++i) (void)dict.get(i);
    for (int round = 0;
         round < 600 && dict.strategy() != Strategy::Indexed; ++round)
        for (int v = 0; v < 7; ++v) (void)dict.find_key(v);
    ASSERT_EQ(dict.strategy(), Strategy::Indexed);
    std::uint64_t rng = 0x9E3779B97F4A7C15ull;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    for (int i = 0; i < 2'000; ++i) {
        const auto r = next();
        const int key = static_cast<int>(r % 200);
        const int value = static_cast<int>((r >> 8) % 9);
        const auto find_shadow = [&shadow, key] {
            return std::find_if(shadow.begin(), shadow.end(),
                                [key](const auto& e) {
                                    return e.first == key;
                                });
        };
        switch (r % 3) {
            case 0: {  // Overwrite or (re-)insert.
                dict.set(key, value);
                if (auto it = find_shadow(); it != shadow.end())
                    it->second = value;
                else
                    shadow.emplace_back(key, value);
                break;
            }
            case 1: {  // Remove (hit or miss).
                const bool removed = dict.remove(key);
                auto it = find_shadow();
                ASSERT_EQ(removed, it != shadow.end());
                if (it != shadow.end()) shadow.erase(it);
                break;
            }
            default: {  // First-key-wins search on a duplicated value.
                const auto got = dict.find_key(value);
                const auto want = shadow_find(value);
                ASSERT_EQ(got.has_value(), want.has_value());
                if (want) {
                    ASSERT_EQ(*got, *want);
                }
                break;
            }
        }
    }
    ASSERT_EQ(dict.count(), shadow.size());
}

TEST(AdaptList, SearchIndexStaysExactUnderDuplicateChurn) {
    // Same idea for the list's value -> first-index map: set/insert/
    // remove_at/remove churn over duplicated values after the Indexed
    // strategy is adopted, cross-checked against ds::List.
    AdaptiveList<int> adaptive(fast_config());
    dsspy::ds::List<int> plain;
    for (int i = 0; i < 300; ++i) {
        adaptive.add(i % 11);
        plain.add(i % 11);
    }
    for (int round = 0; round < 3; ++round)
        for (std::size_t i = 0; i < plain.count(); ++i)
            (void)adaptive.get(i);
    for (int round = 0;
         round < 600 && adaptive.strategy() != Strategy::Indexed; ++round)
        for (int v = 0; v < 11; ++v) (void)adaptive.index_of(v);
    ASSERT_EQ(adaptive.strategy(), Strategy::Indexed);
    std::uint64_t rng = 0xD1B54A32D192ED03ull;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    for (int i = 0; i < 4'000; ++i) {
        const auto r = next();
        const int value = static_cast<int>((r >> 8) % 13);
        switch (r % 6) {
            case 0:
                adaptive.set(r % plain.count(), value);
                plain.set(r % plain.count(), value);
                break;
            case 1:
                adaptive.insert(r % (plain.count() + 1), value);
                plain.insert(r % (plain.count() + 1), value);
                break;
            case 2:
                adaptive.add(value);
                plain.add(value);
                break;
            case 3:
                adaptive.remove_at(r % plain.count());
                plain.remove_at(r % plain.count());
                break;
            case 4:
                ASSERT_EQ(adaptive.remove(value), plain.remove(value));
                break;
            default:
                ASSERT_EQ(adaptive.index_of(value), plain.index_of(value));
                break;
        }
        ASSERT_GT(plain.count(), 0u);  // Workload never empties the list.
    }
    ASSERT_EQ(adaptive.count(), plain.count());
    for (int v = 0; v < 13; ++v)
        ASSERT_EQ(adaptive.index_of(v), plain.index_of(v));
}

TEST(AdaptDictionary, VerdictsMatchOfflineAnalysisOfSameStream) {
    // The dictionary folds its dense entry view as List events, so a
    // ProfiledList driven at the same dense positions is its offline twin:
    // a fresh-key set is an add at the landing index, get(key) a get at the
    // key's dense index, find_key an index_of on the value, for_each a
    // for_each.  Keys are fresh and never removed, so key k sits at dense
    // index k in both.
    const auto value_of = [](long dense) { return dense * 11 + 5; };
    dsspy::runtime::ProfilingSession session;
    dsspy::ds::ProfiledList<long> profiled(&session,
                                           {"Adapt", "DriveDict", 1});
    AdaptiveDictionary<long, long> adaptive(fast_config());
    long size = 0;
    for (int round = 0; round < 6; ++round) {
        for (int i = 0; i < 300; ++i, ++size) {
            adaptive.set(size, value_of(size));
            profiled.add(value_of(size));
        }
        for (long k = 0; k < size; ++k)
            ASSERT_EQ(adaptive.get(k),
                      profiled.get(static_cast<std::size_t>(k)));
        // Values past the current size miss in both containers.
        for (long i = 0; i < 400; ++i) {
            const long value = value_of(i % 1'700);
            ASSERT_EQ(adaptive.find_key(value).value_or(-1),
                      profiled.index_of(value));
        }
        std::atomic<long> adaptive_sum{0};
        long profiled_sum = 0;
        adaptive.for_each([&adaptive_sum](long, long v) {
            adaptive_sum.fetch_add(v, std::memory_order_relaxed);
        });
        profiled.for_each([&profiled_sum](long v) { profiled_sum += v; });
        ASSERT_EQ(adaptive_sum.load(), profiled_sum);
    }
    session.stop();
    const dsspy::core::AnalysisResult offline =
        dsspy::core::Dsspy{}.analyze(session);
    std::multiset<UseCaseKind> offline_kinds;
    for (const auto& inst : offline.instances())
        for (const auto& uc : inst.use_cases) offline_kinds.insert(uc.kind);

    EXPECT_FALSE(offline_kinds.empty());
    EXPECT_EQ(verdict_kinds(adaptive.verdicts()), offline_kinds)
        << "adaptive dictionary verdicts diverged from offline analysis";
    EXPECT_EQ(adaptive.events_folded(), offline.total_events());
}

TEST(AdaptConcurrency, DictionaryReadersRaceStrategyMigrations) {
    AdaptConfig config = fast_config();
    config.reclassify_interval = 32;  // Migrate as often as possible.
    AdaptiveDictionary<int, int> dict(config);
    // Keys below kStable are never removed; values repeat every kValues
    // keys, so the value index keeps duplicate counts and rescans.
    constexpr int kStable = 256;
    constexpr int kValues = 61;
    constexpr int kChurnEnd = 2'600;  // Past the Parallel traversal cutoff.
    const auto insert_run = [&dict] {
        for (int k = kStable; k < kChurnEnd; ++k) dict.set(k, k % kValues);
    };
    // The first long insert run happens before the readers start, so the
    // first adoption (Parallel, for Long-Insert) does not depend on how far
    // they have got.  Every later migration, and the Parallel traversal of
    // the full dictionary, races them.
    for (int k = 0; k < kStable; ++k) dict.set(k, k % kValues);
    insert_run();
    ASSERT_EQ(dict.strategy(), Strategy::Parallel);
    std::set<Strategy> seen{Strategy::Parallel};

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> reads{0};
    std::vector<std::jthread> readers;
    for (int t = 0; t < 3; ++t) {
        readers.emplace_back([&dict, &stop, &reads] {
            std::uint64_t local = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                const int key = static_cast<int>(local * 37 % kStable);
                EXPECT_EQ(dict.get(key), key % kValues);
                int out = 0;
                (void)dict.try_get(kStable + static_cast<int>(local % 997),
                                   out);
                const auto hit =
                    dict.find_key(static_cast<int>(local % kValues));
                EXPECT_TRUE(hit.has_value());
                std::atomic<long> sum{0};
                dict.for_each([&sum](int, int v) {
                    sum.fetch_add(v, std::memory_order_relaxed);
                });
                ++local;
                reads.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    // The writer alternates a churn phase (overwrites, removals down to the
    // stable keys, a long insert run back past the Parallel cutoff) with a
    // value-search phase (in-order gets plus find_key traffic) until the
    // container has also run Indexed while the readers race it.  Reader
    // events interleave with the writer's, so the phase at which Indexed
    // is adopted varies from run to run.
    for (int phase = 0;
         phase < 64 && (reads.load(std::memory_order_relaxed) < 200 ||
                        phase < 8 || seen.count(Strategy::Indexed) == 0);
         ++phase) {
        if (phase % 2 == 0) {
            for (int k = kStable; k < kChurnEnd; k += 5)
                dict.set(k, (k + 1) % kValues);
            for (int k = kChurnEnd - 1; k >= kStable; --k) dict.remove(k);
            insert_run();
        } else {
            for (int round = 0; round < 4; ++round)
                for (int k = 0; k < kStable; ++k) (void)dict.get(k);
            for (int i = 0; i < 3'000; ++i)
                (void)dict.find_key(i % kValues);
        }
        seen.insert(dict.strategy());
    }
    stop.store(true);
    readers.clear();
    EXPECT_GE(reads.load(), 200u);
    EXPECT_EQ(dict.count(), static_cast<std::size_t>(kChurnEnd));
    EXPECT_EQ(seen.count(Strategy::Indexed), 1u);
    for (int v = 0; v < kValues; ++v) EXPECT_EQ(dict.find_key(v), v);
}

TEST(AdaptDictionary, FindKeyReturnsFirstInsertedAmongDuplicateValues) {
    AdaptiveDictionary<int, int> dict(fast_config());
    for (int i = 0; i < 40; ++i) dict.set(i, i == 5 || i == 9 ? 77 : i);
    // Sequential scan and reverse index must agree on first-key-wins.
    EXPECT_EQ(dict.find_key(77).value_or(-1), 5);
    // A few in-order scans give the read patterns, then search-dominated
    // traffic drives Frequent-Search (not Frequent-Long-Read) so the
    // reverse index is the strategy that wins.
    for (int round = 0; round < 3; ++round)
        for (int i = 0; i < 40; ++i) (void)dict.get(i);
    for (int round = 0; round < 75; ++round)
        for (int i = 0; i < 40; ++i) (void)dict.find_key(77);
    ASSERT_EQ(dict.strategy(), Strategy::Indexed);
    EXPECT_EQ(dict.find_key(77).value_or(-1), 5);
}

}  // namespace
