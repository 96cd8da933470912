// Detection quality: precision AND recall against ground truth.
//
// The paper reports precision (66.67 %) but explicitly cannot report
// recall: "We are unable to provide this information with certainty,
// because we did not evaluate how many of the data structures that were
// not part of the result in fact yielded a speedup."  With synthetic
// labeled workloads the ground truth IS known, so this bench measures the
// full confusion matrix per use-case category — the paper's stated future
// work ("We will now work on improving the detection accuracy").
//
// The workload mixes three difficulty tiers per category:
//   * clear positives   — evidence well above the thresholds,
//   * borderline cases  — evidence randomized around the thresholds
//                         (labeled by what the evidence actually is),
//   * negatives         — pattern-free noise and below-threshold traffic.
// A final threshold sweep shows the precision/recall trade-off the
// paper's tuning navigated.
#include <array>
#include <iostream>
#include <map>
#include <set>
#include <string>

#include "core/dsspy.hpp"
#include "corpus/workload.hpp"
#include "ds/ds.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace dsspy;
using core::UseCaseKind;

/// Ground truth per instance: the set of expected parallel use cases.
using Label = std::set<UseCaseKind>;

struct LabeledSession {
    runtime::ProfilingSession session;
    std::map<runtime::InstanceId, Label> truth;
};

/// Borderline Long-Insert: one insertion run whose length straddles the
/// 100-event threshold; reads keep the share near (but above) 30%.
void drive_borderline_li(LabeledSession& ls, std::uint32_t position,
                         support::Rng& rng) {
    const std::size_t run = 80 + rng.next_below(40);  // 80..119
    ds::ProfiledList<std::int64_t> list(
        &ls.session, {"Quality.Borderline", "LI", position});
    for (std::size_t i = 0; i < run; ++i)
        list.add(static_cast<std::int64_t>(i));
    std::size_t pos = 0;
    const std::size_t reads = run / 2;
    for (std::size_t i = 0; i < reads; ++i) {
        (void)list.get(pos);
        pos = (pos + 7) % list.count();
    }
    // Truth by the rule's definition: a long phase needs >= 100 events.
    Label label;
    if (run >= 100) label.insert(UseCaseKind::LongInsert);
    ls.truth[list.instance_id()] = label;
}

/// Borderline Frequent-Long-Read: sweep count straddles the >10 rule.
void drive_borderline_flr(LabeledSession& ls, std::uint32_t position,
                          support::Rng& rng) {
    const std::size_t sweeps = 8 + rng.next_below(6);  // 8..13
    ds::ProfiledList<std::int64_t> list(
        &ls.session, {"Quality.Borderline", "FLR", position}, 60);
    for (std::size_t i = 0; i < 60; ++i)
        list.add(static_cast<std::int64_t>(i));
    for (std::size_t s = 0; s < sweeps; ++s)
        for (std::size_t i = 0; i < list.count(); ++i) (void)list.get(i);
    Label label;
    if (sweeps > 10) label.insert(UseCaseKind::FrequentLongRead);
    ls.truth[list.instance_id()] = label;
}

/// Run one labeled mixed workload into `ls` (sessions are not movable).
void build_workload(LabeledSession& ls, std::uint64_t seed) {
    support::Rng rng(seed);
    std::uint32_t position = 0;

    auto labeled = [&ls](runtime::InstanceId id, Label label) {
        ls.truth[id] = std::move(label);
    };

    // Clear positives via the corpus drivers (instance id = last
    // registered instance).
    auto last_id = [&ls] {
        return static_cast<runtime::InstanceId>(
            ls.session.registry().size() - 1);
    };
    for (int i = 0; i < 3; ++i) {
        corpus::drive_long_insert(&ls.session,
                                  {"Quality.Clear", "LI", ++position}, rng);
        labeled(last_id(), {UseCaseKind::LongInsert});
        corpus::drive_frequent_long_read(
            &ls.session, {"Quality.Clear", "FLR", ++position}, rng);
        labeled(last_id(), {UseCaseKind::FrequentLongRead});
        corpus::drive_implement_queue(
            &ls.session, {"Quality.Clear", "IQ", ++position}, rng);
        labeled(last_id(), {UseCaseKind::ImplementQueue});
        corpus::drive_frequent_search(
            &ls.session, {"Quality.Clear", "FS", ++position}, rng);
        labeled(last_id(), {UseCaseKind::FrequentSearch});
        corpus::drive_sort_after_insert(
            &ls.session, {"Quality.Clear", "SAI", ++position}, rng);
        labeled(last_id(), {UseCaseKind::SortAfterInsert});
    }

    // Borderline cases.
    for (int i = 0; i < 10; ++i) {
        drive_borderline_li(ls, ++position, rng);
        drive_borderline_flr(ls, ++position, rng);
    }

    // Negatives.
    for (int i = 0; i < 12; ++i) {
        corpus::drive_noise_list(&ls.session,
                                 {"Quality.Noise", "List", ++position}, rng);
        labeled(last_id(), {});
        if (i % 2 == 0) {
            corpus::drive_regularity_only(
                &ls.session, {"Quality.Noise", "Reg", ++position}, rng);
            labeled(last_id(), {});
        }
    }
}

struct Counts {
    std::size_t tp = 0;
    std::size_t fp = 0;
    std::size_t fn = 0;

    [[nodiscard]] double precision() const {
        return tp + fp == 0 ? 1.0
                            : static_cast<double>(tp) /
                                  static_cast<double>(tp + fp);
    }
    [[nodiscard]] double recall() const {
        return tp + fn == 0 ? 1.0
                            : static_cast<double>(tp) /
                                  static_cast<double>(tp + fn);
    }
};

/// Evaluate one configuration over `rounds` seeds.
std::array<Counts, core::kUseCaseKindCount> evaluate(
    const core::DetectorConfig& config, int rounds) {
    std::array<Counts, core::kUseCaseKindCount> counts{};
    const core::Dsspy analyzer(config);
    for (int round = 0; round < rounds; ++round) {
        LabeledSession ls;
        build_workload(ls, 1000 + static_cast<std::uint64_t>(round));
        ls.session.stop();
        const core::AnalysisResult analysis = analyzer.analyze(ls.session);
        for (const core::InstanceAnalysis& ia : analysis.instances()) {
            const auto it = ls.truth.find(ia.stats.info.id);
            if (it == ls.truth.end()) continue;  // unlabeled helper
            const Label& expected = it->second;
            Label detected;
            for (const core::UseCase& uc : ia.use_cases)
                if (uc.parallel_potential()) detected.insert(uc.kind);
            for (std::size_t k = 0; k < core::kUseCaseKindCount; ++k) {
                const auto kind = static_cast<UseCaseKind>(k);
                const bool want = expected.contains(kind);
                const bool got = detected.contains(kind);
                if (want && got) ++counts[k].tp;
                if (!want && got) ++counts[k].fp;
                if (want && !got) ++counts[k].fn;
            }
        }
    }
    return counts;
}

void print_counts(const std::array<Counts, core::kUseCaseKindCount>& counts) {
    using support::Table;
    Table table({"Category", "TP", "FP", "FN", "Precision", "Recall"});
    Counts total;
    for (std::size_t k = 0; k < core::kUseCaseKindCount; ++k) {
        const auto kind = static_cast<UseCaseKind>(k);
        if (!core::has_parallel_potential(kind)) continue;
        const Counts& c = counts[k];
        if (c.tp + c.fp + c.fn == 0) continue;
        table.add_row({std::string(core::use_case_name(kind)),
                       std::to_string(c.tp), std::to_string(c.fp),
                       std::to_string(c.fn), Table::pct(c.precision()),
                       Table::pct(c.recall())});
        total.tp += c.tp;
        total.fp += c.fp;
        total.fn += c.fn;
    }
    table.add_separator();
    table.add_row({"All", std::to_string(total.tp),
                   std::to_string(total.fp), std::to_string(total.fn),
                   Table::pct(total.precision()),
                   Table::pct(total.recall())});
    table.print(std::cout);
}

}  // namespace

int main() {
    using support::Table;
    constexpr int kRounds = 12;

    std::cout << "Detection quality vs ground truth (" << kRounds
              << " labeled workload rounds; borderline cases straddle the "
                 "thresholds)\n\n";

    std::cout << "Paper defaults:\n";
    print_counts(evaluate(core::DetectorConfig{}, kRounds));

    std::cout << "\nPrecision/recall trade-off: scaling the Long-Insert "
                 "phase threshold\n";
    Table sweep({"li_min_phase_events", "Precision (LI)", "Recall (LI)"});
    for (const std::size_t v : {60u, 80u, 100u, 120u, 160u}) {
        core::DetectorConfig config;
        config.li_min_phase_events = v;
        const auto counts = evaluate(config, kRounds);
        const Counts& li =
            counts[static_cast<std::size_t>(UseCaseKind::LongInsert)];
        sweep.add_row({std::to_string(v), Table::pct(li.precision()),
                       Table::pct(li.recall())});
    }
    sweep.print(std::cout);
    std::cout << "\nNote: borderline labels follow the rule's published "
                 "definition (>=100-event phases), so precision/recall are "
                 "both 100% exactly at the paper's threshold and degrade "
                 "away from it — the behaviour the paper's tuning "
                 "optimized for.\n";
    return 0;
}
