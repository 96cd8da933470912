#include "apps/astrogrep.hpp"

#include <memory>
#include <string>

#include "apps/text_corpus.hpp"
#include "ds/ds.hpp"
#include "support/stopwatch.hpp"

namespace dsspy::apps {

namespace {

using support::SourceLoc;
using support::Stopwatch;

constexpr std::size_t kVolumes = 16;
constexpr std::size_t kDocsPerVolume = 14;
constexpr std::size_t kLinesPerDoc = 50;

/// Search terms: mix of frequent and rare corpus words.
const std::vector<std::string>& search_terms() {
    static const std::vector<std::string> terms = {
        "galaxy", "nebula", "stellar", "photon",
        "andromeda", "parallax", "orbit", "quasar",
    };
    return terms;
}

SourceLoc loc(const char* method, std::uint32_t position) {
    return SourceLoc{"AstroGrep.Core", method, position};
}

/// Order-independent hit checksum so sequential and parallel runs agree.
double hit_checksum(std::size_t volume, std::size_t line_index,
                    std::size_t term_index) {
    return static_cast<double>((volume + 1) * 131 + line_index * 7 +
                               term_index * 1009);
}

}  // namespace

RunResult run_astrogrep(runtime::ProfilingSession* session) {
    RunResult result;
    // The document corpus stands in for the files on disk — generating it
    // is environment setup, not application runtime.
    const std::vector<Document> docs = make_documents(
        kVolumes * kDocsPerVolume, kLinesPerDoc, 42, /*words_per_line=*/28);
    Stopwatch total;

    // Load the corpus into per-volume line lists.
    std::vector<ds::ProfiledList<std::string>> volumes;
    volumes.reserve(kVolumes);
    for (std::size_t v = 0; v < kVolumes; ++v) {
        volumes.emplace_back(session,
                             loc("LoadVolume", static_cast<std::uint32_t>(v)));
        for (std::size_t d = 0; d < kDocsPerVolume; ++d) {
            const Document& doc = docs[v * kDocsPerVolume + d];
            for (const std::string& line : doc.lines)
                volumes[v].add(line);
        }
    }

    // The query list and per-volume match counters.
    ds::ProfiledList<std::string> terms(session, loc("BuildQuery", 100));
    for (const std::string& term : search_terms()) terms.add(term);

    ds::ProfiledArray<std::int64_t> match_counts(
        session, loc("ResetCounters", 110), kVolumes);

    // Recently-opened files (small UI list).
    ds::ProfiledList<std::string> recent(session, loc("TrackRecent", 120));
    for (int i = 0; i < 12; ++i)
        recent.add("doc" + std::to_string(i * 17) + ".txt");

    // --- The search: the region the DSspy recommendation targets. -------
    ds::ProfiledList<double> results(session, loc("CollectHits", 200));
    Stopwatch region;
    for (std::size_t t = 0; t < terms.count(); ++t) {
        const std::string& term = terms.get(t);
        for (std::size_t v = 0; v < kVolumes; ++v) {
            std::int64_t volume_hits = 0;
            for (std::size_t l = 0; l < volumes[v].count(); ++l) {
                if (volumes[v].get(l).find(term) != std::string::npos) {
                    results.add(hit_checksum(v, l, t));
                    ++volume_hits;
                }
            }
            match_counts.set(v, match_counts.get(v) + volume_hits);
        }
    }

    // Relevance scores for every hit (sequential array initialization —
    // the second flagged location).
    ds::ProfiledArray<double> scores(session, loc("ScoreHits", 210),
                                     results.count());
    for (std::size_t i = 0; i < results.count(); ++i)
        scores.set(i, results.get(i) * 0.5);
    result.parallelizable_ns = region.elapsed_ns();
    for (std::size_t i = 0; i < scores.length(); ++i)
        result.checksum += scores.get(i) * 1e-3;

    for (std::size_t i = 0; i < results.count(); ++i)
        result.checksum += results.get(i);
    for (std::size_t v = 0; v < kVolumes; ++v)
        result.checksum += static_cast<double>(match_counts.get(v));
    result.checksum += static_cast<double>(recent.count());

    result.total_ns = total.elapsed_ns();
    return result;
}

namespace {

/// The search with both recommendations applied; `regions` runs the
/// parallel regions.
template <typename Regions>
RunResult parallel_program(Regions& regions) {
    RunResult result;
    const std::vector<Document> docs = make_documents(
        kVolumes * kDocsPerVolume, kLinesPerDoc, 42, /*words_per_line=*/28);
    Stopwatch total;

    std::vector<ds::List<std::string>> volumes(kVolumes);
    for (std::size_t v = 0; v < kVolumes; ++v) {
        for (std::size_t d = 0; d < kDocsPerVolume; ++d) {
            const Document& doc = docs[v * kDocsPerVolume + d];
            for (const std::string& line : doc.lines)
                volumes[v].add(line);
        }
    }

    ds::List<std::string> terms;
    for (const std::string& term : search_terms()) terms.add(term);

    std::vector<std::int64_t> match_counts(kVolumes, 0);
    std::vector<ds::List<double>> per_volume_hits(kVolumes);

    // Recommended action: search the volumes in parallel.
    for (std::size_t t = 0; t < terms.count(); ++t) {
        const std::string& term = terms[t];
        regions(0, kVolumes, [&, t](std::size_t lo, std::size_t hi) {
            for (std::size_t v = lo; v < hi; ++v) {
                std::int64_t volume_hits = 0;
                for (std::size_t l = 0; l < volumes[v].count(); ++l) {
                    if (volumes[v][l].find(term) != std::string::npos) {
                        per_volume_hits[v].add(hit_checksum(v, l, t));
                        ++volume_hits;
                    }
                }
                match_counts[v] += volume_hits;
            }
        });
    }

    ds::List<double> results;
    for (std::size_t v = 0; v < kVolumes; ++v)
        for (std::size_t i = 0; i < per_volume_hits[v].count(); ++i)
            results.add(per_volume_hits[v][i]);

    // Parallel score initialization (second recommendation): a parallel
    // build, each score constructed at its final index.
    ds::List<double> scores(results.count());
    double* dest = scores.data();
    regions(0, results.count(),
            [dest, &results](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i)
                    std::construct_at(dest + i, results[i] * 0.5);
            });
    scores.set_count_after_parallel_build(results.count());
    for (std::size_t i = 0; i < scores.count(); ++i)
        result.checksum += scores[i] * 1e-3;

    for (std::size_t i = 0; i < results.count(); ++i)
        result.checksum += results[i];
    for (std::size_t v = 0; v < kVolumes; ++v)
        result.checksum += static_cast<double>(match_counts[v]);
    result.checksum += 12.0;  // recent-files list size (unchanged logic)

    result.total_ns = total.elapsed_ns();
    return result;
}

}  // namespace

RunResult run_astrogrep_parallel(par::ThreadPool& pool) {
    return run_on_pool(pool, parallel_program<par::PoolExecutor>);
}

SimulatedRunResult run_astrogrep_simulated(unsigned workers) {
    return run_on_simulator(workers, parallel_program<par::SimulationExecutor>);
}

}  // namespace dsspy::apps
