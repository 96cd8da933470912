#include "apps/contentfinder.hpp"

#include <string>

#include "apps/text_corpus.hpp"
#include "ds/ds.hpp"
#include "support/stopwatch.hpp"
#include "support/strings.hpp"

namespace dsspy::apps {

namespace {

using support::SourceLoc;
using support::Stopwatch;

constexpr std::size_t kFiles = 6;
constexpr std::size_t kLinesPerFile = 160;

const std::vector<std::string>& keywords() {
    static const std::vector<std::string> kw = {"data", "parallel", "cache",
                                                "zenith"};
    return kw;
}

SourceLoc loc(const char* method, std::uint32_t position) {
    return SourceLoc{"Contentfinder.Search", method, position};
}

double hit_value(std::size_t file, std::size_t token_index,
                 std::size_t keyword) {
    return static_cast<double>(file * 10007 + token_index * 3 + keyword);
}

/// Tokenize documents into per-file token lists (sequential in both
/// variants; reading/tokenizing a file does not parallelize here).
template <typename TokenList>
std::size_t load_tokens(std::vector<TokenList>& files,
                        const std::vector<Document>& docs) {
    std::size_t total_tokens = 0;
    for (std::size_t f = 0; f < files.size(); ++f) {
        for (std::size_t d = f; d < docs.size(); d += files.size()) {
            for (const std::string& line : docs[d].lines) {
                for (std::string& token : support::tokenize(line)) {
                    files[f].add(std::move(token));
                    ++total_tokens;
                }
            }
        }
    }
    return total_tokens;
}

}  // namespace

RunResult run_contentfinder(runtime::ProfilingSession* session) {
    RunResult result;
    // Input files are environment, not runtime.
    const std::vector<Document> docs =
        make_documents(kFiles, kLinesPerFile, 99);
    Stopwatch total;

    // 6 per-file token lists.
    std::vector<ds::ProfiledList<std::string>> files;
    files.reserve(kFiles);
    for (std::size_t f = 0; f < kFiles; ++f)
        files.emplace_back(session,
                           loc("Tokenize", static_cast<std::uint32_t>(f)));
    load_tokens(files, docs);

    // Keyword list, stop-word list, configuration list.
    ds::ProfiledList<std::string> query(session, loc("ParseQuery", 20));
    for (const std::string& kw : keywords()) query.add(kw);
    ds::ProfiledList<std::string> stopwords(session, loc("LoadStopwords", 30));
    for (const char* w : {"the", "of", "and", "to", "in"}) stopwords.add(w);
    ds::ProfiledList<std::string> config(session, loc("LoadConfig", 40));
    config.add("case_sensitive=false");
    config.add("max_results=100000");

    // --- The keyword search (recommendation target). --------------------
    ds::ProfiledList<double> results(session, loc("FindMatches", 50));
    Stopwatch region;
    for (std::size_t k = 0; k < query.count(); ++k) {
        const std::string& keyword = query.get(k);
        for (std::size_t f = 0; f < kFiles; ++f) {
            for (std::size_t t = 0; t < files[f].count(); ++t) {
                if (files[f].get(t) == keyword)
                    results.add(hit_value(f, t, k));
            }
        }
    }
    result.parallelizable_ns = region.elapsed_ns();

    // Hit-offset array, initialized sequentially (second flagged location).
    ds::ProfiledArray<std::int64_t> offsets(session, loc("BuildOffsets", 60),
                                            results.count());
    for (std::size_t i = 0; i < offsets.length(); ++i)
        offsets.set(i, static_cast<std::int64_t>(results.get(i)) % 4096);

    // Sequential ranking pass.
    double rank = 0.0;
    for (std::size_t i = 0; i < offsets.length(); ++i)
        rank += static_cast<double>(offsets.get(i)) * 1e-4;

    result.checksum = rank + static_cast<double>(results.count()) +
                      static_cast<double>(stopwords.count() + config.count());
    result.total_ns = total.elapsed_ns();
    return result;
}

namespace {

/// The search with both recommendations applied; `regions` runs the
/// parallel regions.
template <typename Regions>
RunResult parallel_program(Regions& regions) {
    RunResult result;
    const std::vector<Document> docs =
        make_documents(kFiles, kLinesPerFile, 99);
    Stopwatch total;

    std::vector<ds::List<std::string>> files(kFiles);
    load_tokens(files, docs);

    ds::List<std::string> query;
    for (const std::string& kw : keywords()) query.add(kw);

    // Recommended action: search the files in parallel per keyword.
    std::vector<ds::List<double>> per_file_hits(kFiles);
    for (std::size_t k = 0; k < query.count(); ++k) {
        const std::string& keyword = query[k];
        regions(0, kFiles, [&, k](std::size_t lo, std::size_t hi) {
            for (std::size_t f = lo; f < hi; ++f) {
                for (std::size_t t = 0; t < files[f].count(); ++t) {
                    if (files[f][t] == keyword)
                        per_file_hits[f].add(hit_value(f, t, k));
                }
            }
        });
    }

    ds::List<double> results;
    for (std::size_t f = 0; f < kFiles; ++f)
        for (std::size_t i = 0; i < per_file_hits[f].count(); ++i)
            results.add(per_file_hits[f][i]);

    std::vector<std::int64_t> offsets(results.count());
    regions(0, results.count(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            offsets[i] = static_cast<std::int64_t>(results[i]) % 4096;
    });

    double rank = 0.0;
    for (std::size_t i = 0; i < offsets.size(); ++i)
        rank += static_cast<double>(offsets[i]) * 1e-4;

    result.checksum = rank + static_cast<double>(results.count()) + 7.0;
    result.total_ns = total.elapsed_ns();
    return result;
}

}  // namespace

RunResult run_contentfinder_parallel(par::ThreadPool& pool) {
    return run_on_pool(pool, parallel_program<par::PoolExecutor>);
}

SimulatedRunResult run_contentfinder_simulated(unsigned workers) {
    return run_on_simulator(workers, parallel_program<par::SimulationExecutor>);
}

}  // namespace dsspy::apps
