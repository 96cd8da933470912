#include "apps/wordwheel.hpp"

#include <array>
#include <mutex>
#include <string>

#include "apps/text_corpus.hpp"
#include "ds/ds.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace dsspy::apps {

namespace {

using support::Rng;
using support::SourceLoc;
using support::Stopwatch;

constexpr std::size_t kWords = 9000;
constexpr std::size_t kWheels = 25;
constexpr std::size_t kWheelLetters = 9;

SourceLoc loc(const char* method, std::uint32_t position) {
    return SourceLoc{"WordWheel.Solver", method, position};
}

std::array<int, 26> letter_counts(const std::string& s) {
    std::array<int, 26> counts{};
    for (char ch : s) {
        if (ch >= 'a' && ch <= 'z') ++counts[static_cast<std::size_t>(ch - 'a')];
    }
    return counts;
}

/// Can `word` be built from the wheel letters, using the center letter?
bool solves(const std::array<int, 26>& wheel, char center,
            const std::string& word) {
    if (word.size() < 3 || word.find(center) == std::string::npos)
        return false;
    std::array<int, 26> need = letter_counts(word);
    for (std::size_t i = 0; i < 26; ++i)
        if (need[i] > wheel[i]) return false;
    return true;
}

std::string make_wheel(Rng& rng) {
    static constexpr char kLetters[] = "eeeaaiionnrrttlssudgcmhpby";
    std::string wheel;
    for (std::size_t i = 0; i < kWheelLetters; ++i)
        wheel += kLetters[rng.next_below(sizeof(kLetters) - 1)];
    return wheel;
}

}  // namespace

RunResult run_wordwheel(runtime::ProfilingSession* session) {
    RunResult result;
    Stopwatch total;
    Rng rng(4242);

    // The word list (scanned in full for every wheel).
    ds::ProfiledList<std::string> words(session, loc("LoadWordList", 10),
                                        kWords);
    for (std::string& w : make_word_list(kWords)) words.add(std::move(w));

    // The wheel letter buffer, the solved-wheel log, the length histogram.
    ds::ProfiledArray<char> wheel_letters(session, loc("SetWheel", 20),
                                          kWheelLetters);
    ds::ProfiledList<std::string> solved(session, loc("LogWheel", 30));
    ds::ProfiledArray<std::int64_t> length_histogram(
        session, loc("TallyLengths", 40), 10);

    // Solutions across all wheels (Long-Insert).
    ds::ProfiledList<double> solutions(session, loc("CollectSolutions", 50));

    std::uint64_t parallelizable = 0;
    for (std::size_t round = 0; round < kWheels; ++round) {
        const std::string wheel = make_wheel(rng);
        for (std::size_t i = 0; i < kWheelLetters; ++i)
            wheel_letters.set(i, wheel[i]);
        const std::array<int, 26> counts = letter_counts(wheel);
        const char center = wheel[0];

        Stopwatch region;
        for (std::size_t w = 0; w < words.count(); ++w) {
            const std::string& word = words.get(w);
            if (solves(counts, center, word)) {
                solutions.add(static_cast<double>(w));
                length_histogram.set(
                    word.size() % 10,
                    length_histogram.get(word.size() % 10) + 1);
            }
        }
        parallelizable += region.elapsed_ns();
        solved.add(wheel);
    }

    for (std::size_t i = 0; i < 10; ++i)
        result.checksum +=
            static_cast<double>(length_histogram.get((i * 7) % 10));
    result.checksum += static_cast<double>(solutions.count()) +
                       static_cast<double>(solved.count());
    result.total_ns = total.elapsed_ns();
    result.parallelizable_ns = parallelizable;
    return result;
}

namespace {

/// The solver with the word-list scan split into chunks; `regions` runs the
/// parallel regions.
template <typename Regions>
RunResult parallel_program(Regions& regions) {
    RunResult result;
    Stopwatch total;
    Rng rng(4242);

    ds::List<std::string> words(kWords);
    for (std::string& w : make_word_list(kWords)) words.add(std::move(w));

    ds::Array<char> wheel_letters(kWheelLetters);
    ds::List<std::string> solved;
    std::array<std::int64_t, 10> length_histogram{};

    std::size_t total_solutions = 0;
    for (std::size_t round = 0; round < kWheels; ++round) {
        const std::string wheel = make_wheel(rng);
        for (std::size_t i = 0; i < kWheelLetters; ++i)
            wheel_letters.set(i, wheel[i]);
        const std::array<int, 26> counts = letter_counts(wheel);
        const char center = wheel[0];

        // Recommended action: split the list into chunks searched in
        // parallel; merge per-chunk tallies afterwards.
        std::mutex merge_mutex;
        regions(0, words.count(), [&](std::size_t lo, std::size_t hi) {
            std::size_t local_solutions = 0;
            std::array<std::int64_t, 10> local_hist{};
            for (std::size_t w = lo; w < hi; ++w) {
                const std::string& word = words[w];
                if (solves(counts, center, word)) {
                    ++local_solutions;
                    ++local_hist[word.size() % 10];
                }
            }
            std::scoped_lock lock(merge_mutex);
            total_solutions += local_solutions;
            for (std::size_t i = 0; i < 10; ++i)
                length_histogram[i] += local_hist[i];
        });
        solved.add(wheel);
    }

    for (std::size_t i = 0; i < 10; ++i)
        result.checksum += static_cast<double>(length_histogram[(i * 7) % 10]);
    result.checksum += static_cast<double>(total_solutions) +
                       static_cast<double>(solved.count());
    result.total_ns = total.elapsed_ns();
    return result;
}

}  // namespace

RunResult run_wordwheel_parallel(par::ThreadPool& pool) {
    return run_on_pool(pool, parallel_program<par::PoolExecutor>);
}

SimulatedRunResult run_wordwheel_simulated(unsigned workers) {
    return run_on_simulator(workers, parallel_program<par::SimulationExecutor>);
}

}  // namespace dsspy::apps
