// Shared plumbing of the repository benchmark: options, timing, the
// benchmark-side span log, statistics, digests and the result record.
//
// Nothing here reaches into the library: the workloads call the DSspy
// modules through their public headers and wrap each call in a Span.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Command-line options shared by every workload.
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;         ///< Traced run: per-layer metrics.
    std::string workdir;        ///< Scratch files (the generated trace).
    std::string digests_path;   ///< Committed expected digests.
    std::string commit;         ///< Source revision (provenance only).
};

/// Seed the benchmark treats as the default: the committed trace digest
/// is checked only on this seed.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Timed jobs needed so that ten samples lie beyond the 90th percentile.
inline constexpr std::size_t kMinJobs = 100;

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 3;

/// No run may measure longer than this, whatever --seconds and kMinJobs
/// ask, so every run exits well inside its time limit.
inline constexpr double kMaxMeasureSeconds = 120.0;

[[nodiscard]] std::uint64_t now_ns();

/// One reported metric.  `samples` is how many measurements the value
/// summarizes (provenance, printed in the detail line only).
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 1;
};

/// Everything one run reports.
struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;  ///< First few failure reasons.
    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit,
             std::size_t samples = 1) {
        metrics.push_back({std::move(name), value, std::move(unit), samples});
    }
    /// Count one job; a failed job records why.
    void job(bool ok, const std::string& why);
};

/// Committed digests (digests.txt): "<key> <hex>" per line.
class Digests {
public:
    explicit Digests(const std::string& path);
    /// Empty when the key is not committed.
    [[nodiscard]] std::string get(const std::string& key) const;

private:
    std::map<std::string, std::string> values_;
};

/// 64-bit FNV-1a, as 16 hex digits.
[[nodiscard]] std::string digest_hex(std::string_view bytes);

// --- statistics ------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
    return quantile(std::move(values), 0.5);
}
[[nodiscard]] double geomean(const std::vector<double>& values);
[[nodiscard]] double mean(const std::vector<double>& values);

// --- memory ----------------------------------------------------------------

/// Reset the kernel's peak-RSS mark (VmHWM) to the current RSS.
void reset_peak_rss();
/// VmHWM / VmRSS of this process, in MiB.
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double current_rss_mb();

// --- set-up and the measurement loop -----------------------------------------

/// Run `setup` kSetupReps times; returns the median wall time in seconds.
[[nodiscard]] double timed_setup(const std::function<void()>& setup);

/// True while a run should keep measuring: until `seconds` have passed
/// since `start_ns` and at least `min_jobs` jobs ran, bounded by
/// kMaxMeasureSeconds.
[[nodiscard]] bool keep_measuring(std::uint64_t start_ns, double seconds,
                                  std::size_t jobs,
                                  std::size_t min_jobs = kMinJobs);

/// Fisher-Yates shuffle of 0..n-1 driven by `rng` state.
[[nodiscard]] std::vector<std::size_t> seeded_order(std::size_t n,
                                                    std::uint64_t& rng);
/// splitmix64 step.
[[nodiscard]] std::uint64_t next_random(std::uint64_t& state);

// --- benchmark-side spans --------------------------------------------------

/// Closed spans of a traced run, kept in memory and written at the end.
/// Spans of one job share its id; `parent` is the index of the enclosing
/// span or -1.
class SpanLog {
public:
    struct Record {
        std::string name;
        std::uint64_t job = 0;
        int parent = -1;
        std::uint64_t start_ns = 0;
        std::uint64_t end_ns = 0;
    };

    /// Open a span under the innermost open one; returns its index.
    int open(std::string name);
    void close(int index);
    void begin_job(std::uint64_t job) { job_ = job; }
    /// Write the spans as Chrome trace-event JSON; false on I/O failure.
    bool write_json(const std::string& path) const;

private:
    std::vector<Record> records_;
    std::vector<int> open_;
    std::uint64_t job_ = 0;
};

/// RAII span around one layer call; a null log records nothing.
class Span {
public:
    Span(SpanLog* log, std::string name)
        : log_(log), index_(log ? log->open(std::move(name)) : -1),
          start_ns_(now_ns()) {}
    ~Span() { stop(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Close early; returns the span's duration in ms.
    double stop();

private:
    SpanLog* log_;
    int index_;
    std::uint64_t start_ns_;
    double ms_ = -1.0;
};

// --- workloads -------------------------------------------------------------

Result run_apps_live(const Options& options);
Result run_trace_offline(const Options& options);
Result run_parallel_exec(const Options& options);
Result run_adaptive_shared(const Options& options);

/// Per-app metric suffix: the app name with spaces replaced by '_'.
[[nodiscard]] std::string metric_suffix(const std::string& app_name);

}  // namespace perfbench
