#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace perfbench {

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void Result::job(bool ok, const std::string& why) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
}

Digests::Digests(const std::string& path) {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream fields(line);
        std::string key, value;
        if (fields >> key >> value) values_[key] = value;
    }
}

std::string Digests::get(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? std::string{} : it->second;
}

std::string digest_hex(std::string_view bytes) {
    std::uint64_t hash = 1469598103934665603ull;
    for (const char ch : bytes) {
        hash ^= static_cast<unsigned char>(ch);
        hash *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double geomean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    double log_sum = 0.0;
    for (const double v : values) log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double mean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    double sum = 0.0;
    for (const double v : values) sum += v;
    return sum / static_cast<double>(values.size());
}

void reset_peak_rss() {
    // Writing 5 to clear_refs resets VmHWM to the current RSS (Linux).
    std::ofstream("/proc/self/clear_refs") << "5";
}

namespace {

double status_field_mb(const char* field) {
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::string prefix = std::string(field) + ":";
    while (std::getline(in, line)) {
        if (line.rfind(prefix, 0) != 0) continue;
        return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
    return 0.0;
}

}  // namespace

double peak_rss_mb() { return status_field_mb("VmHWM"); }
double current_rss_mb() { return status_field_mb("VmRSS"); }

double timed_setup(const std::function<void()>& setup) {
    std::vector<double> seconds;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const std::uint64_t start = now_ns();
        setup();
        seconds.push_back(static_cast<double>(now_ns() - start) / 1e9);
    }
    return median(seconds);
}

bool keep_measuring(std::uint64_t start_ns, double seconds, std::size_t jobs,
                    std::size_t min_jobs) {
    const double elapsed = static_cast<double>(now_ns() - start_ns) / 1e9;
    if (elapsed >= kMaxMeasureSeconds) return false;
    return elapsed < seconds || jobs < min_jobs;
}

std::uint64_t next_random(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t& rng) {
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[next_random(rng) % i]);
    return order;
}

int SpanLog::open(std::string name) {
    Record r;
    r.name = std::move(name);
    r.job = job_;
    r.parent = open_.empty() ? -1 : open_.back();
    r.start_ns = now_ns();
    records_.push_back(std::move(r));
    const int index = static_cast<int>(records_.size() - 1);
    open_.push_back(index);
    return index;
}

void SpanLog::close(int index) {
    records_[static_cast<std::size_t>(index)].end_ns = now_ns();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
}

bool SpanLog::write_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
    bool first = true;
    for (const Record& r : records_) {
        out << (first ? "" : ",") << "\n{\"name\":\"" << r.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.job
            << ",\"ts\":" << static_cast<double>(r.start_ns) / 1e3
            << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) / 1e3
            << ",\"args\":{\"parent\":" << r.parent << "}}";
        first = false;
    }
    out << "\n]}\n";
    return static_cast<bool>(out.flush());
}

double Span::stop() {
    if (ms_ >= 0.0) return ms_;
    ms_ = static_cast<double>(now_ns() - start_ns_) / 1e6;
    if (log_ != nullptr) log_->close(index_);
    return ms_;
}

std::string metric_suffix(const std::string& app_name) {
    std::string s = app_name;
    std::replace(s.begin(), s.end(), ' ', '_');
    return s;
}

}  // namespace perfbench
