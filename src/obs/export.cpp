#include "obs/export.hpp"

#include <cctype>
#include <fstream>
#include <ostream>

#include "support/strings.hpp"

namespace dsspy::obs {

namespace {

using support::json_escape;

const char* kind_name(MetricKind kind) {
    switch (kind) {
        case MetricKind::Counter: return "counter";
        case MetricKind::Gauge: return "gauge";
        case MetricKind::Histogram: return "histogram";
    }
    return "unknown";
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; everything else maps to
/// '_'.  All dsspy metrics share the "dsspy_" prefix.
std::string prom_name(std::string_view name) {
    std::string out = "dsspy_";
    for (const char ch : name) {
        const bool ok = std::isalnum(static_cast<unsigned char>(ch)) != 0 ||
                        ch == '_' || ch == ':';
        out += ok ? ch : '_';
    }
    return out;
}

/// Prometheus label names allow [a-zA-Z_][a-zA-Z0-9_]* and nothing else
/// — and unlike values they have no escape syntax, so invalid characters
/// map to '_' (and a leading digit gets a '_' prefix).  Returns "" for an
/// empty input; the caller drops such labels entirely.
std::string prom_label_name(std::string_view name) {
    std::string out;
    out.reserve(name.size());
    for (const char ch : name) {
        const bool alpha = (ch >= 'a' && ch <= 'z') ||
                           (ch >= 'A' && ch <= 'Z') || ch == '_';
        const bool digit = ch >= '0' && ch <= '9';
        if (out.empty() && digit) out += '_';
        out += (alpha || digit) ? ch : '_';
    }
    return out;
}

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string prom_label_value(std::string_view value) {
    std::string out;
    for (const char ch : value) {
        if (ch == '\\' || ch == '"') {
            out += '\\';
            out += ch;
        } else if (ch == '\n') {
            out += "\\n";
        } else {
            out += ch;
        }
    }
    return out;
}

void write_overhead_json(std::ostream& os, const SelfOverhead& ov) {
    os << "  \"self_overhead\": {\n"
       << "    \"events\": " << ov.events << ",\n"
       << "    \"capture_wall_ns\": " << ov.capture_wall_ns << ",\n"
       << "    \"instrumented_ns_per_event\": "
       << ov.instrumented_ns_per_event << ",\n"
       << "    \"amortized_ns_per_event\": " << ov.amortized_ns_per_event
       << ",\n"
       << "    \"capture_cost_ns\": " << ov.capture_cost_ns << ",\n"
       << "    \"overhead_fraction\": " << ov.overhead_fraction << ",\n"
       << "    \"estimated_slowdown\": " << ov.estimated_slowdown << "\n"
       << "  }";
}

}  // namespace

void write_metrics_json(std::ostream& os,
                        const std::vector<MetricValue>& metrics,
                        const SelfOverhead* overhead) {
    os << "{\n  \"dsspy_metrics_version\": 1,\n  \"metrics\": [\n";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const MetricValue& mv = metrics[i];
        os << "    {\"name\": \"" << json_escape(mv.name) << "\", \"kind\": \""
           << kind_name(mv.kind) << "\"";
        if (mv.kind == MetricKind::Histogram) {
            os << ", \"count\": " << mv.count << ", \"sum\": " << mv.sum
               << ", \"buckets\": [";
            for (std::size_t b = 0; b < mv.buckets.size(); ++b)
                os << (b > 0 ? "," : "") << mv.buckets[b];
            os << "]";
        } else {
            os << ", \"value\": " << mv.value;
        }
        os << "}" << (i + 1 < metrics.size() ? "," : "") << "\n";
    }
    os << "  ]";
    if (overhead != nullptr) {
        os << ",\n";
        write_overhead_json(os, *overhead);
    }
    os << "\n}\n";
}

void write_metrics_prometheus(std::ostream& os,
                              const std::vector<MetricValue>& metrics,
                              const SelfOverhead* overhead) {
    for (const MetricValue& mv : metrics) {
        const std::string name = prom_name(mv.name);
        os << "# TYPE " << name << ' ' << kind_name(mv.kind) << '\n';
        if (mv.kind == MetricKind::Histogram) {
            std::uint64_t cumulative = 0;
            for (std::size_t b = 0; b < mv.buckets.size(); ++b) {
                cumulative += mv.buckets[b];
                // Skip interior empty prefixes?  No: Prometheus expects
                // the full cumulative series; emit only buckets up to the
                // last non-empty one to keep the exposition compact, then
                // +Inf which always carries the total.
                if (cumulative > 0 || b + 1 == mv.buckets.size())
                    os << name << "_bucket{le=\""
                       << MetricsRegistry::bucket_upper_bound(b) << "\"} "
                       << cumulative << '\n';
            }
            os << name << "_bucket{le=\"+Inf\"} " << mv.count << '\n'
               << name << "_sum " << mv.sum << '\n'
               << name << "_count " << mv.count << '\n';
        } else {
            os << name << ' ' << mv.value << '\n';
        }
    }
    if (overhead != nullptr) {
        os << "# TYPE dsspy_self_overhead_estimated_slowdown gauge\n"
           << "dsspy_self_overhead_estimated_slowdown "
           << overhead->estimated_slowdown << '\n'
           << "# TYPE dsspy_self_overhead_fraction gauge\n"
           << "dsspy_self_overhead_fraction " << overhead->overhead_fraction
           << '\n'
           << "# TYPE dsspy_self_overhead_amortized_ns_per_event gauge\n"
           << "dsspy_self_overhead_amortized_ns_per_event "
           << overhead->amortized_ns_per_event << '\n';
    }
}

void write_prometheus_sample(std::ostream& os, std::string_view name,
                             std::span<const PromLabel> labels,
                             std::uint64_t value) {
    os << prom_name(name);
    // Label names cannot be escaped (the exposition format has no escape
    // inside the name position), so anything outside
    // [a-zA-Z_][a-zA-Z0-9_]* is sanitized to '_' — a hostile label name
    // must not be able to break out of the brace block or smuggle a
    // second sample line into the exposition.
    bool wrote_label = false;
    for (const PromLabel& label : labels) {
        const std::string safe = prom_label_name(label.first);
        if (safe.empty()) continue;
        os << (wrote_label ? ',' : '{') << safe << "=\""
           << prom_label_value(label.second) << '"';
        wrote_label = true;
    }
    if (wrote_label) os << '}';
    os << ' ' << value << '\n';
}

bool write_metrics_json_file(const std::string& path,
                             const std::vector<MetricValue>& metrics,
                             const SelfOverhead* overhead) {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    write_metrics_json(out, metrics, overhead);
    out.flush();
    return static_cast<bool>(out);
}

}  // namespace dsspy::obs
