#include "obs/trace_export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <string_view>

#include "support/strings.hpp"

namespace dsspy::obs {

namespace {

using support::json_escape;

/// Microseconds with nanosecond resolution, as trace-event ts/dur want.
std::string us_fixed(std::uint64_t ns) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                  static_cast<unsigned>(ns % 1000));
    return buf;
}

std::uint64_t duration_ns(const SpanRecord& rec) {
    return rec.end_ns > rec.start_ns ? rec.end_ns - rec.start_ns : 0;
}

std::string ms_fixed(std::uint64_t ns) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
    return buf;
}

/// parent id -> children in start order, built once per tree walk.
using ChildIndex = std::map<SpanId, std::vector<const SpanRecord*>>;

ChildIndex build_child_index(const std::vector<SpanRecord>& spans) {
    ChildIndex index;
    for (const SpanRecord& rec : spans)
        if (rec.parent != 0) index[rec.parent].push_back(&rec);
    for (auto& [parent, kids] : index)
        std::sort(kids.begin(), kids.end(),
                  [](const SpanRecord* a, const SpanRecord* b) {
                      return a->start_ns != b->start_ns
                                 ? a->start_ns < b->start_ns
                                 : a->id < b->id;
                  });
    return index;
}

std::uint64_t critical_path_of(const ChildIndex& index,
                               const SpanRecord& node, int depth) {
    // Defensive depth cap: a malformed parent cycle must not recurse
    // forever (ids are unique, so >64 levels means corruption).
    if (depth > 64) return duration_ns(node);
    const auto it = index.find(node.id);
    if (it == index.end()) return duration_ns(node);
    const std::vector<const SpanRecord*>& kids = it->second;
    // Group time-overlapping children (a parallel fan-out renders as one
    // group); each group contributes its longest member's critical path,
    // and the parent contributes its time outside all children.
    std::uint64_t cp = duration_ns(node);
    std::size_t i = 0;
    while (i < kids.size()) {
        std::uint64_t group_start = kids[i]->start_ns;
        std::uint64_t group_end = kids[i]->end_ns;
        std::uint64_t group_cp = critical_path_of(index, *kids[i], depth + 1);
        std::size_t j = i + 1;
        while (j < kids.size() && kids[j]->start_ns < group_end) {
            group_end = std::max(group_end, kids[j]->end_ns);
            group_cp = std::max(group_cp,
                                critical_path_of(index, *kids[j], depth + 1));
            ++j;
        }
        const std::uint64_t group_union =
            group_end > group_start ? group_end - group_start : 0;
        // Swap the group's wall-clock footprint for its longest member.
        cp = cp > group_union ? cp - group_union : 0;
        cp += group_cp;
        i = j;
    }
    return cp;
}

}  // namespace

void write_trace_json(std::ostream& os,
                      const std::vector<SpanRecord>& spans) {
    std::uint64_t base_ns = ~std::uint64_t{0};
    std::set<std::uint32_t> threads;
    for (const SpanRecord& rec : spans) {
        base_ns = std::min(base_ns, rec.start_ns);
        threads.insert(rec.thread);
    }
    if (spans.empty()) base_ns = 0;
    os << "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
    bool first = true;
    // Thread-name metadata first, so every tid track is labeled.
    for (const std::uint32_t tid : threads) {
        if (!first) os << ",\n";
        first = false;
        os << "{\"ph\": \"M\", \"pid\": 1, \"tid\": " << tid
           << ", \"name\": \"thread_name\", \"args\": {\"name\": "
              "\"dsspy-thread-"
           << tid << "\"}}";
    }
    for (const SpanRecord& rec : spans) {
        if (!first) os << ",\n";
        first = false;
        os << "{\"ph\": \"X\", \"pid\": 1, \"tid\": " << rec.thread
           << ", \"name\": \"" << json_escape(rec.name) << "\", \"cat\": "
           << "\"dsspy\", \"ts\": " << us_fixed(rec.start_ns - base_ns)
           << ", \"dur\": " << us_fixed(duration_ns(rec))
           << ", \"args\": {\"id\": " << rec.id << ", \"parent\": "
           << rec.parent << ", \"root\": " << rec.root;
        if (!rec.annotations.empty())
            os << ", \"annotations\": \"" << json_escape(rec.annotations)
               << "\"";
        os << "}}";
    }
    os << "\n]\n}\n";
}

bool write_trace_json_file(const std::string& path,
                           const std::vector<SpanRecord>& spans) {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    write_trace_json(out, spans);
    out.flush();
    return static_cast<bool>(out);
}

std::vector<SpanRecord> spans_for_root(const std::vector<SpanRecord>& spans,
                                       SpanId root) {
    std::vector<SpanRecord> out;
    for (const SpanRecord& rec : spans)
        if (rec.root == root) out.push_back(rec);
    return out;
}

std::uint64_t critical_path_ns(const std::vector<SpanRecord>& spans,
                               SpanId root) {
    const ChildIndex index = build_child_index(spans);
    for (const SpanRecord& rec : spans)
        if (rec.id == root) return critical_path_of(index, rec, 0);
    return 0;
}

void write_trace_summary(std::ostream& os,
                         const std::vector<SpanRecord>& spans,
                         std::size_t top_n) {
    std::set<std::uint32_t> threads;
    for (const SpanRecord& rec : spans) threads.insert(rec.thread);
    os << "trace summary: " << spans.size() << " spans across "
       << threads.size() << " threads\n";
    if (spans.empty()) return;

    std::vector<const SpanRecord*> by_duration;
    by_duration.reserve(spans.size());
    for (const SpanRecord& rec : spans) by_duration.push_back(&rec);
    std::sort(by_duration.begin(), by_duration.end(),
              [](const SpanRecord* a, const SpanRecord* b) {
                  const std::uint64_t da = duration_ns(*a);
                  const std::uint64_t db = duration_ns(*b);
                  return da != db ? da > db : a->id < b->id;
              });
    os << "top spans by duration:\n";
    for (std::size_t i = 0; i < std::min(top_n, by_duration.size()); ++i) {
        const SpanRecord& rec = *by_duration[i];
        os << "  " << (i + 1) << ". " << rec.name << "  "
           << ms_fixed(duration_ns(rec)) << " ms  (span " << rec.id
           << ", thread " << rec.thread;
        if (!rec.annotations.empty()) os << ", " << rec.annotations;
        os << ")\n";
    }

    struct Aggregate {
        std::uint64_t count = 0;
        std::uint64_t total_ns = 0;
        std::uint64_t max_ns = 0;
    };
    std::map<std::string_view, Aggregate> by_name;
    for (const SpanRecord& rec : spans) {
        Aggregate& agg = by_name[rec.name];
        agg.count += 1;
        agg.total_ns += duration_ns(rec);
        agg.max_ns = std::max(agg.max_ns, duration_ns(rec));
    }
    os << "per-name aggregates (count, total ms, max ms):\n";
    for (const auto& [name, agg] : by_name)
        os << "  " << name << "  " << agg.count << "  "
           << ms_fixed(agg.total_ns) << "  " << ms_fixed(agg.max_ns)
           << "\n";

    os << "roots (wall ms, critical-path ms):\n";
    for (const SpanRecord& rec : spans) {
        if (rec.parent != 0 || rec.id != rec.root) continue;
        const std::uint64_t cp = critical_path_ns(spans, rec.id);
        os << "  " << rec.name << " (span " << rec.id << "): "
           << ms_fixed(duration_ns(rec)) << " ms wall, " << ms_fixed(cp)
           << " ms critical path";
        if (!rec.annotations.empty()) os << "  [" << rec.annotations << "]";
        os << "\n";
    }
}

}  // namespace dsspy::obs
