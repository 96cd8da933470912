#include "viz/ascii_chart.hpp"

#include <algorithm>
#include <vector>

#include "core/access_type.hpp"

namespace dsspy::viz {

namespace {

char mark_for(core::AccessType type) noexcept {
    using core::AccessType;
    switch (type) {
        case AccessType::Read: return 'R';
        case AccessType::Write: return 'W';
        case AccessType::Insert: return 'I';
        case AccessType::Delete: return 'D';
        case AccessType::Search: return 'S';
        case AccessType::Clear: return 'C';
        case AccessType::Sort: return 'O';
        case AccessType::Reverse: return 'V';
        case AccessType::Copy: return 'Y';
        case AccessType::ForAll: return 'A';
        case AccessType::Count: break;
    }
    return '?';
}

/// One downsampled column of the chart.
struct Column {
    std::int64_t position = -1;  // representative access position
    std::size_t size = 0;        // container size at that point
    char mark = ' ';
};

std::vector<Column> downsample(const runtime::ColumnStore& columns,
                               runtime::ColumnRange range,
                               std::size_t max_width) {
    std::vector<Column> cols;
    if (range.empty() || max_width == 0) return cols;
    const std::size_t n = range.size();
    const std::size_t width = std::min(max_width, n);
    cols.resize(width);
    for (std::size_t c = 0; c < width; ++c) {
        // Representative event: first event of the column's bucket.
        const runtime::AccessEvent ev =
            columns.row(range.begin + c * n / width);
        cols[c].position = ev.position;
        cols[c].size = ev.size;
        cols[c].mark = mark_for(core::derive_access_type(ev.op));
    }
    return cols;
}

std::size_t scale(std::size_t value, std::size_t max_value,
                  std::size_t rows) noexcept {
    if (max_value == 0 || rows == 0) return 0;
    const std::size_t scaled = value * (rows - 1) / max_value;
    return std::min(scaled, rows - 1);
}

std::string legend() {
    return "legend: R=read W=write I=insert D=delete S=search C=clear "
           "O=sort  .=container size\n";
}

std::string render(const runtime::ColumnStore& columns,
                   const runtime::InstanceInfo& info,
                   const ChartOptions& options, bool bars) {
    const runtime::ColumnRange range = columns.range(info.id);
    const std::vector<Column> cols =
        downsample(columns, range, options.max_width);
    std::string out;
    if (cols.empty()) return "(empty profile)\n";

    std::size_t max_value = 1;
    for (const Column& col : cols) {
        max_value = std::max(max_value, col.size);
        if (col.position > 0)
            max_value =
                std::max(max_value, static_cast<std::size_t>(col.position));
    }

    const std::size_t rows = std::min(options.max_height, max_value + 1);
    std::vector<std::string> grid(rows, std::string(cols.size(), ' '));

    for (std::size_t c = 0; c < cols.size(); ++c) {
        const Column& col = cols[c];
        // Size line in the background.
        if (col.size > 0) {
            const std::size_t sr = scale(col.size, max_value, rows);
            grid[sr][c] = '.';
        }
        if (col.position >= 0) {
            const std::size_t pr = scale(
                static_cast<std::size_t>(col.position), max_value, rows);
            if (bars) {
                for (std::size_t r = 0; r < pr; ++r) grid[r][c] = ':';
            }
            grid[pr][c] = col.mark;
        }
    }

    // Print top row first (highest position).
    for (std::size_t r = rows; r-- > 0;) {
        out += grid[r];
        out += '\n';
    }
    out += std::string(cols.size(), '-');
    out += "> time (";
    out += std::to_string(range.size());
    out += " events, max size ";
    out += std::to_string(*std::max_element(columns.sizes() + range.begin,
                                            columns.sizes() + range.end));
    out += ")\n";
    if (options.show_legend) out += legend();
    return out;
}

}  // namespace

std::string render_profile_bars(const runtime::ColumnStore& columns,
                                const runtime::InstanceInfo& info,
                                const ChartOptions& options) {
    return render(columns, info, options, /*bars=*/true);
}

std::string render_profile_scatter(const runtime::ColumnStore& columns,
                                   const runtime::InstanceInfo& info,
                                   const ChartOptions& options) {
    return render(columns, info, options, /*bars=*/false);
}

void print_profile(std::ostream& os, const runtime::ColumnStore& columns,
                   const runtime::InstanceInfo& info,
                   const ChartOptions& options) {
    os << "Runtime profile of " << info.type_name << " @ "
       << info.location.to_string() << '\n'
       << render_profile_scatter(columns, info, options);
}

}  // namespace dsspy::viz
