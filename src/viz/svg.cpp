#include "viz/svg.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "core/access_type.hpp"

namespace dsspy::viz {

namespace {

std::string num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return buf;
}

std::string_view color_for(core::AccessType type) noexcept {
    using core::AccessType;
    switch (type) {
        case AccessType::Read: return "#2e9e4f";     // green (paper)
        case AccessType::Search: return "#1f77b4";   // blue
        case AccessType::ForAll: return "#66c2a5";   // light green
        case AccessType::Write: return "#d62728";    // red (paper)
        case AccessType::Insert: return "#d62728";
        case AccessType::Delete: return "#ff7f0e";   // orange
        default: return "#7f7f7f";
    }
}

}  // namespace

SvgWriter::SvgWriter(double width, double height)
    : width_(width), height_(height) {
    body_ = "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" +
            num(width_) + "\" height=\"" + num(height_) +
            "\" viewBox=\"0 0 " + num(width_) + " " + num(height_) + "\">\n";
    body_ += "<rect x=\"0\" y=\"0\" width=\"" + num(width_) +
             "\" height=\"" + num(height_) + "\" fill=\"#ffffff\"/>\n";
}

void SvgWriter::rect(double x, double y, double w, double h,
                     std::string_view fill, double opacity) {
    body_ += "<rect x=\"" + num(x) + "\" y=\"" + num(y) + "\" width=\"" +
             num(w) + "\" height=\"" + num(h) + "\" fill=\"" +
             std::string(fill) + "\" opacity=\"" + num(opacity) + "\"/>\n";
}

void SvgWriter::line(double x1, double y1, double x2, double y2,
                     std::string_view stroke, double stroke_width) {
    body_ += "<line x1=\"" + num(x1) + "\" y1=\"" + num(y1) + "\" x2=\"" +
             num(x2) + "\" y2=\"" + num(y2) + "\" stroke=\"" +
             std::string(stroke) + "\" stroke-width=\"" + num(stroke_width) +
             "\"/>\n";
}

void SvgWriter::text(double x, double y, std::string_view content,
                     double font_size, std::string_view fill) {
    body_ += "<text x=\"" + num(x) + "\" y=\"" + num(y) +
             "\" font-family=\"sans-serif\" font-size=\"" + num(font_size) +
             "\" fill=\"" + std::string(fill) + "\">" +
             std::string(content) + "</text>\n";
}

void SvgWriter::circle(double cx, double cy, double r,
                       std::string_view fill) {
    body_ += "<circle cx=\"" + num(cx) + "\" cy=\"" + num(cy) + "\" r=\"" +
             num(r) + "\" fill=\"" + std::string(fill) + "\"/>\n";
}

void SvgWriter::raw(std::string_view markup) { body_ += markup; }

std::string SvgWriter::finish() {
    if (!finished_) {
        body_ += "</svg>\n";
        finished_ = true;
    }
    return body_;
}

std::string profile_to_svg(const runtime::ColumnStore& columns,
                           const runtime::InstanceInfo& info,
                           std::size_t max_columns) {
    const runtime::ColumnRange range = columns.range(info.id);
    const std::size_t n = range.size();
    const std::size_t cols = std::min(max_columns, n == 0 ? 1 : n);

    constexpr double kMarginLeft = 40.0;
    constexpr double kMarginBottom = 30.0;
    constexpr double kMarginTop = 24.0;
    constexpr double kPlotHeight = 220.0;
    const double col_width = std::max(1.5, 720.0 / static_cast<double>(cols));
    const double plot_width = col_width * static_cast<double>(cols);

    SvgWriter svg(kMarginLeft + plot_width + 10.0,
                  kMarginTop + kPlotHeight + kMarginBottom);

    std::size_t max_value = 1;
    for (std::size_t row = range.begin; row < range.end; ++row) {
        max_value = std::max<std::size_t>(max_value, columns.sizes()[row]);
        if (columns.position()[row] > 0)
            max_value = std::max(
                max_value, static_cast<std::size_t>(columns.position()[row]));
    }

    auto y_of = [&](double value) {
        return kMarginTop +
               kPlotHeight * (1.0 - value / static_cast<double>(max_value));
    };

    svg.text(kMarginLeft, 14.0,
             info.type_name + " @ " + info.location.to_string(), 11.0);

    for (std::size_t c = 0; c < cols && n > 0; ++c) {
        const runtime::AccessEvent ev =
            columns.row(range.begin + c * n / cols);
        const double x = kMarginLeft + static_cast<double>(c) * col_width;

        // Grey background bar: container size at this access.
        if (ev.size > 0) {
            const double top = y_of(static_cast<double>(ev.size));
            svg.rect(x, top, col_width, kMarginTop + kPlotHeight - top,
                     "#cccccc", 0.5);
        }
        // Colored bar: accessed index.
        if (ev.position >= 0) {
            const double top = y_of(static_cast<double>(ev.position));
            const core::AccessType type = core::derive_access_type(ev.op);
            svg.rect(x, top, std::max(1.0, col_width - 0.5),
                     kMarginTop + kPlotHeight - top, color_for(type), 0.9);
        }
    }

    // Axes.
    svg.line(kMarginLeft, kMarginTop, kMarginLeft, kMarginTop + kPlotHeight,
             "#333333");
    svg.line(kMarginLeft, kMarginTop + kPlotHeight,
             kMarginLeft + plot_width, kMarginTop + kPlotHeight, "#333333");
    svg.text(4.0, kMarginTop + 8.0, std::to_string(max_value), 9.0);
    svg.text(4.0, kMarginTop + kPlotHeight, "0", 9.0);
    svg.text(kMarginLeft, kMarginTop + kPlotHeight + 16.0,
             "time (" + std::to_string(n) + " access events)", 9.0);
    return svg.finish();
}

std::string stacked_bars_to_svg(const std::vector<StackedBar>& bars,
                                const std::vector<std::string>& series_names) {
    static constexpr std::string_view kSeriesColors[] = {
        "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
        "#9467bd", "#8c564b", "#7f7f7f", "#bcbd22",
    };
    constexpr double kMarginLeft = 48.0;
    constexpr double kMarginBottom = 110.0;
    constexpr double kMarginTop = 30.0;
    constexpr double kPlotHeight = 260.0;
    const double bar_width = 16.0;
    const double gap = 4.0;
    const double plot_width =
        static_cast<double>(bars.size()) * (bar_width + gap) + gap;

    double max_total = 1.0;
    for (const StackedBar& bar : bars) {
        double total = 0.0;
        for (const double v : bar.segments) total += v;
        max_total = std::max(max_total, total);
    }

    SvgWriter svg(kMarginLeft + plot_width + 160.0,
                  kMarginTop + kPlotHeight + kMarginBottom);

    for (std::size_t b = 0; b < bars.size(); ++b) {
        const double x =
            kMarginLeft + gap + static_cast<double>(b) * (bar_width + gap);
        double y = kMarginTop + kPlotHeight;
        for (std::size_t s = 0; s < bars[b].segments.size(); ++s) {
            const double value = bars[b].segments[s];
            if (value <= 0.0) continue;
            const double h = kPlotHeight * value / max_total;
            y -= h;
            svg.rect(x, y, bar_width, h,
                     kSeriesColors[s % std::size(kSeriesColors)], 0.95);
        }
        // Vertical x label (rotated around the bar's baseline).
        const double lx = x + bar_width / 2.0;
        const double ly = kMarginTop + kPlotHeight + 6.0;
        svg.raw("<text x=\"" + num(lx) + "\" y=\"" + num(ly) +
                "\" font-family=\"sans-serif\" font-size=\"8\" "
                "fill=\"#333\" transform=\"rotate(60 " + num(lx) + " " +
                num(ly) + ")\">" + bars[b].label + "</text>\n");
    }

    // Axes + legend.
    svg.line(kMarginLeft, kMarginTop, kMarginLeft,
             kMarginTop + kPlotHeight, "#333");
    svg.line(kMarginLeft, kMarginTop + kPlotHeight,
             kMarginLeft + plot_width, kMarginTop + kPlotHeight, "#333");
    svg.text(4.0, kMarginTop + 8.0, num(max_total), 9.0);
    svg.text(4.0, kMarginTop + kPlotHeight, "0", 9.0);
    for (std::size_t s = 0; s < series_names.size(); ++s) {
        const double ly = kMarginTop + 14.0 * static_cast<double>(s);
        svg.rect(kMarginLeft + plot_width + 12.0, ly, 10.0, 10.0,
                 kSeriesColors[s % std::size(kSeriesColors)]);
        svg.text(kMarginLeft + plot_width + 28.0, ly + 9.0,
                 series_names[s], 9.0);
    }
    return svg.finish();
}

bool write_file(const std::string& path, std::string_view content) {
    std::ofstream out(path, std::ios::binary);
    if (!out) return false;
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    return static_cast<bool>(out);
}

}  // namespace dsspy::viz
