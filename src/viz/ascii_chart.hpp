// ASCII rendering of runtime profiles (Figures 2 and 3 of the paper).
//
// "Visualizing data structure accesses facilitates their analysis": the
// x-axis is the chronological event order, the y-axis the accessed index;
// the container size is drawn behind the access marks.  Event types are
// encoded as characters:
//   R read    W write    I insert    D delete    S search
//   and '.' marks the container-size line.
// An instance's runtime profile is its row range in a ColumnStore (a
// post-mortem result's AnalysisResult::columns()).
#pragma once

#include <ostream>
#include <string>

#include "runtime/column_store.hpp"
#include "runtime/instance_registry.hpp"

namespace dsspy::viz {

/// Rendering options.
struct ChartOptions {
    std::size_t max_width = 100;   ///< Columns; events are downsampled to fit.
    std::size_t max_height = 20;   ///< Rows; positions are scaled to fit.
    bool show_legend = true;
};

/// Figure-2 style bar chart: one column per access event, bar height equal
/// to the accessed index, size line in the background.
[[nodiscard]] std::string render_profile_bars(
    const runtime::ColumnStore& columns, const runtime::InstanceInfo& info,
    const ChartOptions& options = {});

/// Figure-3 style scatter/line chart: access positions over time as single
/// marks (not bars) — better for long profiles with overlapping patterns.
[[nodiscard]] std::string render_profile_scatter(
    const runtime::ColumnStore& columns, const runtime::InstanceInfo& info,
    const ChartOptions& options = {});

/// Convenience: render scatter to a stream with a heading.
void print_profile(std::ostream& os, const runtime::ColumnStore& columns,
                   const runtime::InstanceInfo& info,
                   const ChartOptions& options = {});

}  // namespace dsspy::viz
