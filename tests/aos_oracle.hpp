// Test-only oracle: the per-event (array-of-structs) analysis engine.
//
// The post-mortem engine (core::Dsspy::analyze) scans each instance's
// column range with vectorized kernels and bulk streak scans.  This oracle
// derives the same verdicts the plain way, one whole AccessEvent at a
// time: per-event profile aggregates, every event stepped through the
// pattern machine, per-event stats.  The differential suites and
// bench/analysis_scaling (its identity gate and its aos_sequential
// baseline) hold the engine to it; nothing in src/ links it.  It reads
// events only through runtime::for_each_event, and events_of() is how
// tests and benches read whole events out of a store or a loaded trace.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/analysis_result.hpp"
#include "core/column_analysis.hpp"
#include "core/detector_config.hpp"
#include "core/instance_stats.hpp"
#include "core/patterns.hpp"
#include "runtime/access_event.hpp"
#include "runtime/instance_registry.hpp"
#include "runtime/profile_store.hpp"
#include "runtime/trace_mmap.hpp"

namespace dsspy::oracle {

/// One instance's events in `seq` order, every field set (empty if none
/// were recorded).
[[nodiscard]] std::vector<runtime::AccessEvent> events_of(
    const runtime::ProfileStore& store, runtime::InstanceId id);

/// The same for a loaded trace (its `seq` column must still be held).
[[nodiscard]] std::vector<runtime::AccessEvent> events_of(
    const runtime::ColumnTrace& trace, runtime::InstanceId id);

/// Every instance's events, indexed by instance id.
using EventsById = std::vector<std::vector<runtime::AccessEvent>>;
[[nodiscard]] EventsById events_by_id(const runtime::ProfileStore& store);

/// Aggregates of one instance's profile: event count, per-access-type
/// counts, phases, maximum size, duration and thread count.
struct ProfileAggregates {
    std::size_t total_events = 0;
    std::array<std::size_t, core::kAccessTypeCount> counts{};
    core::PhaseList phases;
    std::size_t max_size = 0;
    std::uint64_t duration_ns = 0;
    std::size_t thread_count = 0;
};

/// Counts, phases, max size, duration and thread count, event by event.
[[nodiscard]] ProfileAggregates aggregates(
    std::span<const runtime::AccessEvent> events);

/// Every event stepped through the pattern machine; patterns ordered by
/// first event index.
[[nodiscard]] std::vector<core::Pattern> detect_patterns(
    std::span<const runtime::AccessEvent> events,
    const core::DetectorConfig& config);

/// InstanceStats event by event.  `agg` and `patterns` must come from
/// aggregates() and detect_patterns() over the same events.
[[nodiscard]] core::InstanceStats instance_stats(
    const runtime::InstanceInfo& info,
    std::span<const runtime::AccessEvent> events,
    const ProfileAggregates& agg,
    const std::vector<core::Pattern>& patterns,
    const core::DetectorConfig& config);

/// The oracle's analysis: the result Dsspy::analyze must reproduce (with
/// no columns behind it) and each instance's aggregates.
struct Analysis {
    core::AnalysisResult result;
    std::vector<ProfileAggregates> aggregates;  ///< Per instance.
};

/// Analyze `instances` over events gathered with events_by_id.
[[nodiscard]] Analysis analyze(
    const std::vector<runtime::InstanceInfo>& instances,
    const EventsById& events, const core::DetectorConfig& config = {});

/// Analyze `instances` over a store's events.
[[nodiscard]] Analysis analyze(
    const std::vector<runtime::InstanceInfo>& instances,
    const runtime::ProfileStore& store,
    const core::DetectorConfig& config = {});

/// The engine's side of a differential: each instance's aggregates as a
/// post-mortem result reports them (its stats), with the phases of its
/// rows by kernels::phases_from_types.
[[nodiscard]] std::vector<ProfileAggregates> column_aggregates(
    const core::AnalysisResult& result);

}  // namespace dsspy::oracle
