// The incremental streaming analyzer (DESIGN.md §8).
//
// Post-mortem DSspy materializes every access event, then folds each
// instance's finalized row range.  The IncrementalAnalyzer folds each
// event as it arrives into one InstanceFold per instance
// (instance_fold.hpp) — per-thread pattern runs, end-traffic counters,
// read/write weights, tail-phase and Sort-After-Insert bookkeeping — and
// classifies from that state on demand.  Memory is bounded by the number
// of live instances (times recording threads), not by the event count.
//
// A batch folds each maximal same-instance run of at least kMinBulkRun
// events through the fold's slice step (columnar kernels and the
// streak-driven pattern loop), one transposed tile of scratch columns at
// a time; shorter runs and single events take the fold's per-event step.
// Both paths reach the same state (DESIGN.md §8.2).
//
// Equivalence: both engines run the same InstanceFold and classify
// through the same UseCaseEngine::classify(const InstanceStats&), so
// verdicts, reasons, recommendations and confidences are bit-identical
// (tests/test_incremental.cpp holds this over every app and corpus
// workload).
//
// Contract: events must be folded in per-instance seq order (the order the
// finalized ProfileStore would present).  ProfilingSession's incremental
// sink, trace files written by write_trace, and per-instance replays all
// satisfy this.  Instance metadata should be declared before (or with) the
// instance's first event so Array-specific rules see the right kind.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "core/analysis_result.hpp"
#include "core/column_analysis.hpp"
#include "core/detector_config.hpp"
#include "core/instance_fold.hpp"
#include "core/use_cases.hpp"
#include "runtime/access_event.hpp"
#include "runtime/instance_registry.hpp"

namespace dsspy::runtime {
class ProfilingSession;
}  // namespace dsspy::runtime

namespace dsspy::core {

/// Folds a per-instance seq-ordered event stream into bounded state and
/// classifies it on demand.  Thread-safe: fold/declare/snapshot may be
/// called concurrently (a mutex serializes them), so a collector thread
/// can fold while another thread takes live snapshots.
class IncrementalAnalyzer {
public:
    explicit IncrementalAnalyzer(DetectorConfig config = {})
        : config_(config), engine_(config) {}

    /// Register instance metadata (kind drives the Array-specific rules).
    /// Idempotent; later declarations update the stored metadata.
    void declare_instance(const runtime::InstanceInfo& info);

    /// Fold one event (must be the next event of its instance).
    void fold(const runtime::AccessEvent& ev);

    /// Fold a batch under one lock acquisition.  Events of different
    /// instances may interleave; each instance's sub-sequence must be in
    /// its seq order.  Same-instance runs of kMinBulkRun events or more
    /// take the columnar bulk path.  Any split of a stream into batches
    /// reaches the same state.
    void fold(std::span<const runtime::AccessEvent> events);

    /// Shortest same-instance run a batch folds in bulk; shorter runs
    /// (round-robin streams over many instances) step event by event.
    static constexpr std::size_t kMinBulkRun = 32;
    /// Rows per scratch tile of the bulk path.
    static constexpr std::size_t kTileRows = 4096;

    /// Events folded so far.
    [[nodiscard]] std::uint64_t events_folded() const;

    /// Classify the state seen so far without disturbing it: open pattern
    /// runs are flushed virtually (on a copy), exactly as if the stream
    /// ended here.  `instances` is the registered-instance list (e.g.
    /// session.registry().snapshot() or a trace's instance table); kinds
    /// recorded at declare/fold time are used for rule selection.  The
    /// result carries stats and use cases; profiles and pattern lists stay
    /// empty (no events are kept).
    [[nodiscard]] AnalysisResult snapshot(
        const std::vector<runtime::InstanceInfo>& instances) const;

    /// Terminal classification: flushes open runs in place and reports.
    /// Further folding after finish() is not supported.
    [[nodiscard]] AnalysisResult finish(
        const std::vector<runtime::InstanceInfo>& instances);

    [[nodiscard]] const DetectorConfig& config() const noexcept {
        return config_;
    }

private:
    /// Scratch columns one tile of a same-instance run is transposed into
    /// (used under mutex_).
    struct Tile {
        std::vector<std::uint64_t> time_ns;
        std::vector<std::int64_t> positions;
        std::vector<std::uint32_t> sizes;
        std::vector<std::uint8_t> ops;
        std::vector<std::uint8_t> types;
        std::vector<std::uint16_t> threads;
        PhaseList phases;
    };

    InstanceFold& state_for(runtime::InstanceId id);
    void fold_locked(const runtime::AccessEvent& ev);
    void fold_run(InstanceFold& st,
                  std::span<const runtime::AccessEvent> run);
    void fold_tile(InstanceFold& st,
                   std::span<const runtime::AccessEvent> rows);
    [[nodiscard]] AnalysisResult report_from(
        std::vector<InstanceFold> states,
        const std::vector<runtime::InstanceInfo>& instances) const;

    DetectorConfig config_;
    UseCaseEngine engine_;
    mutable std::mutex mutex_;
    std::vector<InstanceFold> states_;  ///< Indexed by InstanceId.
    std::uint64_t events_folded_ = 0;
    Tile tile_;
};

/// Wire an analyzer into a session: instance registrations flow to
/// declare_instance() and ordered event batches to fold().  Instances
/// already registered are declared immediately.  Call before the session
/// records its first event; the analyzer must outlive the session's
/// stop().  Typically paired with AnalysisMode::Incremental so the session
/// retains no events.
void attach_incremental(runtime::ProfilingSession& session,
                        IncrementalAnalyzer& analyzer);

}  // namespace dsspy::core
