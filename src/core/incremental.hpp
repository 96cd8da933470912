// The incremental streaming analyzer (DESIGN.md §8).
//
// Post-mortem DSspy materializes every access event, then runs pattern
// detection and use-case classification over the finalized store.  The
// IncrementalAnalyzer folds each event into O(1) per-instance state as it
// arrives — per-thread pattern runs (shared PatternMachine), end-traffic
// counters, read/write ratios, tail-phase and Sort-After-Insert
// bookkeeping — and classifies from those aggregates on demand.  Memory is
// bounded by the number of live instances (times recording threads), not
// by the event count.
//
// A batch folds each maximal same-instance run of at least kMinBulkRun
// events through the columnar kernels and the streak-driven pattern loop
// (column_analysis.hpp), one tile of scratch columns at a time; shorter
// runs and single events step through the per-event fold.  Both paths
// reach the same state (DESIGN.md §8.2).
//
// Equivalence: both pipelines reduce to the same InstanceStats and
// classify through the same UseCaseEngine::classify(const InstanceStats&),
// so verdicts, reasons, recommendations and confidences are bit-identical
// (tests/test_incremental.cpp holds this over every app and corpus
// workload).
//
// Contract: events must be folded in per-instance seq order (the order the
// finalized ProfileStore would present).  ProfilingSession's incremental
// sink, trace files written by write_trace, and per-instance replays all
// satisfy this.  Instance metadata should be declared before (or with) the
// instance's first event so Array-specific rules see the right kind.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <vector>

#include "core/analysis_result.hpp"
#include "core/column_analysis.hpp"
#include "core/detector_config.hpp"
#include "core/instance_stats.hpp"
#include "core/pattern_machine.hpp"
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
    /// Closed insertion pattern still inside the Sort-After-Insert gap
    /// window (candidate for a future Sort).
    struct SaiCandidate {
        std::uint32_t first = 0;
        std::uint32_t last = 0;
        std::uint32_t length = 0;
    };

    /// Everything folded for one instance.  All containers are bounded by
    /// the number of recording threads and the SAI gap window — never by
    /// the event count.
    struct State {
        bool declared = false;
        runtime::DsKind kind = runtime::DsKind::List;
        std::uint32_t next_index = 0;  ///< Per-instance event index.

        std::array<std::size_t, kAccessTypeCount> counts{};
        std::uint64_t first_ns = 0;
        std::uint64_t last_ns = 0;
        std::size_t max_size = 0;
        std::vector<runtime::ThreadId> threads;

        AccessType tail_type = AccessType::Read;
        std::size_t tail_length = 0;
        std::uint32_t tail_last_size = 0;

        // Exact integer sums; to_stats converts them (below 2^53, so the
        // doubles equal the post-mortem path's).
        std::uint64_t weighted_reads = 0;
        std::uint64_t weighted_total = 0;
        std::size_t resizes = 0;
        EndTraffic iq_traffic;
        EndTraffic edge_traffic;

        detail::PatternMachine machine{3};

        std::array<std::size_t, kPatternKindCount> pattern_counts{};
        std::size_t long_insert_events = 0;
        std::uint64_t long_insert_ns = 0;
        bool has_longest_insert = false;
        std::uint32_t longest_insert_length = 0;
        std::uint32_t longest_insert_first = 0;
        bool longest_insert_front = false;
        std::size_t read_pattern_events = 0;
        std::size_t long_read_patterns = 0;

        // Sort-After-Insert bookkeeping (see incremental.cpp for the
        // equivalence argument).
        std::deque<SaiCandidate> sai_closed;
        std::vector<std::uint32_t> sai_pending;
        bool sai_match = false;
        std::uint32_t sai_sort = 0;
        std::uint32_t sai_first = 0;
        std::uint32_t sai_length = 0;
    };

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

    State& state_for(runtime::InstanceId id);
    void fold_locked(const runtime::AccessEvent& ev);
    void fold_run(State& st, std::span<const runtime::AccessEvent> run);
    void fold_tile(State& st, std::span<const runtime::AccessEvent> rows);
    void expire_sai(State& st, std::uint32_t index) const;
    void absorb_pattern(State& st, const Pattern& p, std::uint64_t first_ns,
                        std::uint64_t last_ns) const;
    void on_sort(State& st, std::uint32_t index);
    static void merge_sai(State& st, std::uint32_t sort_index,
                          std::uint32_t first, std::uint32_t length);
    [[nodiscard]] AnalysisResult report_from(
        std::vector<State> states,
        const std::vector<runtime::InstanceInfo>& instances) const;
    [[nodiscard]] static InstanceStats to_stats(
        const State& st, const runtime::InstanceInfo& info);

    DetectorConfig config_;
    UseCaseEngine engine_;
    mutable std::mutex mutex_;
    std::vector<State> states_;  ///< Indexed by InstanceId.
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
