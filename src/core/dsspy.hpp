// DSspy facade: profile -> patterns -> use cases -> recommendations.
//
// "DSspy uses static and dynamic analyses to collect the runtime profiles,
// to find recurring access patterns and use cases, and to deduce
// recommended actions" (Section IV, Figure 4).  `Dsspy::analyze` runs the
// post-mortem half of that pipeline over a stopped ProfilingSession.
#pragma once

#include <vector>

#include "core/analysis_result.hpp"
#include "core/detector_config.hpp"
#include "core/incremental.hpp"
#include "core/use_cases.hpp"
#include "runtime/column_store.hpp"
#include "runtime/session.hpp"

namespace dsspy::par {
class ThreadPool;
}

namespace dsspy::core {

/// The analyzer.  Stateless apart from its configuration; reusable.
class Dsspy {
public:
    explicit Dsspy(DetectorConfig config = {})
        : config_(config), engine_(config) {}

    /// Analyze a stopped session: fold each instance's profile
    /// (InstanceFold: aggregates and patterns), classify use cases.  With
    /// a pool, instances are analyzed in parallel; the result is
    /// bit-identical to the sequential run (the engine is stateless and
    /// each instance writes its own pre-allocated slot).
    [[nodiscard]] AnalysisResult analyze(
        const runtime::ProfilingSession& session,
        par::ThreadPool* pool = nullptr) const;

    /// Analyze explicit instance metadata + a finalized store (e.g. one a
    /// tool built with ProfileStore::append).  The store must
    /// outlive the result.  Runs over the store's columns with the
    /// vectorized kernels (DESIGN.md §11).
    [[nodiscard]] AnalysisResult analyze(
        const std::vector<runtime::InstanceInfo>& instances,
        const runtime::ProfileStore& store,
        par::ThreadPool* pool = nullptr) const;

    /// Analyze a bare columnar store (a trace loaded by
    /// runtime::read_trace_columns): the same verdicts and charts without
    /// a ProfileStore behind them.  The store must outlive the result.
    [[nodiscard]] AnalysisResult analyze(
        const std::vector<runtime::InstanceInfo>& instances,
        const runtime::ColumnStore& columns,
        par::ThreadPool* pool = nullptr) const;

    /// Live snapshot of an incremental analyzer attached to a running
    /// session (attach_incremental): classifies everything folded so far
    /// against the session's current registry, without stopping the
    /// session or disturbing the analyzer's state.
    [[nodiscard]] static AnalysisResult snapshot(
        const IncrementalAnalyzer& analyzer,
        const runtime::ProfilingSession& session) {
        return analyzer.snapshot(session.registry().snapshot());
    }

    /// Terminal incremental result for a stopped session.
    [[nodiscard]] static AnalysisResult finish(
        IncrementalAnalyzer& analyzer,
        const runtime::ProfilingSession& session) {
        return analyzer.finish(session.registry().snapshot());
    }

    [[nodiscard]] const DetectorConfig& config() const noexcept {
        return config_;
    }

private:
    DetectorConfig config_;
    UseCaseEngine engine_;
};

}  // namespace dsspy::core
