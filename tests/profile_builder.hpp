// Test helper: hand-written event sequences of one instance, analyzed by
// the post-mortem engine (core::Dsspy::analyze over a ProfileStore), so
// the unit suites' edge cases run the same kernels as production.
#pragma once

#include <cstdint>
#include <vector>

#include "aos_oracle.hpp"
#include "core/dsspy.hpp"
#include "runtime/profile_store.hpp"

namespace dsspy::test {

/// One instance's events in a ProfileStore, with its metadata.
struct BuiltProfile {
    runtime::InstanceInfo info;
    runtime::ProfileStore store;

    /// Dsspy::analyze over the store; the result points at its columns.
    [[nodiscard]] core::AnalysisResult analyze(
        const core::DetectorConfig& config = {}) const {
        return core::Dsspy(config).analyze({info}, store);
    }

    /// The instance's analysis.
    [[nodiscard]] core::InstanceAnalysis instance(
        const core::DetectorConfig& config = {}) const {
        return analyze(config).instances().front();
    }

    /// The instance's profile aggregates as the engine reports them
    /// (oracle::column_aggregates).
    [[nodiscard]] oracle::ProfileAggregates aggregates() const {
        return oracle::column_aggregates(analyze()).front();
    }
};

/// Builds one instance's event sequence by hand: event k has seq k and
/// time_ns 100 * k.
struct ProfileBuilder {
    std::vector<runtime::AccessEvent> events;
    std::uint64_t seq = 0;

    ProfileBuilder& ev(runtime::OpKind op, std::int64_t pos,
                       std::uint32_t size, runtime::ThreadId thread = 0) {
        runtime::AccessEvent e;
        e.seq = seq;
        e.time_ns = seq * 100;
        e.position = pos;
        e.instance = 0;
        e.size = size;
        e.op = op;
        e.thread = thread;
        events.push_back(e);
        ++seq;
        return *this;
    }

    /// n appends (pos == size-1 afterwards).
    ProfileBuilder& append_run(int n, std::uint32_t start_size = 0,
                               runtime::ThreadId thread = 0) {
        for (int i = 0; i < n; ++i)
            ev(runtime::OpKind::Add,
               start_size + static_cast<std::uint32_t>(i),
               start_size + static_cast<std::uint32_t>(i) + 1, thread);
        return *this;
    }

    /// Forward read sweep over [0, n) at container size `size`.
    ProfileBuilder& read_forward(int n, std::uint32_t size,
                                 runtime::ThreadId thread = 0) {
        for (int i = 0; i < n; ++i) ev(runtime::OpKind::Get, i, size, thread);
        return *this;
    }

    /// n reads jumping 7 slots at a time (no two adjacent).
    ProfileBuilder& jump_reads(int n, std::uint32_t size) {
        int pos = 0;
        for (int i = 0; i < n; ++i) {
            ev(runtime::OpKind::Get, pos, size);
            pos = (pos + 7) % static_cast<int>(size);
        }
        return *this;
    }

    [[nodiscard]] BuiltProfile build(
        runtime::DsKind kind = runtime::DsKind::List) const {
        BuiltProfile p;
        p.info.id = 0;
        p.info.kind = kind;
        p.info.type_name = "List<Int32>";
        p.info.location = {"C", "M", 1};
        p.store.append(events);
        return p;
    }
};

}  // namespace dsspy::test
