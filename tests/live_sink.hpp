// Test helper: the two ways a session hands its events on.
//
// Every session captures into per-thread Buffered chains.  A `Buffered`
// session hands them to the store at stop().  A `Streaming` session also
// attaches an event sink, so the collector thread drains the chains live
// while the workload records; in AnalysisMode::Postmortem the store
// still receives every chain at stop(), so both cases can be checked
// against the same store.  The enumerators name the parameterized cases
// of the suites that cover both.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>

#include "runtime/session.hpp"

namespace dsspy::runtime {

enum class Delivery { Buffered, Streaming };

/// gtest name generator for a Delivery parameter.
inline std::string delivery_name(
    const ::testing::TestParamInfo<Delivery>& info) {
    return info.param == Delivery::Buffered ? "Buffered" : "Streaming";
}

/// A live sink that counts the events it receives and checks that their
/// seqs ascend.  Read it only after stop(), which joins the collector.
struct LiveSinkCheck {
    std::uint64_t events = 0;
    std::uint64_t next_seq = 0;
    bool ascending = true;

    /// Attach to `session` when `delivery` is Streaming.
    void attach(ProfilingSession& session, Delivery delivery) {
        if (delivery == Delivery::Buffered) return;
        session.set_event_sink([this](std::span<const AccessEvent> batch) {
            for (const AccessEvent& ev : batch) {
                if (ev.seq < next_seq) ascending = false;
                next_seq = ev.seq + 1;
            }
            events += batch.size();
        });
    }

    /// After stop(): a Streaming session's sink saw every event, in order.
    void expect_complete(const ProfilingSession& session,
                         Delivery delivery) const {
        if (delivery == Delivery::Buffered) return;
        EXPECT_EQ(events, session.events_recorded());
        EXPECT_TRUE(ascending);
    }
};

}  // namespace dsspy::runtime
