// Instrumentation probe bound to one data-structure instance.
//
// The paper implements "the dynamic profiler using the proxy design
// pattern so that it is easily extensible to runtime profiles of other
// data structures" (Section IV).  Probe is the shared half of every proxy:
// it registers the instance with the active ProfilingSession at
// construction, forwards access events on the hot path, and marks the
// instance deallocated when the proxy dies.
//
// A Probe constructed with a null session records nothing; this is how the
// evaluation harness runs the *identical* application code instrumented and
// uninstrumented to measure the Table IV slowdown.
#pragma once

#include <string>
#include <utility>

#include "runtime/session.hpp"
#include "support/source_location.hpp"

namespace dsspy::ds {

/// Per-instance recording handle.  Movable, not copyable (a copy of a
/// container is a new instance and must register itself).
class Probe {
public:
    /// Unprofiled probe: every rec() is a no-op.
    Probe() noexcept = default;

    /// Register `location` as a new instance of `kind` with `session`.
    /// A null session produces an unprofiled probe.
    Probe(runtime::ProfilingSession* session, runtime::DsKind kind,
          std::string type_name, support::SourceLoc location)
        : session_(session) {
        if (session_ != nullptr) {
            id_ = session_->register_instance(kind, std::move(type_name),
                                              std::move(location));
        }
    }

    Probe(Probe&& other) noexcept
        : session_(std::exchange(other.session_, nullptr)),
          id_(std::exchange(other.id_, runtime::kInvalidInstance)) {}

    Probe& operator=(Probe&& other) noexcept {
        if (this != &other) {
            release();
            session_ = std::exchange(other.session_, nullptr);
            id_ = std::exchange(other.id_, runtime::kInvalidInstance);
        }
        return *this;
    }

    Probe(const Probe&) = delete;
    Probe& operator=(const Probe&) = delete;

    ~Probe() { release(); }

    /// Record one access event.  Hot path — no-op when unprofiled;
    /// otherwise it inlines the session's frame-free fast path
    /// (ProfilingSession::record), which stores one 24-byte row.
    void rec(runtime::OpKind op, std::int64_t position,
             std::size_t size) const noexcept {
        if (session_ != nullptr)
            session_->record(id_, op, position,
                             static_cast<std::uint32_t>(size));
    }

    [[nodiscard]] bool profiled() const noexcept { return session_ != nullptr; }
    [[nodiscard]] runtime::InstanceId id() const noexcept { return id_; }
    [[nodiscard]] runtime::ProfilingSession* session() const noexcept {
        return session_;
    }

private:
    void release() noexcept {
        if (session_ != nullptr) session_->mark_deallocated(id_);
        session_ = nullptr;
    }

    runtime::ProfilingSession* session_ = nullptr;
    runtime::InstanceId id_ = runtime::kInvalidInstance;
};

}  // namespace dsspy::ds
