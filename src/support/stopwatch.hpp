// Monotonic wall-clock stopwatch used by the evaluation harness.
#pragma once

#include <chrono>
#include <cstdint>

namespace dsspy::support {

/// Monotonic nanoseconds since an arbitrary epoch (steady_clock).  The
/// single timing source shared by the capture hot path, the span tracer
/// (obs/trace.hpp), and the Stopwatch below — keep every timing consumer on
/// this helper so there is exactly one clock in the system.
[[nodiscard]] inline std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// Simple monotonic stopwatch.  Started on construction.
class Stopwatch {
public:
    Stopwatch() noexcept : start_(now_ns()) {}

    void restart() noexcept { start_ = now_ns(); }

    [[nodiscard]] std::uint64_t elapsed_ns() const noexcept {
        return now_ns() - start_;
    }

    [[nodiscard]] double elapsed_ms() const noexcept {
        return static_cast<double>(elapsed_ns()) / 1e6;
    }

    [[nodiscard]] double elapsed_s() const noexcept {
        return static_cast<double>(elapsed_ns()) / 1e9;
    }

private:
    std::uint64_t start_;
};

}  // namespace dsspy::support
