#include "apps/mandelbrot.hpp"

#include <cstdint>
#include <string>

#include "ds/ds.hpp"
#include "support/stopwatch.hpp"

namespace dsspy::apps {

namespace {

using support::SourceLoc;
using support::Stopwatch;

constexpr std::size_t kWidth = 500;
constexpr std::size_t kHeight = 350;
constexpr int kMaxIterations = 96;
constexpr double kXMin = -2.2;
constexpr double kXMax = 1.0;
constexpr double kYMin = -1.2;
constexpr double kYMax = 1.2;

SourceLoc loc(const char* method, std::uint32_t position) {
    return SourceLoc{"Mandelbrot.Renderer", method, position};
}

int iterate(double cx, double cy) {
    double zx = 0.0;
    double zy = 0.0;
    int iter = 0;
    while (zx * zx + zy * zy < 4.0 && iter < kMaxIterations) {
        const double tmp = zx * zx - zy * zy + cx;
        zy = 2.0 * zx * zy + cy;
        zx = tmp;
        ++iter;
    }
    return iter;
}

int colorize(int iterations) {
    return iterations >= kMaxIterations ? 0 : 32 + (iterations * 7) % 224;
}

}  // namespace

RunResult run_mandelbrot(runtime::ProfilingSession* session) {
    RunResult result;
    Stopwatch total;

    // Palette (float-array initialization — recommendation: parallel init).
    ds::ProfiledArray<std::int64_t> palette(session, loc("BuildPalette", 10),
                                            256);
    for (std::size_t i = 0; i < palette.length(); ++i)
        palette.set(i, static_cast<std::int64_t>((i * 5) % 256));

    // Precomputed x coordinates, re-read by every row.
    ds::ProfiledArray<double> xs(session, loc("PrecomputeX", 20), kWidth);
    for (std::size_t x = 0; x < kWidth; ++x)
        xs.set(x, kXMin + (kXMax - kXMin) * static_cast<double>(x) /
                              static_cast<double>(kWidth - 1));

    // Per-row byte offsets of the output image.
    ds::ProfiledList<std::int64_t> row_offsets(session,
                                               loc("ComputeOffsets", 30));
    for (std::size_t y = 0; y < kHeight; ++y)
        row_offsets.add(static_cast<std::int64_t>(y * kWidth));

    // Small auxiliary containers.
    ds::ProfiledArray<double> bounds(session, loc("SetViewport", 40), 4);
    bounds.set(0, kXMin);
    bounds.set(1, kXMax);
    bounds.set(2, kYMin);
    bounds.set(3, kYMax);
    ds::ProfiledList<std::string> config(session, loc("LoadConfig", 50));
    config.add("resolution=500x350");
    config.add("palette=smooth");
    ds::ProfiledArray<std::int64_t> histogram(session,
                                              loc("InitHistogram", 60), 64);

    // The image, written pixel by pixel, row-major (Long-Insert).
    ds::ProfiledArray<std::int64_t> image(session, loc("RenderImage", 70),
                                          kWidth * kHeight);

    Stopwatch region;
    for (std::size_t y = 0; y < kHeight; ++y) {
        const double cy = kYMin + (kYMax - kYMin) * static_cast<double>(y) /
                                      static_cast<double>(kHeight - 1);
        const auto row_base =
            static_cast<std::size_t>(row_offsets.get(y));
        for (std::size_t x = 0; x < kWidth; ++x) {
            const int iterations = iterate(xs.get(x), cy);
            image.set(row_base + x,
                      static_cast<std::int64_t>(colorize(iterations)));
        }
    }
    result.parallelizable_ns = region.elapsed_ns();

    // Brightness histogram over a sample of pixels (data-dependent
    // positions, no pattern).
    std::size_t pos = 0;
    for (int s = 0; s < 500; ++s) {
        const auto bucket =
            static_cast<std::size_t>(image.get(pos) / 4) % 64;
        histogram.set(bucket, histogram.get(bucket) + 1);
        pos = (pos + 7919) % image.length();
    }

    double sum = 0.0;
    for (int s = 0; s < 64; ++s)
        sum += static_cast<double>(histogram.get(static_cast<std::size_t>(
            (s * 7) % 64)));
    result.checksum = sum + static_cast<double>(palette.get(255)) +
                      bounds.get(3) + static_cast<double>(config.count());
    result.total_ns = total.elapsed_ns();
    return result;
}

namespace {

/// The renderer with its initializations and rows computed in parallel;
/// `regions` runs the parallel regions.
template <typename Regions>
RunResult parallel_program(Regions& regions) {
    RunResult result;
    Stopwatch total;

    ds::Array<std::int64_t> palette(256);
    regions(0, palette.length(), [&palette](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            palette.set(i, static_cast<std::int64_t>((i * 5) % 256));
    });

    ds::Array<double> xs(kWidth);
    regions(0, kWidth, [&xs](std::size_t lo, std::size_t hi) {
        for (std::size_t x = lo; x < hi; ++x)
            xs.set(x, kXMin + (kXMax - kXMin) * static_cast<double>(x) /
                                  static_cast<double>(kWidth - 1));
    });

    ds::List<std::int64_t> row_offsets;
    for (std::size_t y = 0; y < kHeight; ++y)
        row_offsets.add(static_cast<std::int64_t>(y * kWidth));

    ds::Array<double> bounds(4);
    bounds.set(0, kXMin);
    bounds.set(1, kXMax);
    bounds.set(2, kYMin);
    bounds.set(3, kYMax);
    ds::List<std::string> config;
    config.add("resolution=500x350");
    config.add("palette=smooth");
    ds::Array<std::int64_t> histogram(64);

    ds::Array<std::int64_t> image(kWidth * kHeight);

    // Recommended action: compute the rows in parallel.
    regions(0, kHeight, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t y = lo; y < hi; ++y) {
            const double cy = kYMin + (kYMax - kYMin) *
                                          static_cast<double>(y) /
                                          static_cast<double>(kHeight - 1);
            const auto row_base = static_cast<std::size_t>(row_offsets[y]);
            for (std::size_t x = 0; x < kWidth; ++x) {
                const int iterations = iterate(xs.get(x), cy);
                image.set(row_base + x,
                          static_cast<std::int64_t>(colorize(iterations)));
            }
        }
    });

    std::size_t pos = 0;
    for (int s = 0; s < 500; ++s) {
        const auto bucket =
            static_cast<std::size_t>(image.get(pos) / 4) % 64;
        histogram.set(bucket, histogram.get(bucket) + 1);
        pos = (pos + 7919) % image.length();
    }

    double sum = 0.0;
    for (int s = 0; s < 64; ++s)
        sum += static_cast<double>(histogram.get(static_cast<std::size_t>(
            (s * 7) % 64)));
    result.checksum = sum + static_cast<double>(palette.get(255)) +
                      bounds.get(3) + static_cast<double>(config.count());
    result.total_ns = total.elapsed_ns();
    return result;
}

}  // namespace

RunResult run_mandelbrot_parallel(par::ThreadPool& pool) {
    return run_on_pool(pool, parallel_program<par::PoolExecutor>);
}

SimulatedRunResult run_mandelbrot_simulated(unsigned workers) {
    return run_on_simulator(workers, parallel_program<par::SimulationExecutor>);
}

}  // namespace dsspy::apps

