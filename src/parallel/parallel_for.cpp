#include "parallel/parallel_for.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>

namespace dsspy::par::detail {

namespace {

std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// Exponentially weighted mean (weight 1/4) kept in one atomic; 0 = no
/// sample yet.  Concurrent updates may drop a sample, never tear one.
void ewma_update(std::atomic<std::uint64_t>& mean, std::uint64_t sample) {
    const std::uint64_t old = mean.load(std::memory_order_relaxed);
    mean.store(old == 0 ? sample : old - old / 4 + sample / 4,
               std::memory_order_relaxed);
}

/// Mean latency from submitting a helper to its start, shared by every
/// pool; 0 until the first helper has started.
std::atomic<std::uint64_t> g_wake_ns{0};

void record_site(SiteCost& site, std::size_t indices, std::uint64_t ns) {
    if (indices != 0)  // +1 keeps a measured cost distinct from "unmeasured"
        ewma_update(site.ps_per_index, ns * 1000 / indices + 1);
}

/// True when the caller alone is predicted to finish `n` indices of `site`
/// before a helper woken now would start, so waking one buys nothing.
/// False while either quantity is still unmeasured.
bool caller_outruns_helpers(const SiteCost& site, std::size_t n) {
    const std::uint64_t wake = g_wake_ns.load(std::memory_order_relaxed);
    const std::uint64_t ps = site.ps_per_index.load(std::memory_order_relaxed);
    return wake != 0 && ps != 0 &&
           static_cast<double>(ps) * 1e-3 * static_cast<double>(n) <
               static_cast<double>(wake);
}

/// Shared state of one parallel region.  Allocated once per region and
/// shared: the caller and every submitted helper hold a reference, so a
/// helper that runs after the region returned still finds valid counters.
/// `body_` is dereferenced only by a thread that claimed a chunk, and the
/// caller does not return while a claimed chunk is unfinished, so the
/// caller's stack-resident body outlives every use.
class Region : public std::enable_shared_from_this<Region> {
public:
    Region(ThreadPool& pool, std::size_t begin, std::size_t end,
           ChunkPlan plan, ChunkFn fn, void* body)
        : pool_(pool),
          begin_(begin),
          end_(end),
          plan_(plan),
          fn_(fn),
          body_(body),
          remaining_(plan.count) {}

    /// Submit one more helper task unless the pool width is reached.
    void wake_helper() {
        if (helpers_.fetch_add(1, std::memory_order_relaxed) >=
            pool_.thread_count())
            return;
        pool_.submit([self = shared_from_this(), woken = now_ns()] {
            record_wake(now_ns() - woken);
            self->work(/*chain=*/true);
        });
    }

    /// Claim and run chunks until none is left to claim; returns the
    /// number of indices this thread ran.  With `chain`, the first claim
    /// that leaves chunks unclaimed wakes the next helper.
    std::size_t work(bool chain) {
        std::size_t indices = 0;
        while (true) {
            const std::size_t c =
                next_.fetch_add(1, std::memory_order_relaxed);
            if (c >= plan_.count) return indices;
            if (chain && c + 1 < plan_.count) wake_helper();
            chain = false;
            indices += run_chunk(c);
        }
    }

    /// Block until every chunk has completed or been cancelled, then
    /// rethrow the first exception a chunk threw.
    void join() {
        std::size_t left = remaining_.load(std::memory_order_acquire);
        while (left != 0) {
            remaining_.wait(left, std::memory_order_acquire);
            left = remaining_.load(std::memory_order_acquire);
        }
        if (error_) std::rethrow_exception(error_);
    }

private:
    /// Run chunk `c` unless the region failed; returns the indices run.
    std::size_t run_chunk(std::size_t c) {
        const std::size_t lo = begin_ + c * plan_.size;
        const std::size_t hi = std::min(end_, lo + plan_.size);
        std::size_t ran = 0;
        if (!failed_.load(std::memory_order_relaxed)) {
            try {
                fn_(body_, lo, hi);
                ran = hi - lo;
            } catch (...) {
                fail(std::current_exception());
            }
        }
        complete(1);
        return ran;
    }

    /// Record the first exception and cancel every unclaimed chunk.
    void fail(std::exception_ptr error) {
        if (failed_.exchange(true, std::memory_order_relaxed)) return;
        error_ = std::move(error);
        const std::size_t claimed =
            next_.exchange(plan_.count, std::memory_order_relaxed);
        if (claimed < plan_.count) complete(plan_.count - claimed);
    }

    /// Count `n` chunks as done; the last one wakes the joining caller.
    void complete(std::size_t n) {
        if (remaining_.fetch_sub(n, std::memory_order_acq_rel) == n)
            remaining_.notify_all();
    }

    ThreadPool& pool_;
    const std::size_t begin_;
    const std::size_t end_;
    const ChunkPlan plan_;
    const ChunkFn fn_;
    void* const body_;
    std::atomic<std::size_t> next_{0};    // next chunk to claim
    std::atomic<std::size_t> remaining_;  // chunks not yet done
    std::atomic<unsigned> helpers_{0};    // helper submissions so far
    std::atomic<bool> failed_{false};
    std::exception_ptr error_;  // written once, before its chunk completes
};

}  // namespace

/// A sample counts at most twice the current mean, and the first at most
/// kFirstWakeCapNs, so one preempted or queued-behind-work helper cannot
/// hold the cutoff high.
void record_wake(std::uint64_t ns) noexcept {
    const std::uint64_t old = g_wake_ns.load(std::memory_order_relaxed);
    ewma_update(g_wake_ns, std::min(ns, old == 0 ? kFirstWakeCapNs : 2 * old));
}

std::uint64_t wake_estimate_ns() noexcept {
    return g_wake_ns.load(std::memory_order_relaxed);
}

bool run_inline(SiteCost& site, std::size_t n) noexcept {
    if (caller_outruns_helpers(site, n) &&
        site.inline_streak.fetch_add(1, std::memory_order_relaxed) + 1 <
            kReprobeRegions)
        return true;
    site.inline_streak.store(0, std::memory_order_relaxed);
    return false;
}

void fork_join(ThreadPool& pool, std::size_t begin, std::size_t end,
               ChunkPlan plan, ChunkFn fn, void* body, SiteCost& site) {
    const std::uint64_t start = now_ns();
    if (run_inline(site, end - begin)) {
        for (std::size_t lo = begin; lo < end; lo += plan.size)
            fn(body, lo, std::min(end, lo + plan.size));
        record_site(site, end - begin, now_ns() - start);
        return;
    }
    const auto region =
        std::make_shared<Region>(pool, begin, end, plan, fn, body);
    region->wake_helper();
    record_site(site, region->work(/*chain=*/false), now_ns() - start);
    region->join();
}

}  // namespace dsspy::par::detail
