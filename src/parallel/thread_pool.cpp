#include "parallel/thread_pool.hpp"

#include <atomic>

#include "obs/metrics.hpp"

namespace dsspy::par {

namespace {

/// Self-telemetry: peak task-queue depth.  parallel_for_chunks submits one
/// task per helper it wakes, not one per chunk, so for fork-join work this
/// counts queued helpers (lazy-registered; call sites guard on
/// obs::enabled()).
obs::MetricId queue_depth_metric() {
    static const obs::MetricId id =
        obs::MetricsRegistry::global().gauge("parallel.queue_depth_hwm");
    return id;
}

/// Requested default-pool width (0 = hardware concurrency); read when
/// default_pool() first constructs.
std::atomic<unsigned> g_default_threads{0};
/// Set once default_pool() has materialized (its width is frozen).
std::atomic<bool> g_default_pool_created{false};

/// The worker count a pool constructed with `threads` ends up with.
unsigned resolve_width(unsigned threads) noexcept {
    unsigned n = threads != 0 ? threads : std::thread::hardware_concurrency();
    return n != 0 ? n : 4;
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
    const unsigned n = resolve_width(threads);
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        workers_.emplace_back(
            [this](const std::stop_token& st) { worker_loop(st); });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::scoped_lock lock(mutex_);
        stopping_ = true;
    }
    work_cv_.notify_all();
    // jthread joins in destructor; workers drain remaining tasks first.
}

void ThreadPool::submit(std::function<void()> task) {
    std::size_t depth = 0;
    {
        std::scoped_lock lock(mutex_);
        tasks_.push_back(std::move(task));
        depth = tasks_.size();
    }
    work_cv_.notify_one();
    if (obs::enabled())
        obs::MetricsRegistry::global().gauge_max(queue_depth_metric(), depth);
}

void ThreadPool::wait_idle() {
    std::unique_lock lock(mutex_);
    idle_cv_.wait(lock, [this] { return tasks_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop(const std::stop_token& st) {
    while (true) {
        std::function<void()> task;
        {
            std::unique_lock lock(mutex_);
            work_cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
            if (tasks_.empty()) {
                if (stopping_ || st.stop_requested()) return;
                continue;
            }
            task = std::move(tasks_.front());
            tasks_.pop_front();
            ++active_;
        }
        task();
        {
            std::scoped_lock lock(mutex_);
            --active_;
            if (tasks_.empty() && active_ == 0) idle_cv_.notify_all();
        }
    }
}

ThreadPool& ThreadPool::default_pool() {
    static ThreadPool pool(g_default_threads.load(std::memory_order_relaxed));
    g_default_pool_created.store(true, std::memory_order_release);
    return pool;
}

void ThreadPool::set_default_threads(unsigned threads) noexcept {
    g_default_threads.store(threads, std::memory_order_relaxed);
}

unsigned ThreadPool::effective_default_threads() noexcept {
    if (g_default_pool_created.load(std::memory_order_acquire))
        return default_pool().thread_count();
    return resolve_width(g_default_threads.load(std::memory_order_relaxed));
}

}  // namespace dsspy::par
