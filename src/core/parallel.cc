#include "core/parallel.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

namespace trust::core {

namespace {

/**
 * Shared state of one parallelFor invocation. Chunks are claimed
 * through an atomic cursor so the caller and any helpers drain the
 * same range; the last completed chunk wakes the waiting caller.
 */
struct ForJob
{
    int begin = 0;
    int end = 0;
    int grain = 1;
    int chunks = 0;
    const std::function<void(int, int)> *fn = nullptr;
    std::atomic<int> next{0};
    std::atomic<int> completed{0};
    std::mutex mutex;
    std::condition_variable done;
    std::exception_ptr error;

    void
    runChunks()
    {
        int i;
        while ((i = next.fetch_add(1, std::memory_order_relaxed)) <
               chunks) {
            const int b = begin + i * grain;
            const int e = std::min(b + grain, end);
            try {
                (*fn)(b, e);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex);
                if (!error)
                    error = std::current_exception();
            }
            if (completed.fetch_add(1, std::memory_order_acq_rel) +
                    1 ==
                chunks) {
                std::lock_guard<std::mutex> lock(mutex);
                done.notify_all();
            }
        }
    }
};

} // namespace

ThreadPool::ThreadPool(int threads)
{
    const int workers = std::max(threads, 1) - 1;
    workers_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop requested and queue drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

void
ThreadPool::parallelFor(int begin, int end, int grain,
                        const std::function<void(int, int)> &fn)
{
    if (end <= begin)
        return;
    grain = std::max(grain, 1);
    const int chunks = (end - begin + grain - 1) / grain;
    if (chunks == 1 || workers_.empty()) {
        // Same chunk boundaries as the parallel path.
        for (int b = begin; b < end; b += grain)
            fn(b, std::min(b + grain, end));
        return;
    }

    auto job = std::make_shared<ForJob>();
    job->begin = begin;
    job->end = end;
    job->grain = grain;
    job->chunks = chunks;
    job->fn = &fn;

    // One helper per chunk beyond the one the caller will run;
    // helpers that arrive after the range is drained exit at once.
    const int helpers = std::min(static_cast<int>(workers_.size()),
                                 chunks - 1);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (int i = 0; i < helpers; ++i)
            queue_.emplace_back([job] { job->runChunks(); });
    }
    if (helpers == 1)
        cv_.notify_one();
    else
        cv_.notify_all();

    job->runChunks();

    {
        std::unique_lock<std::mutex> lock(job->mutex);
        job->done.wait(lock, [&] {
            return job->completed.load(std::memory_order_acquire) >=
                   job->chunks;
        });
    }
    if (job->error)
        std::rethrow_exception(job->error);
}

namespace {

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;
int g_thread_override = 0; // 0 = automatic sizing

int
resolveThreadCount()
{
    if (g_thread_override > 0)
        return g_thread_override;
    // trustlint: allow(determinism) -- sizes the pool only; outputs are byte-identical across thread counts (golden replay test)
    if (const char *env = std::getenv("TRUST_THREADS")) {
        const int n = std::atoi(env);
        if (n > 0)
            return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

} // namespace

ThreadPool &
globalThreadPool()
{
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(resolveThreadCount());
    return *g_pool;
}

void
setParallelThreads(int threads)
{
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    g_thread_override = threads;
    g_pool.reset(); // recreated lazily at the requested size
}

int
parallelThreadCount()
{
    return globalThreadPool().threadCount();
}

void
parallelFor(int begin, int end, int grain,
            const std::function<void(int, int)> &fn)
{
    globalThreadPool().parallelFor(begin, end, grain, fn);
}

} // namespace trust::core
