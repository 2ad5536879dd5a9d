/**
 * @file
 * Fixed-size thread pool and the one data-parallel loop the library
 * uses. There is a single level of parallelism: independent units of
 * work — fleet channels (one device + its event queue each) and
 * store shards during recovery — run concurrently, while everything
 * inside a unit (fingerprint kernels, matching, crypto) runs serially
 * on the thread that owns the unit. Fleets already keep every core
 * busy across channels, so splitting a 96x96 image into row bands
 * would only add dispatch overhead.
 *
 * Design constraints, in priority order:
 *
 *  1. **Determinism.** `parallelFor` always splits `[begin, end)`
 *     into the same grain-sized chunks regardless of how many
 *     threads execute them, and chunk bodies only touch disjoint
 *     state. Results are therefore bitwise identical at any thread
 *     count.
 *  2. **No deadlocks under nesting.** The calling thread always
 *     participates in chunk execution, so a `parallelFor` issued
 *     from inside a pool worker completes even when every worker is
 *     busy.
 *  3. **No external dependencies.** Plain `std::thread` +
 *     condition variables.
 */

#ifndef TRUST_CORE_PARALLEL_HH
#define TRUST_CORE_PARALLEL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace trust::core {

/**
 * A fixed-size pool of worker threads executing range chunks.
 * Workers are joined on destruction. A pool of size <= 1 runs
 * everything inline on the calling thread.
 */
class ThreadPool
{
  public:
    /** @param threads total concurrency including the caller. */
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total concurrency (workers plus the participating caller). */
    int
    threadCount() const
    {
        return static_cast<int>(workers_.size()) + 1;
    }

    /**
     * Execute `fn(chunk_begin, chunk_end)` over `[begin, end)` split
     * into chunks of at most `grain` indices. Chunk boundaries
     * depend only on `grain`, never on the thread count. Blocks
     * until every chunk has run; the calling thread executes chunks
     * too. The first exception thrown by `fn` is rethrown here.
     */
    void parallelFor(int begin, int end, int grain,
                     const std::function<void(int, int)> &fn);

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> queue_;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

/**
 * The process-wide pool that runs channels and shards. Created
 * lazily; sized by setParallelThreads() if called, else by the
 * TRUST_THREADS environment variable, else by
 * std::thread::hardware_concurrency().
 */
ThreadPool &globalThreadPool();

/**
 * Force the global pool to a specific size (tests force 1 for
 * serial reference runs). Pass 0 to return to automatic sizing.
 * Destroys and lazily recreates the pool: do not call while
 * parallel work is in flight on other threads.
 */
void setParallelThreads(int threads);

/** Current global-pool concurrency (creates the pool if needed). */
int parallelThreadCount();

/** parallelFor on the global pool. */
void parallelFor(int begin, int end, int grain,
                 const std::function<void(int, int)> &fn);

} // namespace trust::core

#endif // TRUST_CORE_PARALLEL_HH
