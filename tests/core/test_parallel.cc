/** @file Unit tests for the fixed-size thread pool. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "core/parallel.hh"

namespace {

using trust::core::parallelFor;
using trust::core::parallelThreadCount;
using trust::core::setParallelThreads;
using trust::core::ThreadPool;

/** Restores the auto thread count when a test returns. */
struct ThreadGuard
{
    ~ThreadGuard() { setParallelThreads(0); }
};

TEST(Parallel, CoversEveryIndexExactlyOnce)
{
    ThreadGuard guard;
    for (const int threads : {1, 4}) {
        setParallelThreads(threads);
        std::vector<std::atomic<int>> hits(103);
        parallelFor(0, 103, 7,
                    [&](int begin, int end) {
                        for (int i = begin; i < end; ++i)
                            hits[static_cast<std::size_t>(i)]
                                .fetch_add(1);
                    });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(Parallel, EmptyAndReversedRangesAreNoops)
{
    std::atomic<int> calls{0};
    parallelFor(5, 5, 4, [&](int, int) { calls.fetch_add(1); });
    parallelFor(9, 2, 4, [&](int, int) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
}

TEST(Parallel, ChunkBoundariesIndependentOfThreadCount)
{
    ThreadGuard guard;
    auto boundaries = [](int threads) {
        setParallelThreads(threads);
        std::vector<std::pair<int, int>> chunks(8, {-1, -1});
        parallelFor(0, 64, 8, [&](int begin, int end) {
            chunks[static_cast<std::size_t>(begin / 8)] = {begin, end};
        });
        return chunks;
    };
    EXPECT_EQ(boundaries(1), boundaries(3));
    EXPECT_EQ(boundaries(3), boundaries(8));
}

TEST(Parallel, NestedParallelForCompletes)
{
    ThreadGuard guard;
    setParallelThreads(4);
    std::atomic<int> total{0};
    parallelFor(0, 8, 1, [&](int begin, int end) {
        for (int i = begin; i < end; ++i) {
            parallelFor(0, 16, 4, [&](int b, int e) {
                total.fetch_add(e - b);
            });
        }
    });
    EXPECT_EQ(total.load(), 8 * 16);
}

TEST(Parallel, SetParallelThreadsOverridesCount)
{
    ThreadGuard guard;
    setParallelThreads(3);
    EXPECT_EQ(parallelThreadCount(), 3);
    setParallelThreads(1);
    EXPECT_EQ(parallelThreadCount(), 1);
    setParallelThreads(0);
    EXPECT_GE(parallelThreadCount(), 1);
}

TEST(Parallel, EnvVariableSetsDefault)
{
    ThreadGuard guard;
    ASSERT_EQ(setenv("TRUST_THREADS", "2", 1), 0);
    setParallelThreads(0); // drop override, re-read environment
    EXPECT_EQ(parallelThreadCount(), 2);
    ASSERT_EQ(unsetenv("TRUST_THREADS"), 0);
    setParallelThreads(0);
    EXPECT_GE(parallelThreadCount(), 1);
}

TEST(Parallel, ExceptionPropagatesToCaller)
{
    ThreadGuard guard;
    setParallelThreads(4);
    EXPECT_THROW(parallelFor(0, 100, 5,
                             [](int begin, int) {
                                 if (begin >= 50)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
    // The pool survives the exception.
    std::atomic<int> total{0};
    parallelFor(0, 10, 2,
                [&](int b, int e) { total.fetch_add(e - b); });
    EXPECT_EQ(total.load(), 10);
}

TEST(Parallel, DedicatedPoolRunsIndependently)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.threadCount(), 3);
    std::vector<int> out(50, 0);
    pool.parallelFor(0, 50, 4, [&](int begin, int end) {
        for (int i = begin; i < end; ++i)
            out[static_cast<std::size_t>(i)] = i * i;
    });
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

} // namespace
