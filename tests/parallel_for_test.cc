/**
 * @file
 * Tests for the deterministic parallel-for every fan-out is built on
 * and for its default worker count.
 */

#if defined(__linux__)
#include <sched.h>
#endif

#include <atomic>
#include <barrier>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "support/parallel_for.hh"

using namespace heapmd;

TEST(EffectiveJobs, ZeroMeansHardwareConcurrency)
{
    EXPECT_GE(effectiveJobs(0), 1u);
    EXPECT_EQ(effectiveJobs(1), 1u);
    EXPECT_EQ(effectiveJobs(7), 7u);
}

#if defined(__linux__)

TEST(EffectiveJobs, ZeroCountsTheAffinityMask)
{
    // Pinned to one allowed CPU, the default is one worker however
    // many CPUs the machine has.
    cpu_set_t saved;
    CPU_ZERO(&saved);
    ASSERT_EQ(::sched_getaffinity(0, sizeof saved, &saved), 0);
    int first = 0;
    while (!CPU_ISSET(first, &saved))
        ++first;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(::sched_setaffinity(0, sizeof one, &one), 0);
    const unsigned pinned = effectiveJobs(0);
    ASSERT_EQ(::sched_setaffinity(0, sizeof saved, &saved), 0);
    EXPECT_EQ(pinned, 1u);
    EXPECT_EQ(effectiveJobs(0),
              static_cast<unsigned>(CPU_COUNT(&saved)));
}

#endif

TEST(ParallelForIndexed, CallerIsOneOfTheWorkers)
{
    // Four bodies that cannot finish until all four run at once: the
    // pool is four threads, and exactly one of them is the caller.
    const std::thread::id caller = std::this_thread::get_id();
    std::barrier<> all(4);
    std::atomic<int> finished{0};
    std::atomic<int> on_caller{0};
    parallelForIndexed(4, 4, [&](std::size_t) {
        if (std::this_thread::get_id() == caller)
            on_caller.fetch_add(1);
        all.arrive_and_wait();
        finished.fetch_add(1);
    });
    EXPECT_EQ(finished.load(), 4);
    EXPECT_EQ(on_caller.load(), 1);
}

TEST(ParallelForIndexed, EveryIndexRunsExactlyOnce)
{
    constexpr std::size_t kCount = 500;
    std::vector<std::atomic<int>> hits(kCount);
    parallelForIndexed(kCount, 4, [&](std::size_t i) {
        hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelForIndexed, SingleJobRunsInOrderOnCallingThread)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    parallelForIndexed(10, 1, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    std::vector<std::size_t> expected(10);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected);
}

TEST(ParallelForIndexed, ZeroJobsMeansHardwareSize)
{
    std::atomic<int> ran{0};
    parallelForIndexed(32, 0, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 32);
}

TEST(ParallelForIndexed, CountZeroNeverCallsTheBody)
{
    bool called = false;
    parallelForIndexed(0, 8, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ParallelForIndexed, SingleItemRunsInline)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::size_t seen = 99;
    parallelForIndexed(1, 8, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        seen = i;
    });
    EXPECT_EQ(seen, 0u);
}

TEST(ParallelForIndexed, ResultSlotsAreDeterministic)
{
    constexpr std::size_t kCount = 200;
    std::vector<std::size_t> slots(kCount, ~std::size_t{0});
    parallelForIndexed(kCount, 8, [&](std::size_t i) {
        slots[i] = i * i;
    });
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(slots[i], i * i);
}

TEST(ParallelForIndexed, RethrowsSequentialException)
{
    EXPECT_THROW(
        parallelForIndexed(5, 1,
                           [&](std::size_t i) {
                               if (i == 3)
                                   throw std::runtime_error("boom 3");
                           }),
        std::runtime_error);
}

TEST(ParallelForIndexed, RethrowsParallelException)
{
    std::atomic<int> ran{0};
    try {
        parallelForIndexed(100, 4, [&](std::size_t i) {
            ran.fetch_add(1);
            throw std::runtime_error("fail " + std::to_string(i));
        });
        FAIL() << "expected a rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("fail"),
                  std::string::npos);
    }
    // Abandonment: the four workers stop claiming after the throw.
    EXPECT_LE(ran.load(), 4);
}

TEST(ParallelForIndexed, ExceptionAbandonsRemainingIndices)
{
    std::atomic<int> ran{0};
    EXPECT_THROW(
        parallelForIndexed(1000, 2,
                           [&](std::size_t) {
                               ran.fetch_add(1);
                               throw std::runtime_error("early");
                           }),
        std::runtime_error);
    EXPECT_LT(ran.load(), 1000);
}
