/**
 * @file
 * The deterministic parallel-for every fan-out of the pipeline is
 * built on.
 *
 * Design (see DESIGN.md §11):
 *  - parallelForIndexed(count, jobs, fn) is the only primitive the
 *    pipeline builds on: every index gets its own result slot, so
 *    callers merge results *in input order* afterwards and the output
 *    is bit-identical regardless of the worker count;
 *  - the workers are the calling thread plus jobs - 1 std::threads,
 *    all claiming indices from one atomic cursor;
 *  - jobs == 1 never touches a thread: the inline fast path runs the
 *    body sequentially on the calling thread, so single-job behavior
 *    is byte-identical to the pre-pool pipeline;
 *  - the first exception a body throws (ties broken by smallest
 *    index) is captured, remaining indices are abandoned, and the
 *    exception is rethrown on the calling thread after the join.
 */

#ifndef HEAPMD_SUPPORT_PARALLEL_FOR_HH
#define HEAPMD_SUPPORT_PARALLEL_FOR_HH

#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace heapmd
{

/**
 * Resolve a --jobs value: 0 means one worker per CPU this thread may
 * run on (its affinity mask, so a pinned process or a container
 * cpuset does not oversubscribe; never less than 1); anything else
 * passes through.
 */
unsigned effectiveJobs(unsigned jobs);

namespace detail
{

/** First-by-index exception capture shared by a parallel-for. */
struct ParallelError
{
    std::mutex mutex;
    std::exception_ptr exception;
    std::size_t index = 0;

    void
    capture(std::size_t at)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (exception == nullptr || at < index) {
            exception = std::current_exception();
            index = at;
        }
    }
};

} // namespace detail

/**
 * Run fn(0) .. fn(count - 1), each exactly once, across at most
 * @p jobs workers (0 = one per allowed CPU, 1 = inline on the
 * calling thread).  Bodies for different indices may run
 * concurrently; the call returns only after every body finished or
 * was abandoned because another body threw.  The first exception (by
 * smallest index among those that threw) is rethrown here.
 */
template <typename Fn>
void
parallelForIndexed(std::size_t count, unsigned jobs, Fn &&fn)
{
    jobs = effectiveJobs(jobs);
    if (count == 0)
        return;
    if (jobs <= 1 || count == 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    if (static_cast<std::size_t>(jobs) > count)
        jobs = static_cast<unsigned>(count);

    std::atomic<std::size_t> next{0};
    detail::ParallelError error;
    const auto runner = [&] {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            try {
                fn(i);
            } catch (...) {
                error.capture(i);
                // Abandon the remaining indices: in-flight bodies
                // finish, unclaimed ones never start.
                next.store(count, std::memory_order_relaxed);
                return;
            }
        }
    };

    std::vector<std::thread> helpers;
    helpers.reserve(jobs - 1);
    for (unsigned w = 1; w < jobs; ++w) {
        try {
            helpers.emplace_back(runner);
        } catch (...) {
            // No thread to be had: the ones started share the work,
            // and every started one must still be joined below.
            break;
        }
    }
    runner();
    for (std::thread &helper : helpers)
        helper.join();

    if (error.exception != nullptr)
        std::rethrow_exception(error.exception);
}

} // namespace heapmd

#endif // HEAPMD_SUPPORT_PARALLEL_FOR_HH
