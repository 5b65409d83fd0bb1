#include "support/parallel_for.hh"

#if defined(__linux__)
#include <sched.h>
#endif

namespace heapmd
{

unsigned
effectiveJobs(unsigned jobs)
{
    if (jobs != 0)
        return jobs;
#if defined(__linux__)
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
        const int cpus = CPU_COUNT(&allowed);
        if (cpus > 0)
            return static_cast<unsigned>(cpus);
    }
#endif
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

} // namespace heapmd
