#include "heapgraph/degree_histogram.hh"

#include "support/logging.hh"

namespace heapmd
{

void
DegreeHistogram::addVertex()
{
    ++counts_.vertices;
    applyVertex(0, 0, +1);
}

void
DegreeHistogram::removeVertex(std::size_t indeg, std::size_t outdeg)
{
    if (counts_.vertices == 0)
        HEAPMD_PANIC("removeVertex on empty DegreeHistogram");
    --counts_.vertices;
    applyVertex(indeg, outdeg, -1);
}

void
DegreeHistogram::transition(std::size_t old_in, std::size_t old_out,
                            std::size_t new_in, std::size_t new_out)
{
    if (old_in == new_in && old_out == new_out)
        return;
    applyVertex(old_in, old_out, -1);
    applyVertex(new_in, new_out, +1);
}

std::uint64_t
DegreeHistogram::indegCount(std::size_t d) const
{
    if (d >= kExactBuckets)
        HEAPMD_PANIC("indegCount bucket ", d, " not tracked");
    return counts_.indeg[d];
}

std::uint64_t
DegreeHistogram::outdegCount(std::size_t d) const
{
    if (d >= kExactBuckets)
        HEAPMD_PANIC("outdegCount bucket ", d, " not tracked");
    return counts_.outdeg[d];
}

void
DegreeHistogram::reset()
{
    *this = DegreeHistogram{};
}

void
DegreeHistogram::applyVertex(std::size_t indeg, std::size_t outdeg,
                             int delta)
{
    const auto bump = [delta](std::uint64_t &counter) {
        if (delta > 0) {
            ++counter;
        } else {
            if (counter == 0)
                HEAPMD_PANIC("DegreeHistogram bucket underflow");
            --counter;
        }
    };

    if (indeg < kExactBuckets)
        bump(counts_.indeg[indeg]);
    if (outdeg < kExactBuckets)
        bump(counts_.outdeg[outdeg]);
    if (indeg == outdeg)
        bump(counts_.inEqOut);
}

} // namespace heapmd
