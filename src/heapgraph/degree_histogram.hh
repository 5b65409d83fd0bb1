/**
 * @file
 * Incrementally-maintained vertex-degree census of the heap-graph.
 */

#ifndef HEAPMD_HEAPGRAPH_DEGREE_HISTOGRAM_HH
#define HEAPMD_HEAPGRAPH_DEGREE_HISTOGRAM_HH

#include <cstddef>
#include <cstdint>

#include "metrics/metric.hh"

namespace heapmd
{

/**
 * Counts of vertices at the low degrees the paper's seven metrics
 * observe, maintained in O(1) per degree change.
 *
 * Buckets 0, 1 and 2 are tracked exactly per the paper ("vertices of
 * the heap-graph typically have low indegrees and outdegrees, only
 * rarely exceeding 2"); higher degrees are pooled.
 */
class DegreeHistogram
{
  public:
    /** Number of exact low-degree buckets (0, 1, 2). */
    static constexpr std::size_t kExactBuckets = DegreeCounts::kBuckets;

    /** Account for a new vertex with indegree = outdegree = 0. */
    void addVertex();

    /** Account for the removal of a vertex of the given degrees. */
    void removeVertex(std::size_t indeg, std::size_t outdeg);

    /**
     * Account for one vertex's degree transition.  Call *after* the
     * underlying record has been updated, passing both snapshots.
     */
    void transition(std::size_t old_in, std::size_t old_out,
                    std::size_t new_in, std::size_t new_out);

    /** The low-degree counts, from which the seven metrics follow. */
    const DegreeCounts &counts() const { return counts_; }

    /** Total live vertices. */
    std::uint64_t vertexCount() const { return counts_.vertices; }

    /** Vertices with indegree exactly @p d (d < kExactBuckets). */
    std::uint64_t indegCount(std::size_t d) const;

    /** Vertices with outdegree exactly @p d (d < kExactBuckets). */
    std::uint64_t outdegCount(std::size_t d) const;

    /** Vertices with indegree == outdegree (any value). */
    std::uint64_t inEqOutCount() const { return counts_.inEqOut; }

    /** Drop all counts. */
    void reset();

  private:
    void applyVertex(std::size_t indeg, std::size_t outdeg, int delta);

    DegreeCounts counts_;
};

} // namespace heapmd

#endif // HEAPMD_HEAPGRAPH_DEGREE_HISTOGRAM_HH
