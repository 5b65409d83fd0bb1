/**
 * @file
 * Identifiers for the heap-graph degree metrics.
 */

#ifndef HEAPMD_METRICS_METRIC_HH
#define HEAPMD_METRICS_METRIC_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace heapmd
{

/**
 * The seven degree-based metrics of Section 2.1, in paper order.
 * Each is a percentage of live heap-graph vertices.
 */
enum class MetricId : std::size_t
{
    Roots,   //!< % vertices with indegree = 0
    Indeg1,  //!< % vertices with indegree = 1
    Indeg2,  //!< % vertices with indegree = 2
    Leaves,  //!< % vertices with outdegree = 0
    Outdeg1, //!< % vertices with outdegree = 1
    Outdeg2, //!< % vertices with outdegree = 2
    InEqOut, //!< % vertices with indegree = outdegree
};

/** Number of core metrics. */
inline constexpr std::size_t kNumMetrics = 7;

/** All metric ids, for iteration. */
inline constexpr std::array<MetricId, kNumMetrics> kAllMetrics = {
    MetricId::Roots,   MetricId::Indeg1,  MetricId::Indeg2,
    MetricId::Leaves,  MetricId::Outdeg1, MetricId::Outdeg2,
    MetricId::InEqOut,
};

/** Zero-based index of a metric id. */
constexpr std::size_t
metricIndex(MetricId id)
{
    return static_cast<std::size_t>(id);
}

/**
 * The vertex counts behind the seven metrics: how many vertices have
 * indegree and outdegree 0, 1 and 2, and how many have indegree equal
 * to outdegree.  Every metric calculator fills one of these and reads
 * its percentages, so the count-to-metric mapping lives only here.
 */
struct DegreeCounts
{
    /** Exact low-degree buckets: degrees 0, 1 and 2. */
    static constexpr std::size_t kBuckets = 3;

    std::uint64_t vertices = 0;
    std::uint64_t indeg[kBuckets] = {};
    std::uint64_t outdeg[kBuckets] = {};
    std::uint64_t inEqOut = 0;

    bool operator==(const DegreeCounts &) const = default;

    /** Count one vertex of the given degrees. */
    void
    add(std::uint64_t in, std::uint64_t out)
    {
        ++vertices;
        if (in < kBuckets)
            ++indeg[in];
        if (out < kBuckets)
            ++outdeg[out];
        if (in == out)
            ++inEqOut;
    }

    /** @p count as a percentage of the vertices; 0 when there are none. */
    double
    percent(std::uint64_t count) const
    {
        return vertices == 0 ? 0.0
                             : 100.0 * static_cast<double>(count) /
                                   static_cast<double>(vertices);
    }

    /** The seven metrics, indexed by metricIndex(). */
    std::array<double, kNumMetrics>
    percents() const
    {
        return {percent(indeg[0]),  percent(indeg[1]),
                percent(indeg[2]),  percent(outdeg[0]),
                percent(outdeg[1]), percent(outdeg[2]),
                percent(inEqOut)};
    }
};

/** Short display name matching the paper's tables (e.g. "Outdeg=1"). */
const std::string &metricName(MetricId id);

/** Parse a short display name back to an id; panics on unknown name. */
MetricId metricFromName(const std::string &name);

/** Parse a display name back to an id; nullopt on unknown name. */
std::optional<MetricId> tryMetricFromName(const std::string &name);

} // namespace heapmd

#endif // HEAPMD_METRICS_METRIC_HH
