#include "metrics/site_metrics.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "heapgraph/heap_graph.hh"

namespace heapmd
{

namespace
{

struct SiteAccumulator
{
    DegreeCounts degrees;
    std::uint64_t bytes = 0;
};

} // namespace

std::vector<SiteMetrics>
computeSiteMetrics(const HeapGraph &graph, std::size_t top_k,
                   std::uint64_t min_objects)
{
    std::unordered_map<FnId, SiteAccumulator> acc;
    graph.forEachObject([&](const ObjectRecord &rec) {
        SiteAccumulator &a = acc[graph.provenanceOf(rec).allocSite];
        a.degrees.add(rec.indegree(), rec.outdegree());
        a.bytes += rec.size;
    });

    std::vector<SiteMetrics> sites;
    sites.reserve(acc.size());
    for (const auto &[site, a] : acc) {
        if (a.degrees.vertices < min_objects)
            continue;
        SiteMetrics m;
        m.site = site;
        m.objectCount = a.degrees.vertices;
        m.liveBytes = a.bytes;
        m.values = a.degrees.percents();
        sites.push_back(m);
    }

    std::sort(sites.begin(), sites.end(),
              [](const SiteMetrics &a, const SiteMetrics &b) {
                  if (a.objectCount != b.objectCount)
                      return a.objectCount > b.objectCount;
                  return a.site < b.site; // deterministic tie order
              });
    if (top_k != 0 && sites.size() > top_k)
        sites.resize(top_k);
    return sites;
}

std::size_t
mostDeviantSite(const std::vector<SiteMetrics> &sites, MetricId id,
                double heap_value)
{
    std::size_t best = static_cast<std::size_t>(-1);
    double best_deviation = -1.0;
    for (std::size_t i = 0; i < sites.size(); ++i) {
        const double deviation =
            std::fabs(sites[i].value(id) - heap_value);
        if (deviation > best_deviation) {
            best_deviation = deviation;
            best = i;
        }
    }
    return best;
}

std::size_t
mostCulpableSite(const std::vector<SiteMetrics> &sites, MetricId id,
                 double heap_value, bool above_max)
{
    std::size_t best = static_cast<std::size_t>(-1);
    double best_contribution = -1.0;
    for (std::size_t i = 0; i < sites.size(); ++i) {
        double contribution =
            static_cast<double>(sites[i].objectCount) *
            (sites[i].value(id) - heap_value);
        if (!above_max)
            contribution = -contribution;
        if (contribution > best_contribution) {
            best_contribution = contribution;
            best = i;
        }
    }
    return best;
}

std::size_t
largestPropertyGrowth(const std::vector<SiteMetrics> &before,
                      const std::vector<SiteMetrics> &after,
                      MetricId id, bool above_max)
{
    const auto property_count = [id](const SiteMetrics &m) {
        return static_cast<double>(m.objectCount) * m.value(id) /
               100.0;
    };

    std::size_t best = static_cast<std::size_t>(-1);
    double best_growth = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < after.size(); ++i) {
        double baseline = 0.0;
        for (const SiteMetrics &m : before) {
            if (m.site == after[i].site) {
                baseline = property_count(m);
                break;
            }
        }
        double growth = property_count(after[i]) - baseline;
        if (!above_max)
            growth = -growth;
        if (growth > best_growth) {
            best_growth = growth;
            best = i;
        }
    }
    return best;
}

} // namespace heapmd
