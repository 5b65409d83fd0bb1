#include "heapgraph/graph_snapshot.hh"

#include <algorithm>
#include <vector>

#include "heapgraph/heap_graph.hh"
#include "metrics/metric.hh"

namespace heapmd
{

void
saveGraphSnapshot(const HeapGraph &graph, std::ostream &os)
{
    std::vector<const ObjectRecord *> vertices;
    vertices.reserve(graph.vertexCount());
    graph.forEachObject([&](const ObjectRecord &record) {
        vertices.push_back(&record);
    });
    std::sort(vertices.begin(), vertices.end(),
              [](const ObjectRecord *a, const ObjectRecord *b) {
                  return a->id < b->id;
              });

    os << kGraphSnapshotHeader << '\n';
    os << "vertices " << vertices.size() << '\n';
    os << "edges " << graph.edgeCount() << '\n';
    for (const ObjectRecord *v : vertices) {
        os << "vertex " << v->id << " addr " << v->addr << " size "
           << v->size << " indeg " << v->indegree() << " outdeg "
           << v->outdegree() << '\n';
    }
    for (const ObjectRecord *v : vertices) {
        std::vector<ObjectId> targets;
        targets.reserve(v->outNeighbors.size());
        for (const auto &[target, multiplicity] : v->outNeighbors)
            targets.push_back(target);
        std::sort(targets.begin(), targets.end());
        for (ObjectId target : targets)
            os << "edge " << v->id << ' ' << target << '\n';
    }

    const DegreeHistogram &h = graph.histogram();
    os << "hist vertices " << h.vertexCount();
    os << " indeg";
    for (std::size_t d = 0; d < DegreeHistogram::kExactBuckets; ++d)
        os << ' ' << h.indegCount(d);
    os << " outdeg";
    for (std::size_t d = 0; d < DegreeHistogram::kExactBuckets; ++d)
        os << ' ' << h.outdegCount(d);
    os << " ineqout " << h.inEqOutCount() << '\n';

    os.precision(17);
    const std::array<double, kNumMetrics> values = h.counts().percents();
    for (MetricId id : kAllMetrics)
        os << "metric " << metricName(id) << ' ' << values[metricIndex(id)]
           << '\n';
    os << "end\n";
    os.flush();
}

} // namespace heapmd
