#include "metrics/metric_engine.hh"

#include "heapgraph/graph_algorithms.hh"
#include "heapgraph/heap_graph.hh"
#include "telemetry/telemetry.hh"

namespace heapmd
{

MetricSample
MetricEngine::sample(const HeapGraph &graph, Tick tick,
                     std::uint64_t point_index)
{
    const DegreeCounts &counts = graph.histogram().counts();
    MetricSample s;
    s.tick = tick;
    s.pointIndex = point_index;
    s.vertexCount = counts.vertices;
    s.edgeCount = graph.edgeCount();
    s.values = counts.percents(); // all 0 on an empty heap
    return s;
}

ExtendedSample
MetricEngine::sampleExtended(const HeapGraph &graph, Tick tick,
                             std::uint64_t point_index)
{
    HEAPMD_TRACE_SPAN("metrics.sample_extended");
    HEAPMD_COUNTER_INC("metrics.extended_samples");
    ExtendedSample s;
    s.tick = tick;
    s.pointIndex = point_index;
    const ComponentSummary weak = connectedComponents(graph);
    s.componentCount = weak.count;
    s.largestComponent = weak.largest;
    s.meanComponentSize = weak.meanSize;
    s.sccCount = stronglyConnectedComponents(graph).count;
    return s;
}

} // namespace heapmd
