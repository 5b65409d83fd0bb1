/**
 * @file
 * Deterministic Prometheus text-exposition renderer.
 */

#include "obsv/prometheus.hh"

#include "metrics/metric.hh"
#include "telemetry/prom_text.hh"

namespace heapmd
{
namespace obsv
{

namespace
{

using telemetry::prom::appendF64;
using telemetry::prom::appendHeader;
using telemetry::prom::appendU64;

/** One {pid,program} label set, rendered once per snapshot. */
std::string
labelsFor(const SegmentSnapshot &snap)
{
    return "{pid=\"" + std::to_string(snap.pid) + "\",program=\"" +
           escapeLabelValue(snap.program) + "\"}";
}

struct SlotFamily
{
    Slot slot;
    const char *name; //!< full family name, incl. _total for counters
    const char *type; //!< "gauge" or "counter"
    const char *help;
};

/**
 * Fixed emission order.  Counter families carry the conventional
 * _total suffix; everything here is a plain u64 passthrough.
 */
constexpr SlotFamily kSlotFamilies[] = {
    {Slot::LiveObjects, "heapmd_live_objects", "gauge",
     "Live heap objects tracked by the capture shim."},
    {Slot::LiveBytes, "heapmd_live_bytes", "gauge",
     "Bytes in live tracked heap objects."},
    {Slot::LiveEdges, "heapmd_live_edges", "gauge",
     "Pointer edges tracked by the conservative scan."},
    {Slot::PeakLiveObjects, "heapmd_peak_live_objects", "gauge",
     "High-water mark of live tracked heap objects."},
    {Slot::AllocEvents, "heapmd_alloc_events_total", "counter",
     "Allocation events recorded by the shim."},
    {Slot::FreeEvents, "heapmd_free_events_total", "counter",
     "Free events recorded by the shim."},
    {Slot::ReallocEvents, "heapmd_realloc_events_total", "counter",
     "Realloc events recorded by the shim."},
    {Slot::EventsEmitted, "heapmd_trace_events_total", "counter",
     "Trace events written to the capture stream."},
    {Slot::ScanPasses, "heapmd_scan_passes_total", "counter",
     "Conservative pointer-scan passes completed."},
    {Slot::ScanWords, "heapmd_scan_words_total", "counter",
     "Words visited by pointer scans."},
    {Slot::ScanEdgeWrites, "heapmd_scan_edge_writes_total",
     "counter", "Edge-write deltas emitted by pointer scans."},
    {Slot::ScanEdgeClears, "heapmd_scan_edge_clears_total",
     "counter", "Edge-clear deltas emitted by pointer scans."},
    {Slot::ScanReclaimedDead, "heapmd_scan_reclaimed_dead_total",
     "counter", "Stale live-table extents reclaimed at scan time."},
    {Slot::DroppedReentrant, "heapmd_dropped_reentrant_total",
     "counter", "Allocator events dropped by the reentrancy guard."},
    {Slot::Flushes, "heapmd_flushes_total", "counter",
     "Capture-stream flush+fsync durability points."},
    {Slot::MetricPoints, "heapmd_metric_points_total", "counter",
     "Degree-metric samples published by the shim."},
};

} // namespace

std::string
renderPrometheus(const std::vector<SegmentSnapshot> &snapshots)
{
    std::string out;
    std::vector<std::string> labels;
    labels.reserve(snapshots.size());
    for (const SegmentSnapshot &snap : snapshots)
        labels.push_back(labelsFor(snap));

    for (const SlotFamily &family : kSlotFamilies) {
        appendHeader(out, family.name, family.type, family.help);
        for (std::size_t i = 0; i < snapshots.size(); ++i)
            appendU64(out, family.name, labels[i],
                            snapshots[i].value(family.slot));
    }

    appendHeader(out, "heapmd_scan_seconds_total", "counter",
                 "Wall-clock seconds spent inside pointer scans.");
    for (std::size_t i = 0; i < snapshots.size(); ++i)
        appendF64(
            out, "heapmd_scan_seconds_total", labels[i],
            static_cast<double>(snapshots[i].value(Slot::ScanNanos)) /
                1e9);

    appendHeader(out, "heapmd_metric_percent", "gauge",
                 "Degree-metric percentage from the latest scan "
                 "(absent until the first scan).");
    for (std::size_t i = 0; i < snapshots.size(); ++i) {
        const SegmentSnapshot &snap = snapshots[i];
        if (!snap.hasMetrics())
            continue;
        for (const MetricId id : kAllMetrics) {
            std::string metric_labels =
                "{pid=\"" + std::to_string(snap.pid) +
                "\",program=\"" + escapeLabelValue(snap.program) +
                "\",metric=\"" + escapeLabelValue(metricName(id)) +
                "\"}";
            appendF64(out, "heapmd_metric_percent",
                            metric_labels, snap.metricPercent(id));
        }
    }

    // Monotonic-clock identity stamps.  Deliberately *not* scrape
    // time: an idle writer must produce byte-identical scrapes.
    appendHeader(out, "heapmd_start_monotonic_ms", "gauge",
                 "Writer CLOCK_MONOTONIC at segment creation.");
    for (std::size_t i = 0; i < snapshots.size(); ++i)
        appendU64(out, "heapmd_start_monotonic_ms", labels[i],
                        snapshots[i].startMonoMs);
    appendHeader(out, "heapmd_heartbeat_monotonic_ms", "gauge",
                 "Writer CLOCK_MONOTONIC at the last publish.");
    for (std::size_t i = 0; i < snapshots.size(); ++i)
        appendU64(out, "heapmd_heartbeat_monotonic_ms",
                        labels[i], snapshots[i].heartbeatMonoMs);
    return out;
}

} // namespace obsv
} // namespace heapmd
