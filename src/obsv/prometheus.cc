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

/**
 * Append one catalog slot family: HELP/TYPE, then one sample per
 * snapshot.  Counter families carry the conventional _total suffix.
 */
void
appendSlotFamily(std::string &out, const CounterRow &row,
                 const std::vector<SegmentSnapshot> &snapshots,
                 const std::vector<std::string> &labels)
{
    appendHeader(out, row.family, row.type, row.help);
    for (std::size_t i = 0; i < snapshots.size(); ++i) {
        const std::uint64_t raw = snapshots[i].values[row.index];
        if (row.rendering == Rendering::NanosAsSeconds)
            appendF64(out, row.family, labels[i],
                      static_cast<double>(raw) / 1e9);
        else
            appendU64(out, row.family, labels[i], raw);
    }
}

} // namespace

std::string
renderPrometheus(const std::vector<SegmentSnapshot> &snapshots)
{
    std::string out;
    std::vector<std::string> labels;
    labels.reserve(snapshots.size());
    for (const SegmentSnapshot &snap : snapshots)
        labels.push_back(labelsFor(snap));

    // The catalog's slot families in slot order, integer families
    // first and the ones converted to seconds after them.
    for (const Rendering rendering :
         {Rendering::Integer, Rendering::NanosAsSeconds})
        for (const CounterRow &row : kCounterCatalog)
            if (row.inSlot && row.rendering == rendering)
                appendSlotFamily(out, row, snapshots, labels);

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
