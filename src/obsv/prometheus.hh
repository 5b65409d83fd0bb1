/**
 * @file
 * Prometheus text exposition (format 0.0.4) over stats segments.
 *
 * `heapmd stats --format=prometheus` and `heapmd export` both feed
 * attached SegmentSnapshots through renderPrometheus().  The output
 * is deterministic — fixed family order, snapshots in the caller's
 * (pid-sorted) order, fixed-precision floats, and timestamps taken
 * from the *segment* (start / heartbeat monotonic ms), never from
 * the scraping host — so two scrapes of an idle writer are
 * byte-identical.
 */

#ifndef HEAPMD_OBSV_PROMETHEUS_HH
#define HEAPMD_OBSV_PROMETHEUS_HH

#include <string>
#include <vector>

#include "obsv/segment.hh"
#include "telemetry/prom_text.hh"

namespace heapmd
{
namespace obsv
{

/** Label escaping, shared by every heapmd scrape. */
using telemetry::prom::escapeLabelValue;

/** Render every snapshot into one exposition document. */
std::string
renderPrometheus(const std::vector<SegmentSnapshot> &snapshots);

} // namespace obsv
} // namespace heapmd

#endif // HEAPMD_OBSV_PROMETHEUS_HH
