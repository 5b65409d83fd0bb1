/**
 * @file
 * The monitor's name for the one anomaly detector (kept for the
 * callers that spell it this way).
 */

#ifndef HEAPMD_MONITOR_ONLINE_DETECTOR_HH
#define HEAPMD_MONITOR_ONLINE_DETECTOR_HH

#include "detector/anomaly_detector.hh"

namespace heapmd
{

namespace monitor
{

using OnlineDetector = AnomalyDetector;

} // namespace monitor

} // namespace heapmd

#endif // HEAPMD_MONITOR_ONLINE_DETECTOR_HH
