/**
 * @file
 * Incident bundles: durable, versioned anomaly-report artifacts.
 *
 * The paper's payoff is the context HeapMD hands a developer when a
 * stable metric crosses its calibrated extreme (Sections 2.2, 4.3).
 * An in-memory BugReport dies with the run; an incident bundle is the
 * same evidence serialized as canonical JSON -- classification,
 * crossing, calibrated range, the full call-stack context log with
 * frames resolved through the FunctionRegistry, and a window of the
 * violated metric's time series around the crossing -- so incidents
 * can be archived, diffed, rendered (`heapmd report`), audited
 * (`heapmd audit`, diag.* rules), and trended across runs
 * (`heapmd trend`).
 *
 * Schema stability contract: field names are stable once shipped;
 * additions bump kBundleSchemaVersion.  saveIncidentBundle() is
 * canonical, so save(load(save(x))) == save(x) byte for byte.
 */

#ifndef HEAPMD_DIAG_INCIDENT_BUNDLE_HH
#define HEAPMD_DIAG_INCIDENT_BUNDLE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "detector/bug_report.hh"
#include "metrics/series.hh"
#include "runtime/call_stack.hh"
#include "telemetry/json_document.hh"

namespace heapmd
{
namespace diag
{

/** Bundle document type tag (the JSON "kind" member). */
inline constexpr const char *kBundleKind = "heapmd.incident";

/** Current bundle schema version. */
inline constexpr std::uint64_t kBundleSchemaVersion = 1;

/** Default +/- pointIndex radius of the serialized metric window. */
inline constexpr std::uint64_t kDefaultWindowRadius = 16;

/** One resolved stack frame (id plus registry name at capture time). */
struct BundleFrame
{
    FnId fnId = kNoFunction;
    std::string name; //!< "<fn#N>" when the id was unregistered
};

/** One serialized call-stack snapshot from the circular buffer. */
struct BundleLogEntry
{
    std::uint64_t tick = 0;
    std::uint64_t pointIndex = 0;
    double metricValue = 0.0;
    std::vector<BundleFrame> frames; //!< innermost first
};

/** One ranked suspect (innermost-frame frequency). */
struct BundleSuspect
{
    FnId fnId = kNoFunction;
    std::string name;
    std::uint64_t snapshots = 0; //!< snapshots it was innermost in
};

/** The whole serialized incident. */
struct IncidentBundle
{
    std::uint64_t schemaVersion = kBundleSchemaVersion;
    std::string program; //!< series label ("gzip seed 3 v1")

    std::string bugClass;  //!< bugClassName()
    std::string metric;    //!< metricName()
    std::string direction; //!< anomalyDirectionName()

    double observedValue = 0.0;
    double calibratedMin = 0.0;
    double calibratedMax = 0.0;
    std::uint64_t tick = 0;
    std::uint64_t pointIndex = 0;

    /** Ranked suspects; first entry is BugReport::suspectFunction(). */
    std::vector<BundleSuspect> suspects;

    std::vector<BundleLogEntry> contextLog; //!< oldest first

    /** The violated metric around the crossing. */
    std::uint64_t windowRadius = kDefaultWindowRadius;
    std::vector<SeriesPoint> window;
};

/**
 * Build a bundle from a finalized report.  Frames are resolved
 * through @p registry (unregistered ids render as "<fn#N>"); the
 * series window is cut from @p series around the crossing point.
 */
IncidentBundle
makeIncidentBundle(const BugReport &report,
                   const FunctionRegistry &registry,
                   const MetricSeries &series,
                   std::uint64_t window_radius = kDefaultWindowRadius);

/** Canonical JSON rendering (ends with a newline). */
void saveIncidentBundle(const IncidentBundle &bundle,
                        std::ostream &os);

/** saveIncidentBundle into a string. */
std::string bundleToJson(const IncidentBundle &bundle);

/**
 * Parse a bundle document.
 * @return false with a description in @p error on malformed input.
 */
bool loadIncidentBundle(const std::string &json, IncidentBundle &out,
                        std::string *error);

/** loadIncidentBundle over a parsed document (its header re-checked). */
bool loadIncidentBundle(telemetry::DocumentHeader &header,
                        IncidentBundle &out, std::string *error);

/** loadIncidentBundle over a file's contents. */
bool loadIncidentBundleFile(const std::string &path,
                            IncidentBundle &out, std::string *error);

} // namespace diag
} // namespace heapmd

#endif // HEAPMD_DIAG_INCIDENT_BUNDLE_HH
