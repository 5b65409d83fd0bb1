#include "diag/incident_bundle.hh"

#include <sstream>

#include "diag/json.hh"
#include "telemetry/json_document.hh"
#include "telemetry/telemetry.hh"

namespace heapmd
{
namespace diag
{

IncidentBundle
makeIncidentBundle(const BugReport &report,
                   const FunctionRegistry &registry,
                   const MetricSeries &series,
                   std::uint64_t window_radius)
{
    IncidentBundle bundle;
    bundle.program = series.label;
    bundle.bugClass = bugClassName(report.klass);
    bundle.metric = metricName(report.metric);
    bundle.direction = anomalyDirectionName(report.direction);
    bundle.observedValue = report.observedValue;
    bundle.calibratedMin = report.calibratedMin;
    bundle.calibratedMax = report.calibratedMax;
    bundle.tick = report.tick;
    bundle.pointIndex = report.pointIndex;

    for (const auto &[fn, count] : report.suspectRanking())
        bundle.suspects.push_back({fn, registry.name(fn), count});

    bundle.contextLog.reserve(report.contextLog.size());
    for (const StackLogEntry &entry : report.contextLog) {
        BundleLogEntry out;
        out.tick = entry.tick;
        out.pointIndex = entry.pointIndex;
        out.metricValue = entry.metricValue;
        out.frames.reserve(entry.frames.size());
        for (FnId fn : entry.frames)
            out.frames.push_back({fn, registry.name(fn)});
        bundle.contextLog.push_back(std::move(out));
    }

    bundle.windowRadius = window_radius;
    bundle.window =
        series.window(report.metric, report.pointIndex, window_radius);
    HEAPMD_COUNTER_INC("diag.bundles_built");
    return bundle;
}

void
saveIncidentBundle(const IncidentBundle &bundle, std::ostream &os)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("kind", kBundleKind);
    w.field("schemaVersion", bundle.schemaVersion);
    w.field("program", bundle.program);
    w.field("bugClass", bundle.bugClass);
    w.field("metric", bundle.metric);
    w.field("direction", bundle.direction);
    w.field("observedValue", bundle.observedValue);
    w.field("calibratedMin", bundle.calibratedMin);
    w.field("calibratedMax", bundle.calibratedMax);
    w.field("tick", bundle.tick);
    w.field("pointIndex", bundle.pointIndex);
    w.beginArray("suspects");
    for (const BundleSuspect &suspect : bundle.suspects) {
        w.beginObject();
        w.field("fnId", static_cast<std::uint64_t>(suspect.fnId));
        w.field("name", suspect.name);
        w.field("snapshots", suspect.snapshots);
        w.endObject();
    }
    w.endArray();
    w.beginArray("contextLog");
    for (const BundleLogEntry &entry : bundle.contextLog) {
        w.beginObject();
        w.field("tick", entry.tick);
        w.field("pointIndex", entry.pointIndex);
        w.field("metricValue", entry.metricValue);
        w.beginArray("frames");
        for (const BundleFrame &frame : entry.frames) {
            w.beginObject();
            w.field("fnId", static_cast<std::uint64_t>(frame.fnId));
            w.field("name", frame.name);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.beginObject("window");
    w.field("metric", bundle.metric);
    w.field("radius", bundle.windowRadius);
    w.beginArray("points");
    for (const SeriesPoint &point : bundle.window) {
        w.beginObject();
        w.field("pointIndex", point.pointIndex);
        w.field("tick", static_cast<std::uint64_t>(point.tick));
        w.field("value", point.value);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    w.endObject();
    os << "\n";
}

std::string
bundleToJson(const IncidentBundle &bundle)
{
    std::ostringstream os;
    saveIncidentBundle(bundle, os);
    return os.str();
}

namespace
{

bool
loadFrames(const telemetry::JsonValue &entry,
           std::vector<BundleFrame> &out,
           const telemetry::LoadError &fail)
{
    const telemetry::JsonValue *frames =
        jsonArray(entry, "frames", fail.out);
    if (frames == nullptr)
        return false;
    for (const telemetry::JsonValue &frame : frames->array) {
        if (!frame.isObject())
            return fail("frame is not an object");
        BundleFrame parsed;
        std::uint64_t id = 0;
        if (!jsonU64(frame, "fnId", id, fail.out) ||
            !jsonString(frame, "name", parsed.name, fail.out)) {
            return false;
        }
        parsed.fnId = static_cast<FnId>(id);
        out.push_back(std::move(parsed));
    }
    return true;
}

} // namespace

bool
loadIncidentBundle(const std::string &json, IncidentBundle &out,
                   std::string *error)
{
    telemetry::DocumentHeader header;
    telemetry::readDocumentHeader(json, kBundleKind,
                                  kBundleSchemaVersion, header);
    return loadIncidentBundle(header, out, error);
}

bool
loadIncidentBundle(telemetry::DocumentHeader &header,
                   IncidentBundle &out, std::string *error)
{
    const telemetry::LoadError fail{error, "incident bundle"};
    if (!telemetry::checkDocumentHeader(header, kBundleKind,
                                        kBundleSchemaVersion))
        return fail(header);
    const telemetry::JsonValue &root = header.root;
    IncidentBundle bundle;
    bundle.schemaVersion = header.version;

    if (!jsonString(root, "program", bundle.program, error) ||
        !jsonString(root, "bugClass", bundle.bugClass, error) ||
        !jsonString(root, "metric", bundle.metric, error) ||
        !jsonString(root, "direction", bundle.direction, error) ||
        !jsonNumber(root, "observedValue", bundle.observedValue,
                    error) ||
        !jsonNumber(root, "calibratedMin", bundle.calibratedMin,
                    error) ||
        !jsonNumber(root, "calibratedMax", bundle.calibratedMax,
                    error) ||
        !jsonU64(root, "tick", bundle.tick, error) ||
        !jsonU64(root, "pointIndex", bundle.pointIndex, error)) {
        return false;
    }

    const telemetry::JsonValue *suspects =
        jsonArray(root, "suspects", error);
    if (suspects == nullptr)
        return false;
    for (const telemetry::JsonValue &suspect : suspects->array) {
        if (!suspect.isObject())
            return fail("suspects entry is not an object");
        BundleSuspect parsed;
        std::uint64_t id = 0;
        if (!jsonU64(suspect, "fnId", id, error) ||
            !jsonString(suspect, "name", parsed.name, error) ||
            !jsonU64(suspect, "snapshots", parsed.snapshots, error)) {
            return false;
        }
        parsed.fnId = static_cast<FnId>(id);
        bundle.suspects.push_back(std::move(parsed));
    }

    const telemetry::JsonValue *log =
        jsonArray(root, "contextLog", error);
    if (log == nullptr)
        return false;
    for (const telemetry::JsonValue &entry : log->array) {
        if (!entry.isObject())
            return fail("contextLog entry is not an object");
        BundleLogEntry parsed;
        if (!jsonU64(entry, "tick", parsed.tick, error) ||
            !jsonU64(entry, "pointIndex", parsed.pointIndex, error) ||
            !jsonNumber(entry, "metricValue", parsed.metricValue,
                        error) ||
            !loadFrames(entry, parsed.frames, fail)) {
            return false;
        }
        bundle.contextLog.push_back(std::move(parsed));
    }

    const telemetry::JsonValue *window =
        jsonObject(root, "window", error);
    if (window == nullptr)
        return false;
    std::string window_metric;
    if (!jsonString(*window, "metric", window_metric, error) ||
        !jsonU64(*window, "radius", bundle.windowRadius, error)) {
        return false;
    }
    if (window_metric != bundle.metric)
        return fail("window metric '" + window_metric +
                               "' does not match '" + bundle.metric +
                               "'");
    const telemetry::JsonValue *points =
        jsonArray(*window, "points", error);
    if (points == nullptr)
        return false;
    for (const telemetry::JsonValue &point : points->array) {
        if (!point.isObject())
            return fail("window point is not an object");
        SeriesPoint parsed;
        std::uint64_t tick = 0;
        if (!jsonU64(point, "pointIndex", parsed.pointIndex, error) ||
            !jsonU64(point, "tick", tick, error) ||
            !jsonNumber(point, "value", parsed.value, error)) {
            return false;
        }
        parsed.tick = tick;
        bundle.window.push_back(parsed);
    }

    out = std::move(bundle);
    return true;
}

bool
loadIncidentBundleFile(const std::string &path, IncidentBundle &out,
                       std::string *error)
{
    std::string text;
    if (!telemetry::readFileText(path, text, error))
        return false;
    return loadIncidentBundle(text, out, error);
}

} // namespace diag
} // namespace heapmd
