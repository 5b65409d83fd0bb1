#include "fleet/fleet_model.hh"

#include <sstream>

#include "diag/json.hh"
#include "telemetry/json_document.hh"
#include "telemetry/prom_text.hh"
#include "telemetry/trace_json.hh"

namespace heapmd
{
namespace fleet
{

namespace
{

using diag::JsonWriter;
using telemetry::JsonValue;
using telemetry::prom::appendF64;
using telemetry::prom::appendHeader;
using telemetry::prom::appendU64;
using telemetry::prom::escapeLabelValue;

} // namespace

void
saveFleetModel(const FleetModel &model, std::ostream &os)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("kind", kFleetKind);
    w.field("schemaVersion", kFleetSchemaVersion);
    w.field("processes", model.processes);

    w.beginObject("provenance");
    w.field("metricFrequency", model.metricFrequency);
    w.field("rotateBytes", model.rotateBytes);
    w.fieldBool("mixed", model.mixedProvenance);
    w.endObject();

    w.beginArray("members");
    for (const FleetMember &member : model.members) {
        w.beginObject();
        w.field("path", member.path);
        w.field("program", member.program);
        w.field("command", member.command);
        w.field("schemaVersion", member.schemaVersion);
        w.field("events", member.events);
        w.field("samples", member.samples);
        w.field("reports", member.reports);
        w.field("metricFrequency", member.metricFrequency);
        w.field("rotateBytes", member.rotateBytes);
        w.endObject();
    }
    w.endArray();

    w.beginArray("metrics");
    for (const FleetMetricRange &range : model.metrics) {
        w.beginObject();
        w.field("metric", range.metric);
        w.field("members", range.members);
        w.field("samples", range.samples);
        w.field("min", range.min);
        w.field("max", range.max);
        w.field("mean", range.mean);
        w.field("stddev", range.stddev);
        w.endObject();
    }
    w.endArray();

    w.beginArray("outliers");
    for (const FleetOutlier &outlier : model.outliers) {
        w.beginObject();
        w.field("path", outlier.path);
        w.field("metric", outlier.metric);
        w.field("score", outlier.score);
        w.field("memberMean", outlier.memberMean);
        w.field("fleetMean", outlier.fleetMean);
        w.endObject();
    }
    w.endArray();

    w.beginArray("incidents");
    for (const FleetIncident &incident : model.incidents) {
        w.beginObject();
        w.field("signature", incident.signature);
        w.field("count", incident.count);
        w.beginArray("members");
        for (const std::string &member : incident.members)
            w.element(member);
        w.endArray();
        w.endObject();
    }
    w.endArray();

    w.endObject();
    os << '\n';
}

std::string
fleetToJson(const FleetModel &model)
{
    std::ostringstream os;
    saveFleetModel(model, os);
    return os.str();
}

bool
loadFleetModel(const std::string &json, FleetModel &out,
               std::string *error)
{
    using diag::jsonArray;
    using diag::jsonBool;
    using diag::jsonNumber;
    using diag::jsonObject;
    using diag::jsonString;
    using diag::jsonU64;

    const telemetry::LoadError fail{error, "fleet model"};
    telemetry::DocumentHeader header;
    if (!telemetry::readDocumentHeader(json, kFleetKind,
                                       kFleetSchemaVersion, header))
        return fail(header);
    const JsonValue &root = header.root;
    FleetModel model;
    model.schemaVersion = header.version;
    if (!jsonU64(root, "processes", model.processes, error))
        return false;

    const JsonValue *provenance =
        jsonObject(root, "provenance", error);
    if (provenance == nullptr)
        return false;
    if (!jsonU64(*provenance, "metricFrequency",
                 model.metricFrequency, error) ||
        !jsonU64(*provenance, "rotateBytes", model.rotateBytes,
                 error) ||
        !jsonBool(*provenance, "mixed", model.mixedProvenance,
                  error)) {
        return false;
    }

    const JsonValue *members = jsonArray(root, "members", error);
    if (members == nullptr)
        return false;
    for (const JsonValue &entry : members->array) {
        if (!entry.isObject())
            return fail("members entry is not an object");
        FleetMember member;
        if (!jsonString(entry, "path", member.path, error) ||
            !jsonString(entry, "program", member.program, error) ||
            !jsonString(entry, "command", member.command, error) ||
            !jsonU64(entry, "schemaVersion", member.schemaVersion,
                     error) ||
            !jsonU64(entry, "events", member.events, error) ||
            !jsonU64(entry, "samples", member.samples, error) ||
            !jsonU64(entry, "reports", member.reports, error) ||
            !jsonU64(entry, "metricFrequency",
                     member.metricFrequency, error) ||
            !jsonU64(entry, "rotateBytes", member.rotateBytes,
                     error)) {
            return false;
        }
        model.members.push_back(std::move(member));
    }

    const JsonValue *metrics = jsonArray(root, "metrics", error);
    if (metrics == nullptr)
        return false;
    for (const JsonValue &entry : metrics->array) {
        if (!entry.isObject())
            return fail("metrics entry is not an object");
        FleetMetricRange range;
        if (!jsonString(entry, "metric", range.metric, error) ||
            !jsonU64(entry, "members", range.members, error) ||
            !jsonU64(entry, "samples", range.samples, error) ||
            !jsonNumber(entry, "min", range.min, error) ||
            !jsonNumber(entry, "max", range.max, error) ||
            !jsonNumber(entry, "mean", range.mean, error) ||
            !jsonNumber(entry, "stddev", range.stddev, error)) {
            return false;
        }
        model.metrics.push_back(std::move(range));
    }

    const JsonValue *outliers = jsonArray(root, "outliers", error);
    if (outliers == nullptr)
        return false;
    for (const JsonValue &entry : outliers->array) {
        if (!entry.isObject())
            return fail("outliers entry is not an object");
        FleetOutlier outlier;
        if (!jsonString(entry, "path", outlier.path, error) ||
            !jsonString(entry, "metric", outlier.metric, error) ||
            !jsonNumber(entry, "score", outlier.score, error) ||
            !jsonNumber(entry, "memberMean", outlier.memberMean,
                        error) ||
            !jsonNumber(entry, "fleetMean", outlier.fleetMean,
                        error)) {
            return false;
        }
        model.outliers.push_back(std::move(outlier));
    }

    const JsonValue *incidents = jsonArray(root, "incidents", error);
    if (incidents == nullptr)
        return false;
    for (const JsonValue &entry : incidents->array) {
        if (!entry.isObject())
            return fail("incidents entry is not an object");
        FleetIncident incident;
        if (!jsonString(entry, "signature", incident.signature,
                        error) ||
            !jsonU64(entry, "count", incident.count, error)) {
            return false;
        }
        const JsonValue *paths = jsonArray(entry, "members", error);
        if (paths == nullptr)
            return false;
        for (const JsonValue &path : paths->array) {
            if (!path.isString()) {
                return fail("incident members entry is not a string");
            }
            incident.members.push_back(path.string);
        }
        model.incidents.push_back(std::move(incident));
    }

    out = std::move(model);
    return true;
}

bool
loadFleetModelFile(const std::string &path, FleetModel &out,
                   std::string *error)
{
    std::string text;
    if (!telemetry::readFileText(path, text, error))
        return false;
    return loadFleetModel(text, out, error);
}

std::string
renderFleetPrometheus(const FleetModel &model)
{
    std::string out;

    appendHeader(out, "heapmd_fleet_processes", "gauge",
                 "Processes folded into the fleet model.");
    appendU64(out, "heapmd_fleet_processes", "", model.processes);

    appendHeader(out, "heapmd_fleet_mixed_provenance", "gauge",
                 "1 when members disagree on sampling/rotation "
                 "provenance.");
    appendU64(out, "heapmd_fleet_mixed_provenance", "",
              model.mixedProvenance ? 1 : 0);

    appendHeader(out, "heapmd_fleet_outliers", "gauge",
                 "Member/metric pairs attributed as outliers.");
    appendU64(out, "heapmd_fleet_outliers", "",
              model.outliers.size());

    appendHeader(out, "heapmd_fleet_incident_clusters", "gauge",
                 "Distinct incident clusters across the fleet.");
    appendU64(out, "heapmd_fleet_incident_clusters", "",
              model.incidents.size());

    appendHeader(out, "heapmd_fleet_metric_members", "gauge",
                 "Members that sampled the metric.");
    for (const FleetMetricRange &range : model.metrics) {
        appendU64(out, "heapmd_fleet_metric_members",
                  "{metric=\"" + escapeLabelValue(range.metric) + "\"}",
                  range.members);
    }

    struct RangeField
    {
        const char *name;
        const char *help;
        double FleetMetricRange::*value;
    };
    const RangeField fields[] = {
        {"heapmd_fleet_metric_min",
         "Pooled stable-range minimum (percent).",
         &FleetMetricRange::min},
        {"heapmd_fleet_metric_max",
         "Pooled stable-range maximum (percent).",
         &FleetMetricRange::max},
        {"heapmd_fleet_metric_mean",
         "Weighted mean of member means (percent).",
         &FleetMetricRange::mean},
        {"heapmd_fleet_metric_stddev",
         "Weighted stddev of member means (percent).",
         &FleetMetricRange::stddev},
    };
    for (const RangeField &field : fields) {
        appendHeader(out, field.name, "gauge", field.help);
        for (const FleetMetricRange &range : model.metrics) {
            appendF64(out, field.name,
                      "{metric=\"" + escapeLabelValue(range.metric) +
                          "\"}",
                      range.*(field.value));
        }
    }

    appendHeader(out, "heapmd_fleet_outlier_score", "gauge",
                 "Leave-one-out z-score of each attributed outlier.");
    for (const FleetOutlier &outlier : model.outliers) {
        appendF64(out, "heapmd_fleet_outlier_score",
                  "{path=\"" + escapeLabelValue(outlier.path) +
                      "\",metric=\"" + escapeLabelValue(outlier.metric) +
                      "\"}",
                  outlier.score);
    }

    // NOT *_count: _count/_sum/_bucket are reserved histogram and
    // summary suffixes, so a scraper would fold such a sample into
    // a non-existent 'heapmd_fleet_incident' family.
    appendHeader(out, "heapmd_fleet_incident_bundles", "gauge",
                 "Bundles folded into each incident cluster.");
    for (const FleetIncident &incident : model.incidents) {
        appendU64(out, "heapmd_fleet_incident_bundles",
                  "{signature=\"" + escapeLabelValue(incident.signature) +
                      "\"}",
                  incident.count);
    }

    return out;
}

} // namespace fleet
} // namespace heapmd
