#include "diag/flow_incident.hh"

#include <sstream>

#include "diag/json.hh"
#include "telemetry/json_document.hh"
#include "telemetry/telemetry.hh"

namespace heapmd
{
namespace diag
{

namespace
{

FlowSiteRecord
siteRecord(const analysis::FlowAnalysis &analysis,
           const analysis::FlowSite &site)
{
    FlowSiteRecord out;
    out.known = site.known;
    if (!site.known)
        return out;
    out.fnId = site.fn;
    out.name = analysis.fnName(site.fn);
    out.eventIndex = site.eventIndex;
    out.byteOffset = site.byteOffset;
    return out;
}

void
saveSite(JsonWriter &w, const char *key, const FlowSiteRecord &site)
{
    w.beginObject(key);
    w.fieldBool("known", site.known);
    w.field("fnId", static_cast<std::uint64_t>(site.fnId));
    w.field("name", site.name);
    w.field("eventIndex", site.eventIndex);
    w.field("byteOffset", site.byteOffset);
    w.endObject();
}

bool
loadSite(const telemetry::JsonValue &root, const char *key,
         FlowSiteRecord &out, std::string *error)
{
    const telemetry::JsonValue *site = jsonObject(root, key, error);
    if (site == nullptr)
        return false;
    std::uint64_t id = 0;
    if (!jsonBool(*site, "known", out.known, error) ||
        !jsonU64(*site, "fnId", id, error) ||
        !jsonString(*site, "name", out.name, error) ||
        !jsonU64(*site, "eventIndex", out.eventIndex, error) ||
        !jsonU64(*site, "byteOffset", out.byteOffset, error)) {
        return false;
    }
    out.fnId = static_cast<FnId>(id);
    return true;
}

} // namespace

FlowIncident
makeFlowIncident(const analysis::FlowAnalysis &analysis,
                 const analysis::FlowFinding &finding,
                 const std::string &program)
{
    FlowIncident out;
    out.program = program;
    out.rule = finding.rule;
    out.severity = analysis::severityName(finding.severity);
    out.message = finding.message;
    out.byteOffset = finding.byteOffset;
    out.eventIndex = finding.eventIndex;
    out.addr = finding.addr;
    out.base = finding.base;
    out.size = finding.size;
    out.lifetimeEvents = finding.lifetimeEvents;
    out.objects = finding.objects;
    out.bytes = finding.bytes;
    out.allocSite = siteRecord(analysis, finding.allocSite);
    out.freeSite = siteRecord(analysis, finding.freeSite);
    HEAPMD_COUNTER_INC("diag.flow_incidents_built");
    return out;
}

void
saveFlowIncident(const FlowIncident &incident, std::ostream &os)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("kind", kFlowKind);
    w.field("schemaVersion", incident.schemaVersion);
    w.field("program", incident.program);
    w.field("rule", incident.rule);
    w.field("severity", incident.severity);
    w.field("message", incident.message);
    w.field("byteOffset", incident.byteOffset);
    w.field("eventIndex", incident.eventIndex);
    w.field("addr", incident.addr);
    w.field("base", incident.base);
    w.field("size", incident.size);
    w.field("lifetimeEvents", incident.lifetimeEvents);
    w.field("objects", incident.objects);
    w.field("bytes", incident.bytes);
    saveSite(w, "allocSite", incident.allocSite);
    saveSite(w, "freeSite", incident.freeSite);
    w.endObject();
    os << "\n";
}

std::string
flowIncidentToJson(const FlowIncident &incident)
{
    std::ostringstream os;
    saveFlowIncident(incident, os);
    return os.str();
}

bool
loadFlowIncident(const std::string &json, FlowIncident &out,
                 std::string *error)
{
    telemetry::DocumentHeader header;
    telemetry::readDocumentHeader(json, kFlowKind, kFlowSchemaVersion,
                                  header);
    return loadFlowIncident(header, out, error);
}

bool
loadFlowIncident(telemetry::DocumentHeader &header, FlowIncident &out,
                 std::string *error)
{
    if (!telemetry::checkDocumentHeader(header, kFlowKind,
                                        kFlowSchemaVersion))
        return telemetry::LoadError{error, "flow incident"}(header);
    const telemetry::JsonValue &root = header.root;
    FlowIncident incident;
    incident.schemaVersion = header.version;

    if (!jsonString(root, "program", incident.program, error) ||
        !jsonString(root, "rule", incident.rule, error) ||
        !jsonString(root, "severity", incident.severity, error) ||
        !jsonString(root, "message", incident.message, error) ||
        !jsonU64(root, "byteOffset", incident.byteOffset, error) ||
        !jsonU64(root, "eventIndex", incident.eventIndex, error) ||
        !jsonU64(root, "addr", incident.addr, error) ||
        !jsonU64(root, "base", incident.base, error) ||
        !jsonU64(root, "size", incident.size, error) ||
        !jsonU64(root, "lifetimeEvents", incident.lifetimeEvents,
                 error) ||
        !jsonU64(root, "objects", incident.objects, error) ||
        !jsonU64(root, "bytes", incident.bytes, error) ||
        !loadSite(root, "allocSite", incident.allocSite, error) ||
        !loadSite(root, "freeSite", incident.freeSite, error)) {
        return false;
    }

    out = std::move(incident);
    return true;
}

} // namespace diag
} // namespace heapmd
