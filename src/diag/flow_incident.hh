/**
 * @file
 * Flow incidents: durable artifacts for shadow-heap flow findings.
 *
 * `heapmd audit --deep` decides heap-correctness properties straight
 * from the trace (flow.* rules, src/analysis/flow_lint.hh).  A
 * Report finding dies with the process; a flow incident is the same
 * evidence as canonical JSON -- rule, severity, faulting address,
 * the object's extent, its allocation/free site pair resolved
 * through the trace's function table, and the object lifetime -- so
 * a flow finding can be archived, rendered (`heapmd report`), and
 * audited (`heapmd audit --bundle`, diag.* rules) exactly like a
 * detector incident bundle.
 *
 * Schema stability contract matches incident_bundle.hh: field names
 * are stable once shipped; additions bump kFlowSchemaVersion.
 * saveFlowIncident() is canonical, so save(load(save(x))) == save(x)
 * byte for byte.
 */

#ifndef HEAPMD_DIAG_FLOW_INCIDENT_HH
#define HEAPMD_DIAG_FLOW_INCIDENT_HH

#include <cstdint>
#include <ostream>
#include <string>

#include "analysis/flow_lint.hh"
#include "support/types.hh"
#include "telemetry/json_document.hh"

namespace heapmd
{
namespace diag
{

/** Flow document type tag (the JSON "kind" member). */
inline constexpr const char *kFlowKind = "heapmd.flow";

/** Current flow-incident schema version. */
inline constexpr std::uint64_t kFlowSchemaVersion = 1;

/** One serialized allocation/free site. */
struct FlowSiteRecord
{
    bool known = false;
    FnId fnId = kNoFunction;
    std::string name; //!< resolved via the trace's function table
    std::uint64_t eventIndex = 0;
    std::uint64_t byteOffset = 0;
};

/** One serialized flow finding. */
struct FlowIncident
{
    std::uint64_t schemaVersion = kFlowSchemaVersion;
    std::string program; //!< the audited trace path
    std::string rule;    //!< stable id, e.g. "flow.double_free"
    std::string severity; //!< "note" | "warning" | "error"
    std::string message;
    std::uint64_t byteOffset = 0;
    std::uint64_t eventIndex = 0;
    std::uint64_t addr = 0;
    std::uint64_t base = 0;
    std::uint64_t size = 0;
    std::uint64_t lifetimeEvents = 0;
    std::uint64_t objects = 0; //!< leak/dangling: object/edge count
    std::uint64_t bytes = 0;   //!< leak: total bytes at the site
    FlowSiteRecord allocSite;
    FlowSiteRecord freeSite;
};

/**
 * Build a flow incident from one structured finding, resolving site
 * function names through the analysis' footer table.
 */
FlowIncident makeFlowIncident(const analysis::FlowAnalysis &analysis,
                              const analysis::FlowFinding &finding,
                              const std::string &program);

/** Canonical JSON rendering (ends with a newline). */
void saveFlowIncident(const FlowIncident &incident, std::ostream &os);

/** saveFlowIncident into a string. */
std::string flowIncidentToJson(const FlowIncident &incident);

/**
 * Parse a flow-incident document.
 * @return false with a description in @p error on malformed input.
 */
bool loadFlowIncident(const std::string &json, FlowIncident &out,
                      std::string *error);

/** loadFlowIncident over a parsed document (its header re-checked). */
bool loadFlowIncident(telemetry::DocumentHeader &header,
                      FlowIncident &out, std::string *error);

} // namespace diag
} // namespace heapmd

#endif // HEAPMD_DIAG_FLOW_INCIDENT_HH
