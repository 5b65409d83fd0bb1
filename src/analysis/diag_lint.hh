/**
 * @file
 * Static linter for diagnostics artifacts: incident bundles and run
 * manifests (the src/diag JSON documents), plus the field checker and
 * header lint it shares with fleet_lint.
 *
 * Works on the raw JSON, not the diag loader structs, so a document
 * the loader would reject can still be audited field by field.  The
 * header (parse, kind, schemaVersion) is read by the same
 * telemetry::readDocumentHeader the loaders use, which lives below
 * both layers: analysis still does not depend on src/diag.
 * Whole-document findings carry no location (the canonical writer
 * fixes layout, so line numbers add nothing).
 *
 * Rule catalog (see DESIGN.md §9):
 *   diag.io                unreadable input file
 *   diag.parse             not valid JSON
 *   diag.kind              missing/wrong "kind" tag
 *   diag.version           missing or unsupported schemaVersion
 *   diag.missing-field     required member absent or mistyped (a
 *                          count or id that is not a whole number)
 *   diag.bad-metric        metric name not in the paper's seven
 *   diag.bad-class         unknown bug classification
 *   diag.bad-direction     direction not above-max/below-min
 *   diag.range-inverted    calibratedMin > calibratedMax
 *   diag.observed-in-range observed value inside the calibrated range
 *   diag.window-order      window points not strictly increasing
 *   diag.window-miss       window does not straddle the crossing
 *   diag.context-order     context log points not non-decreasing
 *   diag.empty-context     incident with no logged call stacks
 *   diag.suspect-mismatch  stored suspect != context-log majority
 *   diag.hash-format       input fingerprint not "fnv1a:<hex16>"
 *   diag.counter-order     counters/gauges not sorted by name
 *   diag.report-count      class tallies do not sum to the total
 *   diag.sample-excess     more samples than runtime events
 *   diag.bad-rule          flow incident rule not in the flow.* set
 *   diag.bad-severity      flow severity not error/warning/note
 *   diag.addr-outside      flow access address outside the extent
 *
 * lintBundleText() accepts both "heapmd.incident" bundles and the
 * "heapmd.flow" documents `audit --deep --bundle-dir` exports,
 * dispatching on the kind tag.
 */

#ifndef HEAPMD_ANALYSIS_DIAG_LINT_HH
#define HEAPMD_ANALYSIS_DIAG_LINT_HH

#include <cmath>
#include <limits>
#include <string>

#include "analysis/report.hh"
#include "telemetry/json_document.hh"

namespace heapmd
{

namespace analysis
{

/**
 * Member access for the document linters that files a
 * `<family>.missing-field` finding instead of stopping, so one pass
 * reports every defect.  One checker serves both rule families
 * ("diag", "fleet").
 */
class FieldChecker
{
  public:
    using JsonValue = telemetry::JsonValue;

    FieldChecker(Report &report, const char *family)
        : report_(report), rule_(std::string(family) + ".missing-field")
    {
    }

    /** @p key of @p kind (named @p type), or nullptr after a finding. */
    const JsonValue *
    member(const JsonValue &object, const std::string &where,
           const char *key, JsonValue::Kind kind, const char *type)
    {
        const JsonValue *found = object.find(key);
        if (found == nullptr)
            entry(where + " is missing member '" + key + "'");
        else if (found->kind != kind)
            entry(where + " member '" + key + "' is not " + type);
        else
            return found;
        return nullptr;
    }

    /** String member; "" stands in after a filed finding. */
    std::string
    str(const JsonValue &object, const std::string &where,
        const char *key)
    {
        const JsonValue *found = member(object, where, key,
                                        JsonValue::Kind::String,
                                        "a string");
        return found != nullptr ? found->string : std::string();
    }

    /** Numeric member; NaN stands in after a filed finding. */
    double
    num(const JsonValue &object, const std::string &where,
        const char *key)
    {
        const JsonValue *found = member(object, where, key,
                                        JsonValue::Kind::Number,
                                        "a number");
        return found != nullptr ? found->number : kNaN;
    }

    /**
     * A member the loader reads as a 64-bit integer (a count, id or
     * size): num() that also files a number outside that type
     * (telemetry::wholeNumberFault), and then stands in NaN.
     */
    double
    whole(const JsonValue &object, const std::string &where,
          const char *key, bool is_signed = false)
    {
        const double value = num(object, where, key);
        const char *why =
            std::isnan(value)
                ? nullptr
                : telemetry::wholeNumberFault(value, is_signed);
        if (why == nullptr)
            return value;
        entry(where + " member '" + key + "' " + why);
        return kNaN;
    }

    const JsonValue *
    array(const JsonValue &object, const std::string &where,
          const char *key)
    {
        return member(object, where, key, JsonValue::Kind::Array,
                      "an array");
    }

    const JsonValue *
    object(const JsonValue &value, const std::string &where,
           const char *key)
    {
        return member(value, where, key, JsonValue::Kind::Object,
                      "an object");
    }

    /** A mistyped member or array entry: files @p message. */
    void entry(const std::string &message)
    {
        report_.error(rule_, message);
    }

  private:
    static constexpr double kNaN =
        std::numeric_limits<double>::quiet_NaN();

    Report &report_;
    std::string rule_;
};

/**
 * File @p header's fault under `<family>.parse`, `.kind` or
 * `.version`.
 * @return false when the lint cannot go on (not JSON, not an object,
 *         another kind); a version fault is filed and the lint goes
 *         on.
 */
bool lintDocumentHeader(const telemetry::DocumentHeader &header,
                        const char *family, Report &report);

/** Scan statistics of one bundle lint pass. */
struct BundleLintStats
{
    std::size_t suspects = 0;       //!< ranked suspects listed
    std::size_t contextEntries = 0; //!< call-stack snapshots
    std::size_t frames = 0;         //!< frames across all snapshots
    std::size_t windowPoints = 0;   //!< series points in the window
};

/** Scan statistics of one manifest lint pass. */
struct ManifestLintStats
{
    std::size_t inputs = 0;   //!< input artifacts listed
    std::size_t metrics = 0;  //!< per-metric summaries
    std::size_t counters = 0; //!< telemetry counters
    std::size_t gauges = 0;   //!< telemetry gauges
    std::size_t reports = 0;  //!< anomaly reports tallied
};

/** Lint one incident-bundle document given as text. */
BundleLintStats lintBundleText(const std::string &text,
                               Report &report);

/** Lint the incident-bundle file at @p path. */
BundleLintStats lintBundleFile(const std::string &path,
                               Report &report);

/** Lint one run-manifest document given as text. */
ManifestLintStats lintManifestText(const std::string &text,
                                   Report &report);

/** Lint the run-manifest file at @p path. */
ManifestLintStats lintManifestFile(const std::string &path,
                                   Report &report);

} // namespace analysis

} // namespace heapmd

#endif // HEAPMD_ANALYSIS_DIAG_LINT_HH
