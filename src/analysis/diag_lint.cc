#include "analysis/diag_lint.hh"

#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "detector/bug_report.hh"
#include "detector/classification.hh"
#include "metrics/metric.hh"
#include "support/hash.hh"
#include "support/types.hh"
#include "telemetry/trace_json.hh"

namespace heapmd
{

namespace analysis
{

namespace
{

using telemetry::JsonValue;

/**
 * Member access that files a diag.missing-field finding instead of
 * returning an error string: the lint keeps walking after a miss so
 * one pass reports every defect.
 */
class Checker
{
  public:
    explicit Checker(Report &report) : report_(report) {}

    const JsonValue *
    member(const JsonValue &object, const std::string &where,
           const char *key, JsonValue::Kind kind, const char *type)
    {
        const JsonValue *found = object.find(key);
        if (found == nullptr) {
            report_.error("diag.missing-field",
                          where + " is missing member '" + key + "'");
            return nullptr;
        }
        if (found->kind != kind) {
            report_.error("diag.missing-field",
                          where + " member '" + key + "' is not " +
                              type);
            return nullptr;
        }
        return found;
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
        return found != nullptr ? found->number
                                : std::numeric_limits<double>::quiet_NaN();
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

  private:
    Report &report_;
};

/**
 * Shared preamble: parse, check kind tag and schema version.
 * Versions 1..@p supported_version pass; the document's version is
 * written to @p version_out (0 if missing/mistyped) so callers can
 * lint version-gated sections.
 */
const char *
parsePreamble(const std::string &text, const char *expected_kind,
              std::uint64_t supported_version, JsonValue &root,
              Report &report, std::uint64_t *version_out = nullptr)
{
    if (version_out != nullptr)
        *version_out = 0;
    std::string error;
    if (!telemetry::parseJson(text, root, &error)) {
        report.error("diag.parse", error);
        return nullptr;
    }
    if (!root.isObject()) {
        report.error("diag.parse", "document root is not an object");
        return nullptr;
    }
    const JsonValue *kind = root.find("kind");
    if (kind == nullptr || !kind->isString()) {
        report.error("diag.kind",
                     "document has no string 'kind' tag");
        return nullptr;
    }
    if (kind->string != expected_kind) {
        report.error("diag.kind", "kind '" + kind->string +
                                      "' is not '" + expected_kind +
                                      "'");
        return nullptr;
    }
    const JsonValue *version = root.find("schemaVersion");
    if (version == nullptr || !version->isNumber()) {
        report.error("diag.version",
                     "document has no numeric schemaVersion");
    } else if (version->number < 1 ||
               version->number > supported_version) {
        report.error("diag.version",
                     "unsupported schemaVersion " +
                         std::to_string(version->number));
    } else if (version_out != nullptr) {
        *version_out = static_cast<std::uint64_t>(version->number);
    }
    return expected_kind;
}

void
lintBundleSuspects(const JsonValue &root, Checker &check,
                   Report &report, BundleLintStats &stats)
{
    const JsonValue *suspects = check.array(root, "bundle", "suspects");
    const JsonValue *log = check.array(root, "bundle", "contextLog");

    // Tally the innermost frame of every snapshot to cross-check the
    // stored suspect ranking (lowest FnId wins ties, mirroring
    // BugReport::suspectRanking()).
    std::map<std::uint64_t, std::size_t> innermost;
    if (log != nullptr) {
        double prev_point = -1.0;
        for (const JsonValue &entry : log->array) {
            if (!entry.isObject()) {
                report.error("diag.missing-field",
                             "contextLog entry is not an object");
                continue;
            }
            ++stats.contextEntries;
            const double point =
                check.num(entry, "contextLog entry", "pointIndex");
            check.num(entry, "contextLog entry", "tick");
            check.num(entry, "contextLog entry", "metricValue");
            if (!std::isnan(point)) {
                if (point < prev_point) {
                    report.warning(
                        "diag.context-order",
                        "contextLog pointIndex goes backwards at " +
                            std::to_string(point));
                }
                prev_point = point;
            }
            const JsonValue *frames =
                check.array(entry, "contextLog entry", "frames");
            if (frames == nullptr)
                continue;
            bool first = true;
            for (const JsonValue &frame : frames->array) {
                if (!frame.isObject()) {
                    report.error("diag.missing-field",
                                 "frame is not an object");
                    continue;
                }
                ++stats.frames;
                const double id = check.num(frame, "frame", "fnId");
                check.str(frame, "frame", "name");
                if (first && !std::isnan(id)) {
                    ++innermost[static_cast<std::uint64_t>(id)];
                    first = false;
                }
            }
        }
        if (log->array.empty()) {
            report.warning("diag.empty-context",
                           "incident carries no logged call stacks");
        }
    }

    if (suspects == nullptr)
        return;
    for (const JsonValue &suspect : suspects->array) {
        if (!suspect.isObject()) {
            report.error("diag.missing-field",
                         "suspects entry is not an object");
            continue;
        }
        ++stats.suspects;
        check.num(suspect, "suspect", "fnId");
        check.str(suspect, "suspect", "name");
        check.num(suspect, "suspect", "snapshots");
    }
    if (!suspects->array.empty() && !innermost.empty()) {
        std::uint64_t best_fn = 0;
        std::size_t best_count = 0;
        for (const auto &[fn, count] : innermost) {
            if (count > best_count) {
                best_fn = fn;
                best_count = count;
            }
        }
        const JsonValue &top = suspects->array.front();
        const JsonValue *top_id =
            top.isObject() ? top.find("fnId") : nullptr;
        if (top_id != nullptr && top_id->isNumber() &&
            static_cast<std::uint64_t>(top_id->number) != best_fn) {
            report.warning(
                "diag.suspect-mismatch",
                "stored top suspect fn#" +
                    std::to_string(
                        static_cast<std::uint64_t>(top_id->number)) +
                    " is not the context-log majority fn#" +
                    std::to_string(best_fn));
        }
    }
}

void
lintBundleWindow(const JsonValue &root, const std::string &metric,
                 double crossing_point, Checker &check, Report &report,
                 BundleLintStats &stats)
{
    const JsonValue *window = check.object(root, "bundle", "window");
    if (window == nullptr)
        return;
    const std::string window_metric =
        check.str(*window, "window", "metric");
    if (!window_metric.empty() && !metric.empty() &&
        window_metric != metric) {
        report.error("diag.bad-metric",
                     "window metric '" + window_metric +
                         "' does not match the incident metric '" +
                         metric + "'");
    }
    check.num(*window, "window", "radius");
    const JsonValue *points = check.array(*window, "window", "points");
    if (points == nullptr)
        return;
    double prev = -1.0;
    bool covers_crossing = false;
    for (const JsonValue &point : points->array) {
        if (!point.isObject()) {
            report.error("diag.missing-field",
                         "window point is not an object");
            continue;
        }
        ++stats.windowPoints;
        const double index =
            check.num(point, "window point", "pointIndex");
        check.num(point, "window point", "tick");
        check.num(point, "window point", "value");
        if (std::isnan(index))
            continue;
        if (index <= prev) {
            report.error("diag.window-order",
                         "window pointIndex not strictly increasing "
                         "at " +
                             std::to_string(index));
        }
        prev = index;
        if (index == crossing_point)
            covers_crossing = true;
    }
    if (!points->array.empty() && !std::isnan(crossing_point) &&
        !covers_crossing) {
        report.warning("diag.window-miss",
                       "window does not contain the crossing point " +
                           std::to_string(crossing_point));
    }
}

void
lintNameValueArray(const JsonValue &root, const char *key,
                   Checker &check, Report &report, std::size_t &count)
{
    const JsonValue *array = check.array(root, "manifest", key);
    if (array == nullptr)
        return;
    std::string prev;
    for (const JsonValue &entry : array->array) {
        if (!entry.isObject()) {
            report.error("diag.missing-field",
                         std::string(key) +
                             " entry is not an object");
            continue;
        }
        ++count;
        const std::string name = check.str(entry, key, "name");
        check.num(entry, key, "value");
        if (!name.empty() && !prev.empty() && name <= prev) {
            report.warning("diag.counter-order",
                           std::string(key) + " entry '" + name +
                               "' is not sorted after '" + prev + "'");
        }
        if (!name.empty())
            prev = name;
    }
}

/** The stable audit --deep rule family (DESIGN.md §12). */
constexpr const char *kFlowRules[] = {
    "flow.double_free",  "flow.free_unallocated",
    "flow.size_mismatch", "flow.negative_size",
    "flow.write_freed",  "flow.write_unmapped",
    "flow.overlap_alloc", "flow.dangling_edge",
    "flow.leak_at_exit",
};

void
lintFlowSite(const JsonValue &root, const char *key, Checker &check)
{
    const JsonValue *site = check.object(root, "flow incident", key);
    if (site == nullptr)
        return;
    check.member(*site, key, "known", JsonValue::Kind::Bool,
                 "a boolean");
    check.num(*site, key, "fnId");
    check.str(*site, key, "name");
    check.num(*site, key, "eventIndex");
    check.num(*site, key, "byteOffset");
}

/** Lint a "heapmd.flow" document (one audit --deep finding). */
void
lintFlowDocument(const JsonValue &root, Report &report)
{
    Checker check(report);
    check.str(root, "flow incident", "program");

    const std::string rule = check.str(root, "flow incident", "rule");
    if (!rule.empty()) {
        bool known = false;
        for (const char *candidate : kFlowRules)
            known = known || rule == candidate;
        if (!known) {
            report.error("diag.bad-rule",
                         "unknown flow rule '" + rule + "'");
        }
    }

    const std::string severity =
        check.str(root, "flow incident", "severity");
    if (!severity.empty() && severity != "error" &&
        severity != "warning" && severity != "note") {
        report.error("diag.bad-severity",
                     "severity '" + severity +
                         "' is not error/warning/note");
    }

    check.str(root, "flow incident", "message");
    const double addr = check.num(root, "flow incident", "addr");
    const double base = check.num(root, "flow incident", "base");
    const double size = check.num(root, "flow incident", "size");
    check.num(root, "flow incident", "byteOffset");
    check.num(root, "flow incident", "eventIndex");
    check.num(root, "flow incident", "lifetimeEvents");
    check.num(root, "flow incident", "objects");
    check.num(root, "flow incident", "bytes");

    // For the rules whose address is an access into the named object,
    // the address must land inside its extent.
    const bool interior_rule = rule == "flow.write_freed" ||
                               rule == "flow.dangling_edge" ||
                               rule == "flow.double_free" ||
                               rule == "flow.size_mismatch";
    if (interior_rule && !std::isnan(addr) && !std::isnan(base) &&
        !std::isnan(size) && size > 0.0 &&
        (addr < base || addr >= base + size)) {
        report.error("diag.addr-outside",
                     "address " + std::to_string(addr) +
                         " lies outside the object extent named by " +
                         rule);
    }

    lintFlowSite(root, "allocSite", check);
    lintFlowSite(root, "freeSite", check);
}

} // namespace

BundleLintStats
lintBundleText(const std::string &text, Report &report)
{
    BundleLintStats stats;
    JsonValue root;
    // Sniff the kind first: `audit --bundle` accepts both incident
    // bundles and the flow incidents that audit --deep exports.
    {
        std::string error;
        if (!telemetry::parseJson(text, root, &error)) {
            report.error("diag.parse", error);
            return stats;
        }
    }
    if (root.isObject()) {
        const JsonValue *kind = root.find("kind");
        if (kind != nullptr && kind->isString() &&
            kind->string == "heapmd.flow") {
            const JsonValue *version = root.find("schemaVersion");
            if (version == nullptr || !version->isNumber()) {
                report.error("diag.version",
                             "document has no numeric schemaVersion");
            } else if (version->number != 1) {
                report.error("diag.version",
                             "unsupported schemaVersion " +
                                 std::to_string(version->number));
            }
            lintFlowDocument(root, report);
            return stats;
        }
    }
    if (parsePreamble(text, "heapmd.incident", 1, root, report) ==
        nullptr) {
        return stats;
    }
    Checker check(report);

    check.str(root, "bundle", "program");
    const std::string klass = check.str(root, "bundle", "bugClass");
    if (!klass.empty() && !tryBugClassFromName(klass)) {
        report.error("diag.bad-class",
                     "unknown bug class '" + klass + "'");
    }
    const std::string metric = check.str(root, "bundle", "metric");
    if (!metric.empty() && !tryMetricFromName(metric)) {
        report.error("diag.bad-metric",
                     "unknown metric '" + metric + "'");
    }
    const std::string direction =
        check.str(root, "bundle", "direction");
    if (!direction.empty() && !tryAnomalyDirectionFromName(direction)) {
        report.error("diag.bad-direction",
                     "unknown direction '" + direction + "'");
    }

    const double observed =
        check.num(root, "bundle", "observedValue");
    const double min = check.num(root, "bundle", "calibratedMin");
    const double max = check.num(root, "bundle", "calibratedMax");
    check.num(root, "bundle", "tick");
    const double crossing = check.num(root, "bundle", "pointIndex");

    if (!std::isnan(min) && !std::isnan(max) && min > max) {
        report.error("diag.range-inverted",
                     "calibratedMin " + std::to_string(min) +
                         " exceeds calibratedMax " +
                         std::to_string(max));
    }
    // Only heap-anomaly incidents claim the value left the range;
    // poorly-disguised incidents sit *inside* it by definition.
    if (klass == "heap-anomaly" && !std::isnan(observed) &&
        !std::isnan(min) && !std::isnan(max) && observed >= min &&
        observed <= max) {
        report.warning("diag.observed-in-range",
                       "observed value " + std::to_string(observed) +
                           " lies inside the calibrated range");
    }

    lintBundleSuspects(root, check, report, stats);
    lintBundleWindow(root, metric, crossing, check, report, stats);
    return stats;
}

BundleLintStats
lintBundleFile(const std::string &path, Report &report)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        report.error("diag.io", "cannot open '" + path + "'");
        return {};
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return lintBundleText(buffer.str(), report);
}

ManifestLintStats
lintManifestText(const std::string &text, Report &report)
{
    ManifestLintStats stats;
    JsonValue root;
    std::uint64_t schema = 0;
    if (parsePreamble(text, "heapmd.manifest", 4, root, report,
                      &schema) == nullptr) {
        return stats;
    }
    Checker check(report);

    check.str(root, "manifest", "command");
    check.str(root, "manifest", "commandLine");
    check.str(root, "manifest", "program");

    const JsonValue *config = check.object(root, "manifest", "config");
    if (config != nullptr) {
        check.num(*config, "config", "metricFrequency");
        check.member(*config, "config", "includeLocallyStable",
                     JsonValue::Kind::Bool, "a boolean");
        check.num(*config, "config", "seed");
        check.num(*config, "config", "version");
        check.num(*config, "config", "scale");
        check.str(*config, "config", "fault");
        check.num(*config, "config", "faultRate");
        // rotateBytes arrived with schema v4 (capture rotation
        // provenance pooled by fleet-merge).
        if (schema >= 4)
            check.num(*config, "config", "rotateBytes");
    }

    // env arrived with schema v2; absence there is a defect, absence
    // on v1 documents is history.  v3 grew the resource-footprint
    // pair inside env.
    if (schema >= 2) {
        const JsonValue *env = check.object(root, "manifest", "env");
        if (env != nullptr) {
            check.num(*env, "env", "hardwareConcurrency");
            check.str(*env, "env", "sanitizer");
            if (schema >= 3) {
                check.num(*env, "env", "peakRssBytes");
                check.num(*env, "env", "durationNanos");
            }
        }
    }

    const JsonValue *inputs = check.array(root, "manifest", "inputs");
    if (inputs != nullptr) {
        for (const JsonValue &input : inputs->array) {
            if (!input.isObject()) {
                report.error("diag.missing-field",
                             "inputs entry is not an object");
                continue;
            }
            ++stats.inputs;
            check.str(input, "input", "role");
            check.str(input, "input", "path");
            check.num(input, "input", "bytes");
            const std::string fingerprint =
                check.str(input, "input", "fingerprint");
            if (!fingerprint.empty() &&
                !isHashFingerprint(fingerprint)) {
                report.warning("diag.hash-format",
                               "input fingerprint '" + fingerprint +
                                   "' is not 'fnv1a:<hex16>'");
            }
        }
    }

    // phases arrived with schema v3.  Wall time bounds CPU time from
    // below only per-thread; a phase that runs on N threads can bank
    // more CPU than wall, so only the degenerate zero-wall-nonzero-cpu
    // shape is flagged.
    if (schema >= 3) {
        const JsonValue *phases =
            check.array(root, "manifest", "phases");
        if (phases != nullptr) {
            for (const JsonValue &phase : phases->array) {
                if (!phase.isObject()) {
                    report.error("diag.missing-field",
                                 "phases entry is not an object");
                    continue;
                }
                const std::string name =
                    check.str(phase, "phase", "name");
                const double count =
                    check.num(phase, "phase", "count");
                const double wall =
                    check.num(phase, "phase", "wallNanos");
                const double cpu =
                    check.num(phase, "phase", "cpuNanos");
                check.num(phase, "phase", "bytes");
                if (!std::isnan(count) && count < 1.0) {
                    report.error("diag.phase-count",
                                 "phase '" + name +
                                     "' records zero runs");
                }
                if (!std::isnan(wall) && !std::isnan(cpu) &&
                    wall == 0.0 && cpu > 0.0) {
                    report.warning("diag.phase-time",
                                   "phase '" + name +
                                       "' banked CPU time with zero "
                                       "wall time");
                }
            }
        }
    }

    double events = std::numeric_limits<double>::quiet_NaN();
    double samples = std::numeric_limits<double>::quiet_NaN();
    const JsonValue *run = check.object(root, "manifest", "run");
    if (run != nullptr) {
        events = check.num(*run, "run", "events");
        samples = check.num(*run, "run", "samples");
        check.num(*run, "run", "allocs");
        check.num(*run, "run", "frees");
        check.num(*run, "run", "liveBlocksAtExit");
        check.num(*run, "run", "wallNanos");
        check.num(*run, "run", "cpuNanos");
    }
    if (!std::isnan(events) && !std::isnan(samples) && events > 0.0 &&
        samples > events) {
        report.warning("diag.sample-excess",
                       "manifest records more samples (" +
                           std::to_string(samples) +
                           ") than runtime events (" +
                           std::to_string(events) + ")");
    }

    const JsonValue *reports = check.object(root, "manifest",
                                            "reports");
    if (reports != nullptr) {
        const double total = check.num(*reports, "reports", "total");
        const double anomalies =
            check.num(*reports, "reports", "heapAnomalies");
        const double disguised =
            check.num(*reports, "reports", "poorlyDisguised");
        const double pathological =
            check.num(*reports, "reports", "pathological");
        if (!std::isnan(total) && !std::isnan(anomalies) &&
            !std::isnan(disguised) && !std::isnan(pathological) &&
            total != anomalies + disguised + pathological) {
            report.error("diag.report-count",
                         "report total " + std::to_string(total) +
                             " does not equal the class tallies");
        }
        if (!std::isnan(total))
            stats.reports = static_cast<std::size_t>(total);
        const JsonValue *bundles =
            check.array(*reports, "reports", "bundles");
        if (bundles != nullptr) {
            for (const JsonValue &bundle : bundles->array) {
                if (!bundle.isString()) {
                    report.error("diag.missing-field",
                                 "bundles entry is not a string");
                }
            }
        }
    }

    const JsonValue *metrics = check.array(root, "manifest",
                                           "metrics");
    if (metrics != nullptr) {
        for (const JsonValue &metric : metrics->array) {
            if (!metric.isObject()) {
                report.error("diag.missing-field",
                             "metrics entry is not an object");
                continue;
            }
            ++stats.metrics;
            const std::string name =
                check.str(metric, "metric summary", "metric");
            if (!name.empty() && !tryMetricFromName(name)) {
                report.error("diag.bad-metric",
                             "unknown metric '" + name + "'");
            }
            check.num(metric, "metric summary", "count");
            const double lo =
                check.num(metric, "metric summary", "min");
            const double hi =
                check.num(metric, "metric summary", "max");
            check.num(metric, "metric summary", "mean");
            check.num(metric, "metric summary", "stddev");
            if (!std::isnan(lo) && !std::isnan(hi) && lo > hi) {
                report.error("diag.range-inverted",
                             "metric summary '" + name +
                                 "' has min > max");
            }
        }
    }

    lintNameValueArray(root, "counters", check, report,
                       stats.counters);
    lintNameValueArray(root, "gauges", check, report, stats.gauges);
    return stats;
}

ManifestLintStats
lintManifestFile(const std::string &path, Report &report)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        report.error("diag.io", "cannot open '" + path + "'");
        return {};
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return lintManifestText(buffer.str(), report);
}

} // namespace analysis

} // namespace heapmd
