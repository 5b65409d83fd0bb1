#include "analysis/diag_lint.hh"

#include <cmath>
#include <limits>
#include <map>

#include "detector/bug_report.hh"
#include "detector/classification.hh"
#include "metrics/metric.hh"
#include "support/hash.hh"
#include "support/types.hh"
#include "telemetry/json_document.hh"

namespace heapmd
{

namespace analysis
{

bool
lintDocumentHeader(const telemetry::DocumentHeader &header,
                   const char *family, Report &report)
{
    using telemetry::HeaderFault;
    const std::string rule = family;
    switch (header.fault) {
      case HeaderFault::None:
        return true;
      case HeaderFault::Syntax:
        report.error(rule + ".parse", header.detail);
        return false;
      case HeaderFault::NotObject:
        report.error(rule + ".parse", "document root is not an object");
        return false;
      case HeaderFault::NoKind:
        report.error(rule + ".kind", "document has no string 'kind' tag");
        return false;
      case HeaderFault::WrongKind:
        report.error(rule + ".kind", header.detail);
        return false;
      case HeaderFault::NoVersion:
        report.error(rule + ".version",
                     "document has no numeric schemaVersion");
        return true;
      case HeaderFault::VersionNotWhole:
      case HeaderFault::VersionUnsupported:
        break;
    }
    report.error(rule + ".version",
                 "unsupported schemaVersion " +
                     std::to_string(header.rawVersion));
    return true;
}

namespace
{

using telemetry::JsonValue;

void
lintBundleSuspects(const JsonValue &root, FieldChecker &check,
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
                check.entry("contextLog entry is not an object");
                continue;
            }
            ++stats.contextEntries;
            const double point =
                check.whole(entry, "contextLog entry", "pointIndex");
            check.whole(entry, "contextLog entry", "tick");
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
                    check.entry("frame is not an object");
                    continue;
                }
                ++stats.frames;
                const double id = check.whole(frame, "frame", "fnId");
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
            check.entry("suspects entry is not an object");
            continue;
        }
        ++stats.suspects;
        check.whole(suspect, "suspect", "fnId");
        check.str(suspect, "suspect", "name");
        check.whole(suspect, "suspect", "snapshots");
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
            telemetry::wholeNumberFault(top_id->number, false) ==
                nullptr &&
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
                 double crossing_point, FieldChecker &check, Report &report,
                 BundleLintStats &stats)
{
    const JsonValue *window = check.object(root, "bundle", "window");
    if (window == nullptr)
        return;
    const auto names_metric = [](const JsonValue &object) {
        const JsonValue *found = object.find("metric");
        return found != nullptr && found->isString();
    };
    const std::string window_metric =
        check.str(*window, "window", "metric");
    // The loader's rule: the window names the incident metric, "" as
    // well.  A missing or mistyped member already has its finding.
    if (names_metric(root) && names_metric(*window) &&
        window_metric != metric) {
        report.error("diag.bad-metric",
                     "window metric '" + window_metric +
                         "' does not match the incident metric '" +
                         metric + "'");
    }
    check.whole(*window, "window", "radius");
    const JsonValue *points = check.array(*window, "window", "points");
    if (points == nullptr)
        return;
    double prev = -1.0;
    bool covers_crossing = false;
    for (const JsonValue &point : points->array) {
        if (!point.isObject()) {
            check.entry("window point is not an object");
            continue;
        }
        ++stats.windowPoints;
        const double index =
            check.whole(point, "window point", "pointIndex");
        check.whole(point, "window point", "tick");
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
                   bool is_signed, FieldChecker &check, Report &report,
                   std::size_t &count)
{
    const JsonValue *array = check.array(root, "manifest", key);
    if (array == nullptr)
        return;
    std::string prev;
    for (const JsonValue &entry : array->array) {
        if (!entry.isObject()) {
            check.entry(std::string(key) + " entry is not an object");
            continue;
        }
        ++count;
        const std::string name = check.str(entry, key, "name");
        check.whole(entry, key, "value", is_signed);
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
lintFlowSite(const JsonValue &root, const char *key, FieldChecker &check)
{
    const JsonValue *site = check.object(root, "flow incident", key);
    if (site == nullptr)
        return;
    check.member(*site, key, "known", JsonValue::Kind::Bool,
                 "a boolean");
    check.whole(*site, key, "fnId");
    check.str(*site, key, "name");
    check.whole(*site, key, "eventIndex");
    check.whole(*site, key, "byteOffset");
}

/** Lint a "heapmd.flow" document (one audit --deep finding). */
void
lintFlowDocument(const JsonValue &root, Report &report)
{
    FieldChecker check(report, "diag");
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
    const double addr = check.whole(root, "flow incident", "addr");
    const double base = check.whole(root, "flow incident", "base");
    const double size = check.whole(root, "flow incident", "size");
    check.whole(root, "flow incident", "byteOffset");
    check.whole(root, "flow incident", "eventIndex");
    check.whole(root, "flow incident", "lifetimeEvents");
    check.whole(root, "flow incident", "objects");
    check.whole(root, "flow incident", "bytes");

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
    // `audit --bundle` accepts both incident bundles and the flow
    // incidents that audit --deep exports: try the flow kind first.
    telemetry::DocumentHeader header;
    telemetry::readDocumentHeader(text, "heapmd.flow", 1, header);
    if (header.kindMatched()) {
        lintDocumentHeader(header, "diag", report);
        lintFlowDocument(header.root, report);
        return stats;
    }
    telemetry::checkDocumentHeader(header, "heapmd.incident", 1);
    if (!lintDocumentHeader(header, "diag", report))
        return stats;
    const JsonValue &root = header.root;
    FieldChecker check(report, "diag");

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
    check.whole(root, "bundle", "tick");
    const double crossing = check.whole(root, "bundle", "pointIndex");

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
    std::string text, error;
    if (telemetry::readFileText(path, text, &error))
        return lintBundleText(text, report);
    report.error("diag.io", error);
    return {};
}

ManifestLintStats
lintManifestText(const std::string &text, Report &report)
{
    ManifestLintStats stats;
    telemetry::DocumentHeader header;
    telemetry::readDocumentHeader(text, "heapmd.manifest", 4, header);
    if (!lintDocumentHeader(header, "diag", report))
        return stats;
    const JsonValue &root = header.root;
    const std::uint64_t schema = header.ok() ? header.version : 0;
    FieldChecker check(report, "diag");

    check.str(root, "manifest", "command");
    check.str(root, "manifest", "commandLine");
    check.str(root, "manifest", "program");

    const JsonValue *config = check.object(root, "manifest", "config");
    if (config != nullptr) {
        check.whole(*config, "config", "metricFrequency");
        check.member(*config, "config", "includeLocallyStable",
                     JsonValue::Kind::Bool, "a boolean");
        check.whole(*config, "config", "seed");
        check.whole(*config, "config", "version");
        check.num(*config, "config", "scale");
        check.str(*config, "config", "fault");
        check.num(*config, "config", "faultRate");
        // rotateBytes arrived with schema v4 (capture rotation
        // provenance pooled by fleet-merge).
        if (schema >= 4)
            check.whole(*config, "config", "rotateBytes");
    }

    // env arrived with schema v2; absence there is a defect, absence
    // on v1 documents is history.  v3 grew the resource-footprint
    // pair inside env.
    if (schema >= 2) {
        const JsonValue *env = check.object(root, "manifest", "env");
        if (env != nullptr) {
            check.whole(*env, "env", "hardwareConcurrency");
            check.str(*env, "env", "sanitizer");
            if (schema >= 3) {
                check.whole(*env, "env", "peakRssBytes");
                check.whole(*env, "env", "durationNanos");
            }
        }
    }

    const JsonValue *inputs = check.array(root, "manifest", "inputs");
    if (inputs != nullptr) {
        for (const JsonValue &input : inputs->array) {
            if (!input.isObject()) {
                check.entry("inputs entry is not an object");
                continue;
            }
            ++stats.inputs;
            check.str(input, "input", "role");
            check.str(input, "input", "path");
            check.whole(input, "input", "bytes");
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
                    check.entry("phases entry is not an object");
                    continue;
                }
                const std::string name =
                    check.str(phase, "phase", "name");
                const double count =
                    check.whole(phase, "phase", "count");
                const double wall =
                    check.whole(phase, "phase", "wallNanos");
                const double cpu =
                    check.whole(phase, "phase", "cpuNanos");
                check.whole(phase, "phase", "bytes");
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
        events = check.whole(*run, "run", "events");
        samples = check.whole(*run, "run", "samples");
        check.whole(*run, "run", "allocs");
        check.whole(*run, "run", "frees");
        check.whole(*run, "run", "liveBlocksAtExit");
        check.whole(*run, "run", "wallNanos");
        check.whole(*run, "run", "cpuNanos");
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
        const double total = check.whole(*reports, "reports", "total");
        const double anomalies =
            check.whole(*reports, "reports", "heapAnomalies");
        const double disguised =
            check.whole(*reports, "reports", "poorlyDisguised");
        const double pathological =
            check.whole(*reports, "reports", "pathological");
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
                    check.entry("bundles entry is not a string");
                }
            }
        }
    }

    const JsonValue *metrics = check.array(root, "manifest",
                                           "metrics");
    if (metrics != nullptr) {
        for (const JsonValue &metric : metrics->array) {
            if (!metric.isObject()) {
                check.entry("metrics entry is not an object");
                continue;
            }
            ++stats.metrics;
            const std::string name =
                check.str(metric, "metric summary", "metric");
            if (!name.empty() && !tryMetricFromName(name)) {
                report.error("diag.bad-metric",
                             "unknown metric '" + name + "'");
            }
            check.whole(metric, "metric summary", "count");
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

    lintNameValueArray(root, "counters", false, check, report,
                       stats.counters);
    lintNameValueArray(root, "gauges", true, check, report,
                       stats.gauges);
    return stats;
}

ManifestLintStats
lintManifestFile(const std::string &path, Report &report)
{
    std::string text, error;
    if (telemetry::readFileText(path, text, &error))
        return lintManifestText(text, report);
    report.error("diag.io", error);
    return {};
}

} // namespace analysis

} // namespace heapmd
