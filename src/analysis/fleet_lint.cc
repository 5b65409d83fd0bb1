#include "analysis/fleet_lint.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "analysis/diag_lint.hh"
#include "metrics/metric.hh"

namespace heapmd
{

namespace analysis
{

using telemetry::JsonValue;

FleetLintStats
lintFleetText(const std::string &text, Report &report)
{
    FleetLintStats stats;
    telemetry::DocumentHeader header;
    telemetry::readDocumentHeader(text, "heapmd.fleet", 1, header);
    if (!lintDocumentHeader(header, "fleet", report))
        return stats;
    const JsonValue &root = header.root;

    FieldChecker check(report, "fleet");
    const double processes = check.whole(root, "fleet", "processes");

    const JsonValue *provenance =
        check.object(root, "fleet", "provenance");
    if (provenance != nullptr) {
        check.whole(*provenance, "provenance", "metricFrequency");
        check.whole(*provenance, "provenance", "rotateBytes");
        check.member(*provenance, "provenance", "mixed",
                     JsonValue::Kind::Bool, "a boolean");
    }

    std::vector<std::string> member_paths;
    const JsonValue *members = check.array(root, "fleet", "members");
    if (members != nullptr) {
        std::string previous;
        for (const JsonValue &entry : members->array) {
            if (!entry.isObject()) {
                check.entry("members entry is not an object");
                continue;
            }
            ++stats.members;
            const std::string path =
                check.str(entry, "member", "path");
            check.str(entry, "member", "program");
            check.str(entry, "member", "command");
            check.whole(entry, "member", "schemaVersion");
            check.whole(entry, "member", "events");
            check.whole(entry, "member", "samples");
            check.whole(entry, "member", "reports");
            check.whole(entry, "member", "metricFrequency");
            check.whole(entry, "member", "rotateBytes");
            if (!path.empty()) {
                if (!previous.empty() && path <= previous) {
                    report.error(
                        "fleet.member-order",
                        "member '" + path +
                            "' is not strictly after '" + previous +
                            "' (members must be sorted by path)");
                }
                previous = path;
                member_paths.push_back(path);
            }
        }
        if (!std::isnan(processes) &&
            processes !=
                static_cast<double>(members->array.size())) {
            report.error(
                "fleet.count-mismatch",
                "processes claims " +
                    std::to_string(
                        static_cast<unsigned long long>(processes)) +
                    " but " +
                    std::to_string(members->array.size()) +
                    " member(s) are listed");
        }
    }

    const JsonValue *metrics = check.array(root, "fleet", "metrics");
    if (metrics != nullptr) {
        for (const JsonValue &entry : metrics->array) {
            if (!entry.isObject()) {
                check.entry("metrics entry is not an object");
                continue;
            }
            ++stats.metrics;
            const std::string metric =
                check.str(entry, "metric range", "metric");
            if (!metric.empty() && !tryMetricFromName(metric)) {
                report.error("fleet.bad-metric",
                             "unknown metric '" + metric + "'");
            }
            check.whole(entry, "metric range", "members");
            check.whole(entry, "metric range", "samples");
            const double min =
                check.num(entry, "metric range", "min");
            const double max =
                check.num(entry, "metric range", "max");
            check.num(entry, "metric range", "mean");
            check.num(entry, "metric range", "stddev");
            if (!std::isnan(min) && !std::isnan(max) && min > max) {
                report.error("fleet.range-inverted",
                             "pooled range of '" + metric +
                                 "' has min above max");
            }
        }
    }

    const JsonValue *outliers =
        check.array(root, "fleet", "outliers");
    if (outliers != nullptr) {
        for (const JsonValue &entry : outliers->array) {
            if (!entry.isObject()) {
                check.entry("outliers entry is not an object");
                continue;
            }
            ++stats.outliers;
            const std::string path =
                check.str(entry, "outlier", "path");
            const std::string metric =
                check.str(entry, "outlier", "metric");
            if (!metric.empty() && !tryMetricFromName(metric)) {
                report.error("fleet.bad-metric",
                             "unknown metric '" + metric + "'");
            }
            check.num(entry, "outlier", "score");
            check.num(entry, "outlier", "memberMean");
            check.num(entry, "outlier", "fleetMean");
            if (!path.empty() &&
                std::find(member_paths.begin(), member_paths.end(),
                          path) == member_paths.end()) {
                report.error("fleet.outlier-unknown",
                             "outlier path '" + path +
                                 "' names no fleet member");
            }
        }
    }

    const JsonValue *incidents =
        check.array(root, "fleet", "incidents");
    if (incidents != nullptr) {
        double previous_count =
            std::numeric_limits<double>::infinity();
        std::string previous_signature;
        for (const JsonValue &entry : incidents->array) {
            if (!entry.isObject()) {
                check.entry("incidents entry is not an object");
                continue;
            }
            ++stats.incidents;
            const std::string signature =
                check.str(entry, "incident", "signature");
            const double count =
                check.whole(entry, "incident", "count");
            const JsonValue *cluster_members =
                check.array(entry, "incident", "members");
            if (!std::isnan(count)) {
                if (count > previous_count ||
                    (count == previous_count &&
                     signature < previous_signature)) {
                    report.error(
                        "fleet.incident-order",
                        "incident '" + signature +
                            "' breaks the (count desc, signature) "
                            "order");
                }
                previous_count = count;
                previous_signature = signature;
                if (cluster_members != nullptr &&
                    count < static_cast<double>(
                                cluster_members->array.size())) {
                    report.error(
                        "fleet.incident-count",
                        "incident '" + signature + "' counts " +
                            std::to_string(
                                static_cast<unsigned long long>(
                                    count)) +
                            " bundle(s) but lists " +
                            std::to_string(
                                cluster_members->array.size()) +
                            " member(s)");
                }
            }
            if (cluster_members == nullptr)
                continue;
            for (const JsonValue &path : cluster_members->array) {
                if (!path.isString())
                    check.entry("incident members entry is not a string");
            }
        }
    }

    return stats;
}

FleetLintStats
lintFleetFile(const std::string &path, Report &report)
{
    std::string text, error;
    if (telemetry::readFileText(path, text, &error))
        return lintFleetText(text, report);
    report.error("fleet.io", error);
    return {};
}

} // namespace analysis

} // namespace heapmd
