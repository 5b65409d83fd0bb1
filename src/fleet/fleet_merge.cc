#include "fleet/fleet_merge.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>

#include "diag/incident_bundle.hh"
#include "diag/json.hh"
#include "diag/run_manifest.hh"
#include "metrics/metric.hh"
#include "support/parallel_for.hh"
#include "telemetry/json_document.hh"
#include "telemetry/telemetry.hh"

namespace heapmd
{
namespace fleet
{

namespace
{

namespace fs = std::filesystem;

/**
 * A fleet of identical processes still jitters a little; means
 * within one percentage point of each other are never outliers, no
 * matter how tight the population's own spread is.
 */
constexpr double kSigmaFloor = 1.0;

/**
 * File a discovered @p path under its kind tag alone (a bad version
 * is the loader's to report).  Other kinds (models, flow incidents)
 * are not fleet inputs; skipping them keeps mixed artifact
 * directories usable as-is.
 */
void
discover(const std::string &path, FleetInputs &out)
{
    std::string text;
    if (!telemetry::readFileText(path, text, nullptr))
        return;
    telemetry::DocumentHeader header;
    telemetry::readDocumentHeader(text, diag::kManifestKind,
                                  diag::kManifestSchemaVersion, header);
    if (header.kindMatched()) {
        out.manifests.push_back(path);
        return;
    }
    telemetry::checkDocumentHeader(header, diag::kBundleKind,
                                   diag::kBundleSchemaVersion);
    if (header.kindMatched())
        out.bundles.push_back(path);
}

/** One member's contribution to one metric. */
struct MetricSample
{
    std::size_t member = 0; //!< index into the sorted member list
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double weight = 1.0; //!< max(1, summary count)
    std::uint64_t count = 0;
};

/** Fold @p bundle into the cluster map under @p member_path. */
void
clusterBundle(const diag::IncidentBundle &bundle,
              const std::string &member_path,
              std::map<std::string, std::set<std::string>> &clusters,
              std::map<std::string, std::uint64_t> &counts)
{
    std::vector<std::string> suspects;
    for (const diag::BundleSuspect &suspect : bundle.suspects) {
        if (suspects.size() == 3)
            break;
        suspects.push_back(suspect.name);
    }
    const std::string signature =
        incidentSignature(bundle.bugClass, bundle.metric, suspects);
    clusters[signature].insert(member_path);
    ++counts[signature];
}

} // namespace

std::string
incidentSignature(const std::string &bug_class,
                  const std::string &metric,
                  const std::vector<std::string> &suspects)
{
    std::string signature = bug_class + "|" + metric + "|";
    for (std::size_t i = 0; i < suspects.size() && i < 3; ++i) {
        if (i > 0)
            signature += ',';
        signature += suspects[i];
    }
    return signature;
}

bool
collectFleetInputs(const std::vector<std::string> &paths,
                   FleetInputs &out, std::string &error)
{
    for (const std::string &path : paths) {
        std::error_code ec;
        if (fs::is_directory(path, ec)) {
            std::vector<std::string> found;
            for (const fs::directory_entry &entry :
                 fs::recursive_directory_iterator(path, ec)) {
                if (!entry.is_regular_file(ec))
                    continue;
                const std::string file = entry.path().string();
                if (file.size() >= 5 &&
                    file.compare(file.size() - 5, 5, ".json") == 0) {
                    found.push_back(file);
                }
            }
            // readdir order is filesystem whim; discovery must not be.
            std::sort(found.begin(), found.end());
            for (const std::string &file : found)
                discover(file, out);
            continue;
        }
        if (!fs::exists(path, ec)) {
            error = "fleet input '" + path + "' does not exist";
            return false;
        }
        out.manifests.push_back(path);
    }
    return true;
}

bool
mergeFleet(const FleetInputs &inputs,
           const FleetMergeOptions &options, FleetModel &out,
           analysis::Report &report, std::string &error)
{
    HEAPMD_PHASE_SPAN_NAMED(span, "phase.fleet_merge");

    struct Loaded
    {
        std::string path;
        diag::RunManifest manifest;
        std::string error;
        std::uint64_t bytes = 0;
    };
    std::vector<Loaded> loads(inputs.manifests.size());
    parallelForIndexed(
        inputs.manifests.size(), options.jobs, [&](std::size_t i) {
            loads[i].path = inputs.manifests[i];
            std::string text;
            if (!telemetry::readFileText(loads[i].path, text,
                                         &loads[i].error)) {
                return;
            }
            loads[i].bytes = text.size();
            if (!diag::loadRunManifest(text, loads[i].manifest,
                                       &loads[i].error)) {
                loads[i].manifest = diag::RunManifest{};
            }
        });
    for (const Loaded &load : loads) {
        if (!load.error.empty()) {
            error = "cannot load manifest '" + load.path +
                    "': " + load.error;
            return false;
        }
        span.addBytes(load.bytes);
    }

    // Everything downstream runs over the path-sorted, deduplicated
    // member list: the one total order that byte-determinism hangs
    // off, whatever the input order or worker count was.
    std::sort(loads.begin(), loads.end(),
              [](const Loaded &a, const Loaded &b) {
                  return a.path < b.path;
              });
    std::vector<const Loaded *> members;
    for (const Loaded &load : loads) {
        if (!members.empty() && members.back()->path == load.path) {
            report.note("fleet.duplicate",
                        "manifest '" + load.path +
                            "' was given more than once");
            continue;
        }
        members.push_back(&load);
    }
    if (members.empty()) {
        error = "no run manifests among the fleet inputs";
        return false;
    }

    FleetModel model;
    for (const Loaded *load : members) {
        const diag::RunManifest &m = load->manifest;
        FleetMember member;
        member.path = load->path;
        member.program = m.program;
        member.command = m.command;
        member.schemaVersion = m.schemaVersion;
        member.events = m.events;
        member.samples = m.samples;
        member.reports = m.reportsTotal;
        member.metricFrequency = m.metricFrequency;
        member.rotateBytes = m.rotateBytes;
        model.members.push_back(std::move(member));
    }
    model.processes = model.members.size();

    // Sampling/rotation provenance: the fleet takes the first
    // member's values; any disagreement makes pooled ranges an
    // apples-to-oranges comparison, which the model records and the
    // report surfaces.
    model.metricFrequency = model.members.front().metricFrequency;
    model.rotateBytes = model.members.front().rotateBytes;
    for (const FleetMember &member : model.members) {
        if (member.metricFrequency != model.metricFrequency ||
            member.rotateBytes != model.rotateBytes) {
            model.mixedProvenance = true;
            report.warning(
                "fleet.mixed-provenance",
                "member '" + member.path + "' sampled at frq " +
                    std::to_string(member.metricFrequency) +
                    " / rotate_bytes " +
                    std::to_string(member.rotateBytes) +
                    " but the fleet baseline is frq " +
                    std::to_string(model.metricFrequency) +
                    " / rotate_bytes " +
                    std::to_string(model.rotateBytes) +
                    "; pooled ranges mix sampling provenances");
            break;
        }
    }

    for (const MetricId id : kAllMetrics) {
        const std::string name = metricName(id);
        std::vector<MetricSample> samples;
        for (std::size_t i = 0; i < members.size(); ++i) {
            for (const diag::ManifestMetric &metric :
                 members[i]->manifest.metrics) {
                if (metric.metric != name ||
                    metric.summary.count == 0) {
                    continue;
                }
                MetricSample sample;
                sample.member = i;
                sample.mean = metric.summary.mean;
                sample.min = metric.summary.min;
                sample.max = metric.summary.max;
                sample.count = metric.summary.count;
                sample.weight = static_cast<double>(
                    std::max<std::uint64_t>(1, metric.summary.count));
                samples.push_back(sample);
            }
        }
        if (samples.empty())
            continue;

        // Leave-one-out attribution: each member's mean is scored
        // against the weighted population of the *others*, so one
        // drifting process cannot drag the yardstick toward itself.
        std::set<std::size_t> outlier_members;
        if (samples.size() >= options.minMembers) {
            double total_w = 0.0, total_wx = 0.0, total_wx2 = 0.0;
            for (const MetricSample &s : samples) {
                total_w += s.weight;
                total_wx += s.weight * s.mean;
                total_wx2 += s.weight * s.mean * s.mean;
            }
            for (const MetricSample &s : samples) {
                const double w = total_w - s.weight;
                if (w <= 0.0)
                    continue;
                const double mean = (total_wx - s.weight * s.mean) / w;
                double var =
                    (total_wx2 - s.weight * s.mean * s.mean) / w -
                    mean * mean;
                if (var < 0.0)
                    var = 0.0;
                const double sigma =
                    std::max(std::sqrt(var), kSigmaFloor);
                const double score =
                    std::fabs(s.mean - mean) / sigma;
                if (score < options.outlierScore)
                    continue;
                outlier_members.insert(s.member);
                FleetOutlier outlier;
                outlier.path = model.members[s.member].path;
                outlier.metric = name;
                outlier.score = score;
                outlier.memberMean = s.mean;
                outlier.fleetMean = mean;
                model.outliers.push_back(std::move(outlier));
            }
        }

        // The pooled range describes the *healthy* population, so
        // outlier members do not stretch it; their sample counts
        // still tally (the fleet did run them).
        FleetMetricRange range;
        range.metric = name;
        range.members = samples.size();
        double total_w = 0.0, total_wx = 0.0, total_wx2 = 0.0;
        bool first = true;
        for (const MetricSample &s : samples) {
            range.samples += s.count;
            if (outlier_members.count(s.member) != 0)
                continue;
            if (first || s.min < range.min)
                range.min = s.min;
            if (first || s.max > range.max)
                range.max = s.max;
            first = false;
            total_w += s.weight;
            total_wx += s.weight * s.mean;
            total_wx2 += s.weight * s.mean * s.mean;
        }
        if (first) {
            // Degenerate: every contributor was flagged.  Fall back
            // to the full population so the range stays meaningful.
            for (const MetricSample &s : samples) {
                if (first || s.min < range.min)
                    range.min = s.min;
                if (first || s.max > range.max)
                    range.max = s.max;
                first = false;
                total_w += s.weight;
                total_wx += s.weight * s.mean;
                total_wx2 += s.weight * s.mean * s.mean;
            }
        }
        if (total_w > 0.0) {
            range.mean = total_wx / total_w;
            double var =
                total_wx2 / total_w - range.mean * range.mean;
            if (var < 0.0)
                var = 0.0;
            range.stddev = std::sqrt(var);
        }
        model.metrics.push_back(std::move(range));
    }

    std::sort(model.outliers.begin(), model.outliers.end(),
              [](const FleetOutlier &a, const FleetOutlier &b) {
                  if (a.score != b.score)
                      return a.score > b.score;
                  if (a.path != b.path)
                      return a.path < b.path;
                  return a.metric < b.metric;
              });
    for (const FleetOutlier &outlier : model.outliers) {
        char score[32];
        std::snprintf(score, sizeof score, "%.2f", outlier.score);
        report.error("fleet.outlier",
                     "member '" + outlier.path + "' drifts on " +
                         outlier.metric + ": mean " +
                         diag::formatJsonNumber(outlier.memberMean) +
                         "% vs fleet " +
                         diag::formatJsonNumber(outlier.fleetMean) +
                         "% (z=" + score + ")");
    }

    // Incident dedup: bundles referenced by members plus any loose
    // bundles discovered during input scanning, keyed on the
    // bugClass|metric|suspects signature.
    std::map<std::string, std::set<std::string>> clusters;
    std::map<std::string, std::uint64_t> counts;
    for (std::size_t i = 0; i < members.size(); ++i) {
        const fs::path manifest_dir =
            fs::path(members[i]->path).parent_path();
        for (const std::string &bundle_path :
             members[i]->manifest.bundlePaths) {
            std::error_code ec;
            std::string resolved = bundle_path;
            if (!fs::exists(resolved, ec)) {
                // Bundle paths were written relative to the run's
                // working directory; retry beside the manifest.
                const std::string beside =
                    (manifest_dir / bundle_path).string();
                if (fs::exists(beside, ec)) {
                    resolved = beside;
                } else {
                    report.note("fleet.bundle-missing",
                                "member '" + members[i]->path +
                                    "' references bundle '" +
                                    bundle_path +
                                    "' which is not on disk");
                    continue;
                }
            }
            diag::IncidentBundle bundle;
            std::string bundle_error;
            if (!diag::loadIncidentBundleFile(resolved, bundle,
                                              &bundle_error)) {
                report.warning("fleet.bundle",
                               "cannot parse bundle '" + resolved +
                                   "': " + bundle_error);
                continue;
            }
            clusterBundle(bundle, model.members[i].path, clusters,
                          counts);
        }
    }
    for (const std::string &bundle_path : inputs.bundles) {
        diag::IncidentBundle bundle;
        std::string bundle_error;
        if (!diag::loadIncidentBundleFile(bundle_path, bundle,
                                          &bundle_error)) {
            report.warning("fleet.bundle",
                           "cannot parse bundle '" + bundle_path +
                               "': " + bundle_error);
            continue;
        }
        clusterBundle(bundle, bundle_path, clusters, counts);
    }
    for (const auto &[signature, paths] : clusters) {
        FleetIncident incident;
        incident.signature = signature;
        incident.count = counts[signature];
        incident.members.assign(paths.begin(), paths.end());
        model.incidents.push_back(std::move(incident));
    }
    std::sort(model.incidents.begin(), model.incidents.end(),
              [](const FleetIncident &a, const FleetIncident &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  return a.signature < b.signature;
              });

    out = std::move(model);
    return true;
}

} // namespace fleet
} // namespace heapmd
