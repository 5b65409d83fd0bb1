#include "diag/run_manifest.hh"

#include <fstream>
#include <sstream>

#include "diag/json.hh"
#include "support/build_env.hh"
#include "support/hash.hh"
#include "telemetry/json_document.hh"
#include "telemetry/telemetry.hh"

namespace heapmd
{
namespace diag
{

double
RunManifest::sampleRate() const
{
    if (events == 0)
        return 0.0;
    return static_cast<double>(samples) /
           static_cast<double>(events);
}

RunManifest
makeRunManifest(const std::string &command,
                const std::string &command_line, const RunOutcome &run,
                const CheckResult *check)
{
    RunManifest manifest;
    manifest.command = command;
    manifest.commandLine = command_line;
    manifest.program = run.series.label;
    manifest.hardwareConcurrency = support::hardwareConcurrency();
    manifest.sanitizer = support::kSanitizeMode;
    manifest.events = run.finalTick;
    manifest.samples = run.series.size();
    manifest.allocs = run.graphStats.allocs;
    manifest.frees = run.graphStats.frees;
    manifest.liveBlocksAtExit = run.liveBlocksAtExit;
    manifest.wallNanos = run.wallNanos;
    manifest.cpuNanos = run.cpuNanos;

    if (check != nullptr) {
        manifest.reportsTotal = check->reports.size();
        manifest.heapAnomalies = check->countOf(BugClass::HeapAnomaly);
        manifest.poorlyDisguised =
            check->countOf(BugClass::PoorlyDisguised);
        manifest.pathological = check->countOf(BugClass::Pathological);
    }

    for (MetricId id : kAllMetrics)
        manifest.metrics.push_back(
            {metricName(id), run.series.summaryOf(id)});

    HEAPMD_COUNTER_INC("diag.manifests_built");
    return manifest;
}

void
addManifestInput(RunManifest &manifest, const std::string &role,
                 const std::string &path)
{
    ManifestInput input;
    input.role = role;
    input.path = path;
    if (auto fingerprint = fileFingerprint(path))
        input.fingerprint = *fingerprint;
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (in)
        input.bytes = static_cast<std::uint64_t>(in.tellg());
    manifest.inputs.push_back(std::move(input));
}

void
captureCounters(RunManifest &manifest,
                const telemetry::MetricsSnapshot &snapshot)
{
    manifest.counters.clear();
    manifest.gauges.clear();
    for (const auto &counter : snapshot.counters)
        manifest.counters.push_back({counter.name, counter.value});
    for (const auto &gauge : snapshot.gauges)
        manifest.gauges.push_back({gauge.name, gauge.value});
}

void
saveRunManifest(const RunManifest &manifest, std::ostream &os)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("kind", kManifestKind);
    // Always write the current schema: an older document that was
    // loaded and re-saved gains the newer blocks (env, phases) with
    // defaulted values, so it must claim the current version.
    w.field("schemaVersion", kManifestSchemaVersion);
    w.field("command", manifest.command);
    w.field("commandLine", manifest.commandLine);
    w.field("program", manifest.program);
    w.beginObject("config");
    w.field("metricFrequency", manifest.metricFrequency);
    w.fieldBool("includeLocallyStable",
                manifest.includeLocallyStable);
    w.field("seed", manifest.seed);
    w.field("version", manifest.version);
    w.field("scale", manifest.scale);
    w.field("fault", manifest.fault);
    w.field("faultRate", manifest.faultRate);
    w.field("rotateBytes", manifest.rotateBytes);
    w.endObject();
    w.beginObject("env");
    w.field("hardwareConcurrency", manifest.hardwareConcurrency);
    w.field("sanitizer", manifest.sanitizer);
    w.field("peakRssBytes", manifest.peakRssBytes);
    w.field("durationNanos", manifest.durationNanos);
    w.endObject();
    w.beginArray("inputs");
    for (const ManifestInput &input : manifest.inputs) {
        w.beginObject();
        w.field("role", input.role);
        w.field("path", input.path);
        w.field("fingerprint", input.fingerprint);
        w.field("bytes", input.bytes);
        w.endObject();
    }
    w.endArray();
    w.beginArray("phases");
    for (const ManifestPhase &phase : manifest.phases) {
        w.beginObject();
        w.field("name", phase.name);
        w.field("count", phase.count);
        w.field("wallNanos", phase.wallNanos);
        w.field("cpuNanos", phase.cpuNanos);
        w.field("bytes", phase.bytes);
        w.endObject();
    }
    w.endArray();
    w.beginObject("run");
    w.field("events", manifest.events);
    w.field("samples", manifest.samples);
    w.field("allocs", manifest.allocs);
    w.field("frees", manifest.frees);
    w.field("liveBlocksAtExit", manifest.liveBlocksAtExit);
    w.field("wallNanos", manifest.wallNanos);
    w.field("cpuNanos", manifest.cpuNanos);
    w.endObject();
    w.beginObject("reports");
    w.field("total", manifest.reportsTotal);
    w.field("heapAnomalies", manifest.heapAnomalies);
    w.field("poorlyDisguised", manifest.poorlyDisguised);
    w.field("pathological", manifest.pathological);
    w.beginArray("bundles");
    for (const std::string &path : manifest.bundlePaths)
        w.element(path);
    w.endArray();
    w.endObject();
    w.beginArray("metrics");
    for (const ManifestMetric &metric : manifest.metrics) {
        w.beginObject();
        w.field("metric", metric.metric);
        w.field("count",
                static_cast<std::uint64_t>(metric.summary.count));
        w.field("min", metric.summary.min);
        w.field("max", metric.summary.max);
        w.field("mean", metric.summary.mean);
        w.field("stddev", metric.summary.stddev);
        w.endObject();
    }
    w.endArray();
    w.beginArray("counters");
    for (const ManifestCounter &counter : manifest.counters) {
        w.beginObject();
        w.field("name", counter.name);
        w.field("value", counter.value);
        w.endObject();
    }
    w.endArray();
    w.beginArray("gauges");
    for (const ManifestGauge &gauge : manifest.gauges) {
        w.beginObject();
        w.field("name", gauge.name);
        w.field("value", gauge.value);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

std::string
manifestToJson(const RunManifest &manifest)
{
    std::ostringstream os;
    saveRunManifest(manifest, os);
    return os.str();
}

bool
loadRunManifest(const std::string &json, RunManifest &out,
                std::string *error)
{
    const telemetry::LoadError fail{error, "run manifest"};
    telemetry::DocumentHeader header;
    if (!telemetry::readDocumentHeader(json, kManifestKind,
                                       kManifestSchemaVersion, header))
        return fail(header);
    const telemetry::JsonValue &root = header.root;
    RunManifest manifest;
    manifest.schemaVersion = header.version;

    if (!jsonString(root, "command", manifest.command, error) ||
        !jsonString(root, "commandLine", manifest.commandLine,
                    error) ||
        !jsonString(root, "program", manifest.program, error)) {
        return false;
    }

    const telemetry::JsonValue *config =
        jsonObject(root, "config", error);
    if (config == nullptr)
        return false;
    if (!jsonU64(*config, "metricFrequency",
                 manifest.metricFrequency, error) ||
        !jsonBool(*config, "includeLocallyStable",
                  manifest.includeLocallyStable, error) ||
        !jsonU64(*config, "seed", manifest.seed, error) ||
        !jsonU64(*config, "version", manifest.version, error) ||
        !jsonNumber(*config, "scale", manifest.scale, error) ||
        !jsonString(*config, "fault", manifest.fault, error) ||
        !jsonNumber(*config, "faultRate", manifest.faultRate,
                    error)) {
        return false;
    }
    // v4 adds capture rotation provenance; older documents default 0.
    if (manifest.schemaVersion >= 4 &&
        !jsonU64(*config, "rotateBytes", manifest.rotateBytes,
                 error)) {
        return false;
    }

    // env: required from v2 on; v1 documents predate it.
    if (manifest.schemaVersion >= 2) {
        const telemetry::JsonValue *env =
            jsonObject(root, "env", error);
        if (env == nullptr)
            return false;
        if (!jsonU64(*env, "hardwareConcurrency",
                     manifest.hardwareConcurrency, error) ||
            !jsonString(*env, "sanitizer", manifest.sanitizer,
                        error)) {
            return false;
        }
        // v3 adds the process resource footprint.
        if (manifest.schemaVersion >= 3 &&
            (!jsonU64(*env, "peakRssBytes", manifest.peakRssBytes,
                      error) ||
             !jsonU64(*env, "durationNanos",
                      manifest.durationNanos, error))) {
            return false;
        }
    }

    // phases: required from v3 on (may be empty).
    if (manifest.schemaVersion >= 3) {
        const telemetry::JsonValue *phases =
            jsonArray(root, "phases", error);
        if (phases == nullptr)
            return false;
        for (const telemetry::JsonValue &phase : phases->array) {
            if (!phase.isObject())
                return fail("phases entry is not an object");
            ManifestPhase parsed;
            if (!jsonString(phase, "name", parsed.name, error) ||
                !jsonU64(phase, "count", parsed.count, error) ||
                !jsonU64(phase, "wallNanos", parsed.wallNanos,
                         error) ||
                !jsonU64(phase, "cpuNanos", parsed.cpuNanos,
                         error) ||
                !jsonU64(phase, "bytes", parsed.bytes, error)) {
                return false;
            }
            manifest.phases.push_back(std::move(parsed));
        }
    }

    const telemetry::JsonValue *inputs =
        jsonArray(root, "inputs", error);
    if (inputs == nullptr)
        return false;
    for (const telemetry::JsonValue &input : inputs->array) {
        if (!input.isObject())
            return fail("inputs entry is not an object");
        ManifestInput parsed;
        if (!jsonString(input, "role", parsed.role, error) ||
            !jsonString(input, "path", parsed.path, error) ||
            !jsonString(input, "fingerprint", parsed.fingerprint,
                        error) ||
            !jsonU64(input, "bytes", parsed.bytes, error)) {
            return false;
        }
        manifest.inputs.push_back(std::move(parsed));
    }

    const telemetry::JsonValue *run = jsonObject(root, "run", error);
    if (run == nullptr)
        return false;
    if (!jsonU64(*run, "events", manifest.events, error) ||
        !jsonU64(*run, "samples", manifest.samples, error) ||
        !jsonU64(*run, "allocs", manifest.allocs, error) ||
        !jsonU64(*run, "frees", manifest.frees, error) ||
        !jsonU64(*run, "liveBlocksAtExit", manifest.liveBlocksAtExit,
                 error) ||
        !jsonU64(*run, "wallNanos", manifest.wallNanos, error) ||
        !jsonU64(*run, "cpuNanos", manifest.cpuNanos, error)) {
        return false;
    }

    const telemetry::JsonValue *reports =
        jsonObject(root, "reports", error);
    if (reports == nullptr)
        return false;
    if (!jsonU64(*reports, "total", manifest.reportsTotal, error) ||
        !jsonU64(*reports, "heapAnomalies", manifest.heapAnomalies,
                 error) ||
        !jsonU64(*reports, "poorlyDisguised",
                 manifest.poorlyDisguised, error) ||
        !jsonU64(*reports, "pathological", manifest.pathological,
                 error)) {
        return false;
    }
    const telemetry::JsonValue *bundles =
        jsonArray(*reports, "bundles", error);
    if (bundles == nullptr)
        return false;
    for (const telemetry::JsonValue &bundle : bundles->array) {
        if (!bundle.isString())
            return fail("bundles entry is not a string");
        manifest.bundlePaths.push_back(bundle.string);
    }

    const telemetry::JsonValue *metrics =
        jsonArray(root, "metrics", error);
    if (metrics == nullptr)
        return false;
    for (const telemetry::JsonValue &metric : metrics->array) {
        if (!metric.isObject())
            return fail("metrics entry is not an object");
        ManifestMetric parsed;
        std::uint64_t count = 0;
        if (!jsonString(metric, "metric", parsed.metric, error) ||
            !jsonU64(metric, "count", count, error) ||
            !jsonNumber(metric, "min", parsed.summary.min, error) ||
            !jsonNumber(metric, "max", parsed.summary.max, error) ||
            !jsonNumber(metric, "mean", parsed.summary.mean, error) ||
            !jsonNumber(metric, "stddev", parsed.summary.stddev,
                        error)) {
            return false;
        }
        parsed.summary.count = static_cast<std::size_t>(count);
        manifest.metrics.push_back(std::move(parsed));
    }

    const telemetry::JsonValue *counters =
        jsonArray(root, "counters", error);
    if (counters == nullptr)
        return false;
    for (const telemetry::JsonValue &counter : counters->array) {
        if (!counter.isObject())
            return fail("counters entry is not an object");
        ManifestCounter parsed;
        if (!jsonString(counter, "name", parsed.name, error) ||
            !jsonU64(counter, "value", parsed.value, error)) {
            return false;
        }
        manifest.counters.push_back(std::move(parsed));
    }

    const telemetry::JsonValue *gauges =
        jsonArray(root, "gauges", error);
    if (gauges == nullptr)
        return false;
    for (const telemetry::JsonValue &gauge : gauges->array) {
        if (!gauge.isObject())
            return fail("gauges entry is not an object");
        ManifestGauge parsed;
        if (!jsonString(gauge, "name", parsed.name, error) ||
            !jsonI64(gauge, "value", parsed.value, error)) {
            return false;
        }
        manifest.gauges.push_back(std::move(parsed));
    }

    out = std::move(manifest);
    return true;
}

bool
loadRunManifestFile(const std::string &path, RunManifest &out,
                    std::string *error)
{
    std::string text;
    if (!telemetry::readFileText(path, text, error))
        return false;
    return loadRunManifest(text, out, error);
}

} // namespace diag
} // namespace heapmd
