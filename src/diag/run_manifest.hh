/**
 * @file
 * Run manifests: self-describing records of one heapmd run.
 *
 * Every `train` / `check` / `replay` invocation can write a manifest:
 * what was run (command line, config knobs), what it consumed (input
 * artifact paths + content fingerprints), what happened (event/sample
 * counts, wall/CPU time, anomaly-report tallies, bundle paths), the
 * final telemetry counter snapshot, and per-metric series summary
 * statistics.  Two runs are then comparable without re-running --
 * `heapmd trend` consumes exactly these documents.
 *
 * Same canonical-JSON contract as incident bundles: stable field
 * names, versioned schema, byte-for-byte save/load round-trip.
 */

#ifndef HEAPMD_DIAG_RUN_MANIFEST_HH
#define HEAPMD_DIAG_RUN_MANIFEST_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/heapmd.hh"
#include "metrics/series.hh"
#include "telemetry/registry.hh"

namespace heapmd
{
namespace diag
{

/** Manifest document type tag (the JSON "kind" member). */
inline constexpr const char *kManifestKind = "heapmd.manifest";

/**
 * Current manifest schema version.  Version 2 added the "env"
 * object (hardwareConcurrency, sanitizer); version 3 added the
 * `phases[]` block plus env peakRssBytes/durationNanos; version 4
 * added config.rotateBytes (capture segment-rotation provenance,
 * pooled by `fleet-merge`).  Older documents still load, with the
 * newer fields defaulted.
 */
inline constexpr std::uint64_t kManifestSchemaVersion = 4;

/** One input artifact a run consumed. */
struct ManifestInput
{
    std::string role;        //!< "model", "trace", ...
    std::string path;
    std::string fingerprint; //!< "fnv1a:<hex16>", "" when unreadable
    std::uint64_t bytes = 0;
};

/** Summary statistics of one metric over the run. */
struct ManifestMetric
{
    std::string metric; //!< metricName()
    SeriesSummary summary;
};

/** One telemetry counter at run end. */
struct ManifestCounter
{
    std::string name;
    std::uint64_t value = 0;
};

/** One telemetry gauge at run end. */
struct ManifestGauge
{
    std::string name;
    std::int64_t value = 0;
};

/**
 * Aggregated accounting of one pipeline phase (schema v3), mirroring
 * telemetry::PhaseStats: how often the phase ran, summed wall and
 * CPU time, and bytes processed.  `heapmd trend` compares wall time
 * per phase so a slowdown is attributed to a stage, not just the
 * end-to-end run.
 */
struct ManifestPhase
{
    std::string name; //!< "phase.<stage>", sorted
    std::uint64_t count = 0;
    std::uint64_t wallNanos = 0;
    std::uint64_t cpuNanos = 0;
    std::uint64_t bytes = 0;
};

/** The whole run record. */
struct RunManifest
{
    std::uint64_t schemaVersion = kManifestSchemaVersion;
    std::string command;     //!< "train", "check", "replay"
    std::string commandLine; //!< argv joined with spaces
    std::string program;     //!< app name or series label

    /** Config knobs that shape the run. */
    std::uint64_t metricFrequency = 0; //!< frq
    bool includeLocallyStable = false; //!< --local
    std::uint64_t seed = 0;
    std::uint64_t version = 0;
    double scale = 1.0;
    std::string fault;      //!< "" when no fault injected
    double faultRate = 0.0;

    /**
     * Segment-rotation threshold of the capture that produced the
     * input trace (schema v4); 0 = monolithic / not a capture run.
     * Together with metricFrequency this is the sampling provenance
     * `fleet-merge` refuses to pool silently across mismatches.
     */
    std::uint64_t rotateBytes = 0;

    /**
     * Execution environment (schema v2).  Deliberately excludes the
     * worker count: output is byte-identical at any --jobs, so the
     * manifest must be too.  0 / "" on documents loaded from v1.
     */
    std::uint64_t hardwareConcurrency = 0;
    std::string sanitizer; //!< "none" or the -fsanitize list

    /**
     * Process-level resource footprint (schema v3): ru_maxrss at
     * manifest-write time and wall-clock duration of the whole CLI
     * invocation.  Both are timing-like and excluded from the
     * byte-identity contract (normalized like *_ns counters); trend's
     * env-rss check is how a memory regression becomes visible.
     */
    std::uint64_t peakRssBytes = 0;
    std::uint64_t durationNanos = 0;

    std::vector<ManifestInput> inputs;

    /** Per-phase accounting (schema v3), sorted by phase name. */
    std::vector<ManifestPhase> phases;

    /** Run accounting. */
    std::uint64_t events = 0;  //!< runtime ticks consumed
    std::uint64_t samples = 0; //!< metric computation points
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t liveBlocksAtExit = 0;
    std::uint64_t wallNanos = 0;
    std::uint64_t cpuNanos = 0;

    /** Anomaly-report tallies (0 everywhere for train/observe). */
    std::uint64_t reportsTotal = 0;
    std::uint64_t heapAnomalies = 0;
    std::uint64_t poorlyDisguised = 0;
    std::uint64_t pathological = 0;
    std::vector<std::string> bundlePaths; //!< bundles this run wrote

    std::vector<ManifestMetric> metrics;   //!< per-metric summaries
    std::vector<ManifestCounter> counters; //!< sorted by name
    std::vector<ManifestGauge> gauges;     //!< sorted by name

    /** samples / events; 0 when no events (trend's drop detector). */
    double sampleRate() const;
};

/**
 * Assemble the run-derived portion of a manifest from a pipeline
 * outcome.  The caller fills command identity, config knobs, inputs,
 * and bundle paths (CLI concerns the pipeline cannot know).
 */
RunManifest makeRunManifest(const std::string &command,
                            const std::string &command_line,
                            const RunOutcome &run,
                            const CheckResult *check);

/** Record an input artifact: fingerprints @p path best-effort. */
void addManifestInput(RunManifest &manifest, const std::string &role,
                      const std::string &path);

/** Copy the counter/gauge sections from a telemetry snapshot. */
void captureCounters(RunManifest &manifest,
                     const telemetry::MetricsSnapshot &snapshot);

/** Canonical JSON rendering (ends with a newline). */
void saveRunManifest(const RunManifest &manifest, std::ostream &os);

/** saveRunManifest into a string. */
std::string manifestToJson(const RunManifest &manifest);

/**
 * Parse a manifest document.
 * @return false with a description in @p error on malformed input.
 */
bool loadRunManifest(const std::string &json, RunManifest &out,
                     std::string *error);

/** loadRunManifest over a file's contents. */
bool loadRunManifestFile(const std::string &path, RunManifest &out,
                         std::string *error);

} // namespace diag
} // namespace heapmd

#endif // HEAPMD_DIAG_RUN_MANIFEST_HH
