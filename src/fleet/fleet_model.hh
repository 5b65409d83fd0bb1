/**
 * @file
 * Fleet population models: what "normal" looks like across a fleet.
 *
 * One process's run manifest says what *it* did; a fleet model says
 * what N of them did together.  `heapmd fleet-merge` pools per-metric
 * stable ranges across processes (weighted by how much each process
 * actually sampled), attributes per-process outliers by a
 * leave-one-out z-score over the member means, and clusters the
 * incident bundles the members reference by suspect-function
 * signature -- the same crash showing up on twelve hosts is one
 * cluster with count 12, not twelve findings.
 *
 * Same canonical-JSON contract as run manifests and incident
 * bundles: stable field order, versioned schema, byte-for-byte
 * save/load round-trip.  Members are sorted by manifest path and all
 * derived sections have total orders, so the rendering is
 * byte-identical regardless of input order or worker count.
 */

#ifndef HEAPMD_FLEET_FLEET_MODEL_HH
#define HEAPMD_FLEET_FLEET_MODEL_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace heapmd
{
namespace fleet
{

/** Fleet document type tag (the JSON "kind" member). */
inline constexpr const char *kFleetKind = "heapmd.fleet";

/** Current fleet-model schema version. */
inline constexpr std::uint64_t kFleetSchemaVersion = 1;

/** One process (run manifest) folded into the fleet. */
struct FleetMember
{
    std::string path;     //!< manifest path; the member sort key
    std::string program;
    std::string command;  //!< "check", "replay", ...
    std::uint64_t schemaVersion = 0; //!< of the source manifest
    std::uint64_t events = 0;
    std::uint64_t samples = 0;
    std::uint64_t reports = 0;  //!< anomaly reports this run raised
    std::uint64_t metricFrequency = 0; //!< sampling provenance
    std::uint64_t rotateBytes = 0;     //!< rotation provenance
};

/** Pooled stable range of one metric across the fleet. */
struct FleetMetricRange
{
    std::string metric;   //!< metricName()
    std::uint64_t members = 0; //!< members that sampled this metric
    std::uint64_t samples = 0; //!< pooled sample count (the weight)
    /** Pooled over non-outlier members only. */
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;   //!< weighted mean of non-outlier means
    double stddev = 0.0; //!< weighted stddev of non-outlier means
};

/** One process whose metric mean sits outside the population. */
struct FleetOutlier
{
    std::string path;    //!< offending member's manifest path
    std::string metric;
    double score = 0.0;  //!< leave-one-out weighted z-score
    double memberMean = 0.0;
    double fleetMean = 0.0; //!< mean of the others (leave-one-out)
};

/** One cluster of equivalent incidents across the fleet. */
struct FleetIncident
{
    /** "bugClass|metric|suspect1,suspect2,suspect3" (top <= 3). */
    std::string signature;
    std::uint64_t count = 0; //!< bundles folded into the cluster
    std::vector<std::string> members; //!< manifest paths, sorted
};

/** The whole population model. */
struct FleetModel
{
    std::uint64_t schemaVersion = kFleetSchemaVersion;
    std::uint64_t processes = 0; //!< == members.size()

    /**
     * Sampling/rotation provenance of the fleet: the first (sorted)
     * member's values.  `mixed` is set when any member disagrees --
     * pooled ranges then compare apples to oranges, and fleet-merge
     * says so with a fleet.mixed-provenance warning.
     */
    std::uint64_t metricFrequency = 0;
    std::uint64_t rotateBytes = 0;
    bool mixedProvenance = false;

    std::vector<FleetMember> members;     //!< sorted by path
    std::vector<FleetMetricRange> metrics; //!< kAllMetrics order
    /** Sorted by (score desc, path, metric). */
    std::vector<FleetOutlier> outliers;
    /** Sorted by (count desc, signature). */
    std::vector<FleetIncident> incidents;
};

/** Canonical JSON rendering (ends with a newline). */
void saveFleetModel(const FleetModel &model, std::ostream &os);

/** saveFleetModel into a string. */
std::string fleetToJson(const FleetModel &model);

/**
 * Parse a fleet document.
 * @return false with a description in @p error on malformed input.
 */
bool loadFleetModel(const std::string &json, FleetModel &out,
                    std::string *error);

/** loadFleetModel over a file's contents. */
bool loadFleetModelFile(const std::string &path, FleetModel &out,
                        std::string *error);

/**
 * Render the model as Prometheus text exposition: the
 * `heapmd_fleet_*` families (process count, per-metric pooled
 * ranges, outlier and incident-cluster tallies).  Deterministic for
 * a given model, so `export` can serve it verbatim per scrape.
 */
std::string renderFleetPrometheus(const FleetModel &model);

} // namespace fleet
} // namespace heapmd

#endif // HEAPMD_FLEET_FLEET_MODEL_HH
