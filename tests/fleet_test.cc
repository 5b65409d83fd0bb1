/**
 * @file
 * Unit tests of the fleet aggregation layer: input discovery, merge
 * determinism (input order and worker count), leave-one-out outlier
 * attribution, incident clustering, the canonical-JSON round-trip,
 * the fleet.* linter, and cross-fleet trend comparison.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/fleet_lint.hh"
#include "analysis/report.hh"
#include "diag/incident_bundle.hh"
#include "diag/run_manifest.hh"
#include "fleet/fleet_merge.hh"
#include "fleet/fleet_model.hh"
#include "fleet/fleet_trend.hh"
#include "metrics/metric.hh"
#include "telemetry/json_document.hh"

namespace heapmd
{

namespace
{

namespace fs = std::filesystem;

/** Fleet artifacts in a throwaway directory. */
class FleetTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("heapmd_fleet_" +
                std::to_string(::testing::UnitTest::GetInstance()
                                   ->random_seed()) +
                "_" + ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void
    TearDown() override
    {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    std::string
    path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    /**
     * A manifest whose per-metric means sit at @p base + the metric
     * index, so every metric carries a distinct but steady value.
     * @p drift shifts every mean (the drifting member).
     */
    diag::RunManifest
    testManifest(const std::string &program, double base,
                 double drift = 0.0,
                 std::uint64_t samples = 100) const
    {
        diag::RunManifest m;
        m.command = "check";
        m.commandLine = "heapmd check --app " + program;
        m.program = program;
        m.metricFrequency = 300;
        m.events = samples * 300;
        m.samples = samples;
        for (MetricId id : kAllMetrics) {
            diag::ManifestMetric metric;
            metric.metric = metricName(id);
            metric.summary.count = samples;
            metric.summary.mean = base +
                                  static_cast<double>(
                                      metricIndex(id)) +
                                  drift;
            metric.summary.min = metric.summary.mean - 2.0;
            metric.summary.max = metric.summary.mean + 2.0;
            metric.summary.stddev = 0.5;
            m.metrics.push_back(std::move(metric));
        }
        return m;
    }

    /** Write @p manifest to @p name under the test directory. */
    std::string
    writeManifest(const std::string &name,
                  const diag::RunManifest &manifest) const
    {
        const std::string file = path(name);
        std::ofstream out(file, std::ios::binary);
        diag::saveRunManifest(manifest, out);
        return file;
    }

    /** Write a minimal incident bundle with the given signature. */
    std::string
    writeBundle(const std::string &name,
                const std::vector<std::string> &suspects) const
    {
        diag::IncidentBundle bundle;
        bundle.program = "server";
        bundle.bugClass = "HeapAnomaly";
        bundle.metric = "Leaves";
        bundle.direction = "above-max";
        bundle.observedValue = 40.0;
        bundle.calibratedMin = 8.0;
        bundle.calibratedMax = 30.0;
        for (std::size_t i = 0; i < suspects.size(); ++i) {
            diag::BundleSuspect suspect;
            suspect.fnId = FnId{static_cast<std::uint32_t>(i)};
            suspect.name = suspects[i];
            suspect.snapshots = suspects.size() - i;
            bundle.suspects.push_back(std::move(suspect));
        }
        const std::string file = path(name);
        std::ofstream out(file, std::ios::binary);
        diag::saveIncidentBundle(bundle, out);
        return file;
    }

    /** collectFleetInputs + mergeFleet over explicit paths. */
    fleet::FleetModel
    merge(const std::vector<std::string> &paths,
          analysis::Report &report, unsigned jobs = 1) const
    {
        fleet::FleetInputs inputs;
        std::string error;
        EXPECT_TRUE(
            fleet::collectFleetInputs(paths, inputs, error))
            << error;
        fleet::FleetMergeOptions options;
        options.jobs = jobs;
        fleet::FleetModel model;
        EXPECT_TRUE(fleet::mergeFleet(inputs, options, model,
                                      report, error))
            << error;
        return model;
    }

    fs::path dir_;
};

TEST_F(FleetTest, MergeIsByteDeterministic)
{
    std::vector<std::string> paths;
    for (int i = 0; i < 6; ++i) {
        paths.push_back(writeManifest(
            "m" + std::to_string(i) + ".json",
            testManifest("app" + std::to_string(i), 40.0,
                         i == 3 ? 25.0 : 0.1 * i)));
    }

    analysis::Report first_report;
    const std::string first =
        fleet::fleetToJson(merge(paths, first_report));

    // Reversed input order.
    std::vector<std::string> reversed(paths.rbegin(), paths.rend());
    analysis::Report reversed_report;
    EXPECT_EQ(first,
              fleet::fleetToJson(merge(reversed, reversed_report)));

    // More workers.
    analysis::Report jobs_report;
    EXPECT_EQ(first,
              fleet::fleetToJson(merge(paths, jobs_report, 4)));
}

TEST_F(FleetTest, SingleProcessDegenerateCase)
{
    const std::string file =
        writeManifest("only.json", testManifest("solo", 50.0));
    analysis::Report report;
    const fleet::FleetModel model = merge({file}, report);

    EXPECT_EQ(1u, model.processes);
    ASSERT_EQ(1u, model.members.size());
    EXPECT_EQ(file, model.members.front().path);
    EXPECT_EQ(kNumMetrics, model.metrics.size());
    // Below minMembers: no outlier attribution, hence no findings.
    EXPECT_TRUE(model.outliers.empty());
    EXPECT_TRUE(report.clean());
    // The pooled range still reflects the one member.
    EXPECT_DOUBLE_EQ(48.0, model.metrics.front().min);
    EXPECT_DOUBLE_EQ(52.0, model.metrics.front().max);
}

TEST_F(FleetTest, DriftingMemberIsSoleOutlier)
{
    std::vector<std::string> paths;
    for (int i = 0; i < 7; ++i) {
        paths.push_back(writeManifest(
            "steady" + std::to_string(i) + ".json",
            testManifest("steady" + std::to_string(i), 40.0,
                         0.05 * i)));
    }
    const std::string drifter = writeManifest(
        "drifter.json", testManifest("drifter", 40.0, 30.0));
    paths.push_back(drifter);

    analysis::Report report;
    const fleet::FleetModel model = merge(paths, report);

    ASSERT_FALSE(model.outliers.empty());
    for (const fleet::FleetOutlier &outlier : model.outliers)
        EXPECT_EQ(drifter, outlier.path);
    EXPECT_FALSE(report.clean());
    EXPECT_TRUE(report.has("fleet.outlier"));
    // The pooled ranges describe the healthy seven, not the drifter.
    for (const fleet::FleetMetricRange &range : model.metrics)
        EXPECT_LT(range.max, 50.0);
}

TEST_F(FleetTest, SampleWeightShapesAttribution)
{
    // The drifting member barely sampled; heavy steady members keep
    // the leave-one-out yardstick where the real population is.
    std::vector<std::string> paths;
    for (int i = 0; i < 5; ++i) {
        paths.push_back(writeManifest(
            "heavy" + std::to_string(i) + ".json",
            testManifest("heavy" + std::to_string(i), 40.0, 0.0,
                         1000)));
    }
    paths.push_back(writeManifest(
        "light.json", testManifest("light", 40.0, 20.0, 2)));

    analysis::Report report;
    const fleet::FleetModel model = merge(paths, report);
    ASSERT_FALSE(model.outliers.empty());
    for (const fleet::FleetOutlier &outlier : model.outliers)
        EXPECT_EQ(path("light.json"), outlier.path);
}

TEST_F(FleetTest, MixedProvenanceWarns)
{
    const std::string a =
        writeManifest("a.json", testManifest("a", 40.0));
    diag::RunManifest other = testManifest("b", 40.0);
    other.metricFrequency = 150;
    const std::string b = writeManifest("b.json", other);

    analysis::Report report;
    const fleet::FleetModel model = merge({a, b}, report);
    EXPECT_TRUE(model.mixedProvenance);
    EXPECT_TRUE(report.has("fleet.mixed-provenance"));
    // A warning, not an error: the merge still exits 0.
    EXPECT_TRUE(report.clean());
}

TEST_F(FleetTest, DuplicateInputIsNoted)
{
    const std::string a =
        writeManifest("a.json", testManifest("a", 40.0));
    analysis::Report report;
    const fleet::FleetModel model = merge({a, a}, report);
    EXPECT_EQ(1u, model.processes);
    EXPECT_TRUE(report.has("fleet.duplicate"));
    EXPECT_TRUE(report.clean());
}

TEST_F(FleetTest, DirectoryDiscoveryClassifiesKinds)
{
    writeManifest("m1.json", testManifest("a", 40.0));
    writeManifest("m2.json", testManifest("b", 40.0));
    writeBundle("incident-001.json", {"leaky_alloc", "main"});
    {
        // Not a fleet input; must be skipped, not rejected.
        std::ofstream out(path("notes.json"));
        out << "{\"kind\": \"something.else\"}\n";
    }

    fleet::FleetInputs inputs;
    std::string error;
    ASSERT_TRUE(fleet::collectFleetInputs({dir_.string()}, inputs,
                                          error))
        << error;
    EXPECT_EQ(2u, inputs.manifests.size());
    EXPECT_EQ(1u, inputs.bundles.size());

    std::string missing_error;
    EXPECT_FALSE(fleet::collectFleetInputs(
        {path("no-such-file.json")}, inputs, missing_error));
    EXPECT_NE(std::string::npos,
              missing_error.find("does not exist"));
}

TEST_F(FleetTest, UnreadableFleetPathIsAnIoFailure)
{
    // The fixture directory opens but reads as EISDIR; it used to be
    // linted as an empty document (fleet.parse).
    analysis::Report report;
    analysis::lintFleetFile(dir_.string(), report);
    EXPECT_TRUE(report.has("fleet.io"));
    EXPECT_FALSE(report.has("fleet.parse"));

    fleet::FleetModel model;
    std::string error;
    EXPECT_FALSE(fleet::loadFleetModelFile(dir_.string(), model, &error));
    EXPECT_EQ(error.rfind("cannot read '" + dir_.string() + "'", 0), 0u)
        << error;
}

TEST_F(FleetTest, IncidentClusteringDedupsBySignature)
{
    diag::RunManifest a = testManifest("a", 40.0);
    a.bundlePaths = {writeBundle("bundle-a.json",
                                 {"leaky_alloc", "main"})};
    diag::RunManifest b = testManifest("b", 40.0);
    b.bundlePaths = {writeBundle("bundle-b.json",
                                 {"leaky_alloc", "main"})};
    diag::RunManifest c = testManifest("c", 40.0);
    c.bundlePaths = {writeBundle("bundle-c.json", {"other_fn"})};
    const std::string pa = writeManifest("a.json", a);
    const std::string pb = writeManifest("b.json", b);
    const std::string pc = writeManifest("c.json", c);

    analysis::Report report;
    const fleet::FleetModel model = merge({pa, pb, pc}, report);

    ASSERT_EQ(2u, model.incidents.size());
    // Biggest cluster first: the same signature on two hosts.
    EXPECT_EQ(2u, model.incidents[0].count);
    EXPECT_EQ(
        fleet::incidentSignature("HeapAnomaly", "Leaves",
                                 {"leaky_alloc", "main"}),
        model.incidents[0].signature);
    EXPECT_EQ(std::vector<std::string>({pa, pb}),
              model.incidents[0].members);
    EXPECT_EQ(1u, model.incidents[1].count);
}

TEST_F(FleetTest, MissingBundleIsANote)
{
    diag::RunManifest a = testManifest("a", 40.0);
    a.bundlePaths = {"bundles/gone-001.json"};
    const std::string pa = writeManifest("a.json", a);

    analysis::Report report;
    const fleet::FleetModel model = merge({pa}, report);
    EXPECT_TRUE(model.incidents.empty());
    EXPECT_TRUE(report.has("fleet.bundle-missing"));
    EXPECT_TRUE(report.clean());
}

TEST_F(FleetTest, ModelRoundTripsByteForByte)
{
    std::vector<std::string> paths;
    for (int i = 0; i < 4; ++i) {
        paths.push_back(writeManifest(
            "m" + std::to_string(i) + ".json",
            testManifest("app" + std::to_string(i), 40.0,
                         i == 2 ? 25.0 : 0.0)));
    }
    analysis::Report report;
    const fleet::FleetModel model = merge(paths, report);
    const std::string json = fleet::fleetToJson(model);

    fleet::FleetModel loaded;
    std::string error;
    ASSERT_TRUE(fleet::loadFleetModel(json, loaded, &error))
        << error;
    EXPECT_EQ(json, fleet::fleetToJson(loaded));
    EXPECT_EQ(model.processes, loaded.processes);
    EXPECT_EQ(model.outliers.size(), loaded.outliers.size());

    std::uint64_t version = 0;
    EXPECT_TRUE(
        telemetry::peekSchemaVersion(json, fleet::kFleetKind, version));
    EXPECT_EQ(fleet::kFleetSchemaVersion, version);
}

TEST_F(FleetTest, LintAcceptsMergeOutputAndCatchesDefects)
{
    std::vector<std::string> paths;
    for (int i = 0; i < 4; ++i) {
        paths.push_back(writeManifest(
            "m" + std::to_string(i) + ".json",
            testManifest("app" + std::to_string(i), 40.0,
                         i == 2 ? 25.0 : 0.0)));
    }
    analysis::Report merge_report;
    const fleet::FleetModel model = merge(paths, merge_report);
    const std::string json = fleet::fleetToJson(model);

    {
        analysis::Report lint;
        const analysis::FleetLintStats stats =
            analysis::lintFleetText(json, lint);
        EXPECT_TRUE(lint.clean()) << lint.describe();
        EXPECT_EQ(4u, stats.members);
        EXPECT_EQ(kNumMetrics, stats.metrics);
    }
    {
        // Out-of-order members.
        analysis::Report lint;
        std::string broken = json;
        const std::size_t at = broken.find("m0.json");
        ASSERT_NE(std::string::npos, at);
        broken.replace(at, 7, "z9.json");
        analysis::lintFleetText(broken, lint);
        EXPECT_TRUE(lint.has("fleet.member-order"));
    }
    {
        // An outlier pointing at no member.
        analysis::Report lint;
        std::string broken = json;
        const std::size_t outliers = broken.find("\"outliers\"");
        ASSERT_NE(std::string::npos, outliers);
        const std::size_t at = broken.find("m2.json", outliers);
        ASSERT_NE(std::string::npos, at);
        broken.replace(at, 7, "zz.json");
        analysis::lintFleetText(broken, lint);
        EXPECT_TRUE(lint.has("fleet.outlier-unknown"));
    }
    {
        // An unknown metric name.
        analysis::Report lint;
        std::string broken = json;
        const std::size_t at = broken.find("\"Leaves\"");
        ASSERT_NE(std::string::npos, at);
        broken.replace(at, 8, "\"Bogus1\"");
        analysis::lintFleetText(broken, lint);
        EXPECT_TRUE(lint.has("fleet.bad-metric"));
    }
    {
        analysis::Report lint;
        analysis::lintFleetText("{\"kind\": \"heapmd.manifest\"}",
                                lint);
        EXPECT_TRUE(lint.has("fleet.kind"));
    }
}

TEST_F(FleetTest, TrendFlagsNewOutlierAndDrift)
{
    std::vector<std::string> steady;
    for (int i = 0; i < 4; ++i) {
        steady.push_back(writeManifest(
            "m" + std::to_string(i) + ".json",
            testManifest("app" + std::to_string(i), 40.0)));
    }
    analysis::Report baseline_report;
    const fleet::FleetModel baseline =
        merge(steady, baseline_report);

    {
        // Identical fleets: clean.
        analysis::Report report;
        fleet::compareFleets(baseline, baseline, {}, report);
        EXPECT_TRUE(report.clean()) << report.describe();
        EXPECT_TRUE(report.findings().empty());
    }

    // Today one member drifted.
    std::vector<std::string> today(steady.begin(),
                                   steady.end() - 1);
    today.push_back(writeManifest(
        "m3b.json", testManifest("app3", 40.0, 30.0)));
    analysis::Report today_report;
    const fleet::FleetModel candidate = merge(today, today_report);

    analysis::Report report;
    fleet::compareFleets(baseline, candidate, {}, report);
    EXPECT_FALSE(report.clean());
    EXPECT_TRUE(report.has("fleet.outlier-new"));
    EXPECT_TRUE(report.has("fleet.outlier-count"));
}

TEST_F(FleetTest, TrendFlagsShrinkAndNewIncidents)
{
    std::vector<std::string> paths;
    for (int i = 0; i < 3; ++i) {
        paths.push_back(writeManifest(
            "m" + std::to_string(i) + ".json",
            testManifest("app" + std::to_string(i), 40.0)));
    }
    analysis::Report baseline_report;
    const fleet::FleetModel baseline = merge(paths, baseline_report);

    // Today: one member gone, and an incident cluster appeared.
    diag::RunManifest with_bundle = testManifest("app0", 40.0);
    with_bundle.bundlePaths = {
        writeBundle("bundle.json", {"leaky_alloc"})};
    analysis::Report today_report;
    const fleet::FleetModel candidate =
        merge({writeManifest("m0b.json", with_bundle), paths[1]},
              today_report);

    analysis::Report report;
    fleet::compareFleets(baseline, candidate, {}, report);
    EXPECT_TRUE(report.has("fleet.process-count"));
    EXPECT_TRUE(report.has("fleet.incident-new"));
    EXPECT_FALSE(report.clean());
}

} // namespace

} // namespace heapmd
