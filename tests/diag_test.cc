/**
 * @file
 * Unit tests of the diagnostics-export subsystem: incident bundles,
 * run manifests (canonical JSON round-trips), the incident renderer,
 * cross-run trend comparison, and the diag.* artifact linter.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>

#include "analysis/diag_lint.hh"
#include "diag/incident_bundle.hh"
#include "diag/json.hh"
#include "diag/render.hh"
#include "diag/run_manifest.hh"
#include "diag/trend.hh"
#include "support/hash.hh"

namespace heapmd
{

namespace
{

using diag::IncidentBundle;
using diag::RunManifest;

/** A registry with a few known functions (ids 0..2). */
FunctionRegistry
testRegistry()
{
    FunctionRegistry registry;
    registry.intern("leaky_alloc");
    registry.intern("steady_work");
    registry.intern("main");
    return registry;
}

/** A series of @p n points with Leaves ramping upward. */
MetricSeries
testSeries(std::size_t n)
{
    MetricSeries series;
    series.label = "gzip seed 3 v1";
    for (std::size_t i = 0; i < n; ++i) {
        MetricSample s;
        s.pointIndex = i;
        s.tick = 100 * (i + 1);
        s.vertexCount = 1000;
        for (MetricId id : kAllMetrics)
            s.values[metricIndex(id)] = 10.0;
        s.values[metricIndex(MetricId::Leaves)] =
            10.0 + static_cast<double>(i) * 1.5;
        series.push(s);
    }
    return series;
}

/** A finalized report crossing Leaves above max at point 20. */
BugReport
testReport()
{
    BugReport r;
    r.klass = BugClass::HeapAnomaly;
    r.metric = MetricId::Leaves;
    r.direction = AnomalyDirection::AboveMax;
    r.observedValue = 40.0;
    r.calibratedMin = 8.0;
    r.calibratedMax = 30.0;
    r.tick = 2100;
    r.pointIndex = 20;
    for (std::uint64_t i = 0; i < 6; ++i) {
        StackLogEntry e;
        e.tick = 1800 + i * 60;
        e.pointIndex = 18 + i;
        e.metricValue = 35.0 + static_cast<double>(i);
        // leaky_alloc innermost twice as often as steady_work.
        e.frames = {i % 3 == 1 ? FnId{1} : FnId{0}, 2};
        r.contextLog.push_back(e);
    }
    return r;
}

/** A manifest with every section populated (round-trip coverage). */
RunManifest
testManifest()
{
    RunManifest m;
    m.command = "check";
    m.commandLine = "heapmd check --app gzip --model gzip.model";
    m.program = "gzip seed 3 v1";
    m.metricFrequency = 300;
    m.includeLocallyStable = true;
    m.seed = 404;
    m.version = 2;
    m.scale = 0.4;
    m.fault = "typo-leak";
    m.faultRate = 0.25;
    m.hardwareConcurrency = 8;
    m.sanitizer = "none";
    m.peakRssBytes = 64ull * 1024 * 1024;
    m.durationNanos = 987654321;
    m.inputs.push_back({"model", "gzip.model",
                        hashFingerprint(fnv1a64("model-bytes")), 512});
    m.phases.push_back({"phase.observe", 25, 200000000, 180000000, 0});
    m.phases.push_back({"phase.train", 1, 210000000, 190000000, 4096});
    m.events = 10000;
    m.samples = 33;
    m.allocs = 4000;
    m.frees = 3900;
    m.liveBlocksAtExit = 100;
    m.wallNanos = 1234567;
    m.cpuNanos = 1200000;
    m.reportsTotal = 2;
    m.heapAnomalies = 1;
    m.poorlyDisguised = 1;
    m.pathological = 0;
    m.bundlePaths = {"bundles/incident-001.json",
                     "bundles/incident-002.json"};
    for (MetricId id : kAllMetrics) {
        SeriesSummary s;
        s.count = 33;
        s.min = 1.0;
        s.max = 30.5;
        s.mean = 15.25;
        s.stddev = 0.125;
        m.metrics.push_back({metricName(id), s});
    }
    m.counters.push_back({"graph.allocs", 4000});
    m.counters.push_back({"graph.frees", 3900});
    m.gauges.push_back({"graph.live_bytes", -5});
    return m;
}

TEST(JsonNumberTest, ShortestRoundTrip)
{
    for (double v : {0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 22.4644,
                     1e-300, 6.02214076e23, -123456.789}) {
        const std::string text = diag::formatJsonNumber(v);
        EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
    }
    // Non-finite values are not valid JSON; they collapse to 0.
    EXPECT_EQ(diag::formatJsonNumber(NAN), "0");
    EXPECT_EQ(diag::formatJsonNumber(INFINITY), "0");
}

TEST(JsonParseTest, NestingDepthIsBounded)
{
    // 100k nested arrays would overflow the recursive parser's stack;
    // they are a named parse error at the first level past the bound.
    const std::size_t deep = 100000;
    telemetry::JsonValue root;
    std::string error;
    EXPECT_FALSE(telemetry::parseJson(
        std::string(deep, '[') + std::string(deep, ']'), root, &error));
    EXPECT_EQ(error, "document nested deeper than " +
                         std::to_string(telemetry::kMaxJsonDepth) +
                         " levels at offset " +
                         std::to_string(telemetry::kMaxJsonDepth));

    // Exactly at the bound, objects and arrays mixed, still parses.
    std::string at_limit;
    for (std::size_t i = 1; i < telemetry::kMaxJsonDepth; ++i)
        at_limit += "{\"k\": ";
    at_limit += "[1]";
    at_limit += std::string(telemetry::kMaxJsonDepth - 1, '}');
    ASSERT_TRUE(telemetry::parseJson(at_limit, root, &error)) << error;
    const telemetry::JsonValue *v = &root;
    for (std::size_t i = 1; i < telemetry::kMaxJsonDepth; ++i) {
        ASSERT_TRUE(v->isObject());
        v = v->find("k");
        ASSERT_NE(v, nullptr);
    }
    ASSERT_TRUE(v->isArray());
    EXPECT_EQ(v->array.size(), 1u);

    // One level more fails.
    EXPECT_FALSE(telemetry::parseJson("[" + at_limit + "]", root,
                                      &error));
}

TEST(JsonAccessorTest, IntegersMustBeWholeNumbersInRange)
{
    // A cast of an out-of-range double is undefined; these used to
    // load as 0 (or 1 for 1.5).
    for (const char *value : {"1e30", "1e400", "18446744073709551616",
                              "1.5", "-1"}) {
        telemetry::JsonValue root;
        ASSERT_TRUE(telemetry::parseJson(
            std::string("{\"v\": ") + value + "}", root, nullptr));
        std::uint64_t u = 7;
        std::string error;
        EXPECT_FALSE(diag::jsonU64(root, "v", u, &error)) << value;
        EXPECT_NE(error.find("member 'v' is "), std::string::npos)
            << error;
    }
    for (const char *value : {"9223372036854775808", "-1e400", "0.5"}) {
        telemetry::JsonValue root;
        ASSERT_TRUE(telemetry::parseJson(
            std::string("{\"v\": ") + value + "}", root, nullptr));
        std::int64_t i = 7;
        std::string error;
        EXPECT_FALSE(diag::jsonI64(root, "v", i, &error)) << value;
    }
    telemetry::JsonValue root;
    ASSERT_TRUE(telemetry::parseJson(
        "{\"u\": 9007199254740992, \"i\": -9223372036854775808}",
        root, nullptr));
    std::uint64_t u = 0;
    std::int64_t i = 0;
    EXPECT_TRUE(diag::jsonU64(root, "u", u, nullptr));
    EXPECT_EQ(u, 9007199254740992u);
    EXPECT_TRUE(diag::jsonI64(root, "i", i, nullptr));
    EXPECT_EQ(i, std::numeric_limits<std::int64_t>::min());
}

TEST(DocumentHeaderTest, SchemaVersionMustBeAWholeNumber)
{
    std::string json = diag::manifestToJson(testManifest());
    const auto pos = json.find("\"schemaVersion\": 4");
    ASSERT_NE(pos, std::string::npos);
    json.replace(pos + 17, 1, "1e30");

    RunManifest loaded;
    std::string error;
    EXPECT_FALSE(diag::loadRunManifest(json, loaded, &error));
    EXPECT_EQ(error, "member 'schemaVersion' is out of range");
    analysis::Report report;
    analysis::lintManifestText(json, report);
    EXPECT_TRUE(report.has("diag.version"));
}

TEST(ReadFileTest, UnreadablePathIsAnIoFailure)
{
    // A directory opens but reads as EISDIR; it used to pass for an
    // empty document ("unexpected end of input").
    const std::string dir = ::testing::TempDir();
    analysis::Report manifest_report;
    analysis::lintManifestFile(dir, manifest_report);
    EXPECT_TRUE(manifest_report.has("diag.io"));
    EXPECT_FALSE(manifest_report.has("diag.parse"));
    analysis::Report bundle_report;
    analysis::lintBundleFile(dir, bundle_report);
    EXPECT_TRUE(bundle_report.has("diag.io"));

    RunManifest manifest;
    std::string error;
    EXPECT_FALSE(diag::loadRunManifestFile(dir, manifest, &error));
    EXPECT_EQ(error.rfind("cannot read '" + dir + "'", 0), 0u)
        << error;
    IncidentBundle bundle;
    EXPECT_FALSE(diag::loadIncidentBundleFile(dir, bundle, &error));
    EXPECT_EQ(error.rfind("cannot read '" + dir + "'", 0), 0u)
        << error;
}

TEST(IncidentBundleTest, BuildResolvesFramesAndSuspects)
{
    const FunctionRegistry registry = testRegistry();
    const MetricSeries series = testSeries(30);
    const IncidentBundle bundle =
        diag::makeIncidentBundle(testReport(), registry, series);

    EXPECT_EQ(bundle.program, "gzip seed 3 v1");
    EXPECT_EQ(bundle.bugClass, "heap-anomaly");
    EXPECT_EQ(bundle.metric, metricName(MetricId::Leaves));
    EXPECT_EQ(bundle.direction, "above-max");
    ASSERT_EQ(bundle.contextLog.size(), 6u);
    EXPECT_EQ(bundle.contextLog[0].frames[0].name, "leaky_alloc");
    ASSERT_GE(bundle.suspects.size(), 2u);
    EXPECT_EQ(bundle.suspects[0].fnId, 0u);
    EXPECT_EQ(bundle.suspects[0].name, "leaky_alloc");
    EXPECT_EQ(bundle.suspects[0].snapshots, 4u);
    // Window covers [20-16, 20+16] clamped to the series.
    ASSERT_FALSE(bundle.window.empty());
    EXPECT_EQ(bundle.window.front().pointIndex, 4u);
    EXPECT_EQ(bundle.window.back().pointIndex, 29u);
}

TEST(IncidentBundleTest, UnregisteredFnIdsRenderPlaceholders)
{
    // Satellite regression: a report whose FnIds the registry never
    // saw must serialize placeholder names, not crash.
    BugReport report = testReport();
    report.contextLog[0].frames = {9999, 12345};
    const FunctionRegistry empty;
    const IncidentBundle bundle = diag::makeIncidentBundle(
        report, empty, testSeries(30));
    EXPECT_EQ(bundle.contextLog[0].frames[0].name, "<fn#9999>");
    EXPECT_EQ(bundle.contextLog[0].frames[1].name, "<fn#12345>");
    bool ranked = false;
    for (const diag::BundleSuspect &suspect : bundle.suspects) {
        if (suspect.fnId == 9999)
            ranked = suspect.name == "<fn#9999>";
    }
    EXPECT_TRUE(ranked);
    // And the document still audits clean.
    analysis::Report lint;
    analysis::lintBundleText(diag::bundleToJson(bundle), lint);
    EXPECT_TRUE(lint.clean()) << lint.describe();
}

TEST(IncidentBundleTest, RoundTripsByteForByte)
{
    const IncidentBundle bundle = diag::makeIncidentBundle(
        testReport(), testRegistry(), testSeries(30));
    const std::string first = diag::bundleToJson(bundle);

    IncidentBundle loaded;
    std::string error;
    ASSERT_TRUE(diag::loadIncidentBundle(first, loaded, &error))
        << error;
    EXPECT_EQ(diag::bundleToJson(loaded), first);

    EXPECT_EQ(loaded.schemaVersion, bundle.schemaVersion);
    EXPECT_EQ(loaded.observedValue, bundle.observedValue);
    EXPECT_EQ(loaded.pointIndex, bundle.pointIndex);
    EXPECT_EQ(loaded.suspects.size(), bundle.suspects.size());
    EXPECT_EQ(loaded.contextLog.size(), bundle.contextLog.size());
    EXPECT_EQ(loaded.window.size(), bundle.window.size());
}

TEST(IncidentBundleTest, LoadRejectsWrongKindAndVersion)
{
    IncidentBundle out;
    std::string error;
    EXPECT_FALSE(diag::loadIncidentBundle("{", out, &error));
    EXPECT_FALSE(diag::loadIncidentBundle(
        "{\"kind\": \"heapmd.manifest\", \"schemaVersion\": 1}", out,
        &error));
    EXPECT_NE(error.find("kind"), std::string::npos);
    EXPECT_FALSE(diag::loadIncidentBundle(
        "{\"kind\": \"heapmd.incident\", \"schemaVersion\": 99}", out,
        &error));
}

TEST(RunManifestTest, RoundTripsByteForByte)
{
    const RunManifest manifest = testManifest();
    const std::string first = diag::manifestToJson(manifest);

    RunManifest loaded;
    std::string error;
    ASSERT_TRUE(diag::loadRunManifest(first, loaded, &error)) << error;
    EXPECT_EQ(diag::manifestToJson(loaded), first);

    EXPECT_EQ(loaded.command, "check");
    EXPECT_EQ(loaded.fault, "typo-leak");
    EXPECT_EQ(loaded.inputs.size(), 1u);
    EXPECT_EQ(loaded.inputs[0].fingerprint,
              manifest.inputs[0].fingerprint);
    EXPECT_EQ(loaded.bundlePaths.size(), 2u);
    EXPECT_EQ(loaded.metrics.size(), kNumMetrics);
    EXPECT_EQ(loaded.gauges[0].value, -5);
    EXPECT_TRUE(loaded.includeLocallyStable);
    EXPECT_EQ(loaded.hardwareConcurrency, 8u);
    EXPECT_EQ(loaded.sanitizer, "none");
    EXPECT_EQ(loaded.peakRssBytes, 64ull * 1024 * 1024);
    EXPECT_EQ(loaded.durationNanos, 987654321u);
    ASSERT_EQ(loaded.phases.size(), 2u);
    EXPECT_EQ(loaded.phases[0].name, "phase.observe");
    EXPECT_EQ(loaded.phases[0].count, 25u);
    EXPECT_EQ(loaded.phases[1].wallNanos, 210000000u);
    EXPECT_EQ(loaded.phases[1].bytes, 4096u);
}

/** Erase the whole lines from the one containing @p from through the
 *  one containing the first @p close after it. */
void
stripBlock(std::string &json, const std::string &from, char close)
{
    const auto pos = json.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    const auto line_start = json.rfind('\n', pos) + 1;
    const auto line_end =
        json.find('\n', json.find(close, pos)) + 1;
    json.erase(line_start, line_end - line_start);
}

/** Rewrite the document's schemaVersion claim to @p to. */
void
claimVersion(std::string &json, char to)
{
    const auto pos = json.find("\"schemaVersion\": 4");
    ASSERT_NE(pos, std::string::npos);
    json[pos + 17] = to;
}

TEST(RunManifestTest, V1DocumentsLoadWithoutEnv)
{
    // Hand-build a schema-1 document by stripping the env object and
    // phases array from a canonical v4 rendering; the loader must
    // accept it with those fields defaulted, and a re-save must
    // claim v4 (it gains the newer blocks back).
    std::string json = diag::manifestToJson(testManifest());
    stripBlock(json, "\"env\"", '}');
    stripBlock(json, "\"phases\"", ']');
    claimVersion(json, '1');

    RunManifest loaded;
    std::string error;
    ASSERT_TRUE(diag::loadRunManifest(json, loaded, &error)) << error;
    EXPECT_EQ(loaded.schemaVersion, 1u);
    EXPECT_EQ(loaded.hardwareConcurrency, 0u);
    EXPECT_TRUE(loaded.sanitizer.empty());
    EXPECT_TRUE(loaded.phases.empty());
    EXPECT_NE(diag::manifestToJson(loaded)
                  .find("\"schemaVersion\": 4"),
              std::string::npos);
}

TEST(RunManifestTest, V2DocumentsLoadWithoutResourcesOrPhases)
{
    // A schema-2 document has an env object without the v3 resource
    // fields and no phases array at all.
    std::string json = diag::manifestToJson(testManifest());
    // Erase ",\n "peakRssBytes": ... "durationNanos": N" as one
    // span so the field before them keeps the object well-formed.
    const auto rss_pos = json.find(",\n    \"peakRssBytes\"");
    ASSERT_NE(rss_pos, std::string::npos);
    const auto dur_pos = json.find("\"durationNanos\"", rss_pos);
    ASSERT_NE(dur_pos, std::string::npos);
    json.erase(rss_pos, json.find('\n', dur_pos) - rss_pos);
    stripBlock(json, "\"phases\"", ']');
    claimVersion(json, '2');

    RunManifest loaded;
    std::string error;
    ASSERT_TRUE(diag::loadRunManifest(json, loaded, &error)) << error;
    EXPECT_EQ(loaded.schemaVersion, 2u);
    EXPECT_EQ(loaded.hardwareConcurrency, 8u);
    EXPECT_EQ(loaded.peakRssBytes, 0u);
    EXPECT_EQ(loaded.durationNanos, 0u);
    EXPECT_TRUE(loaded.phases.empty());
}

TEST(RunManifestTest, V2DocumentsRequireEnv)
{
    std::string json = diag::manifestToJson(testManifest());
    const auto env_pos = json.find("\"env\"");
    ASSERT_NE(env_pos, std::string::npos);
    const auto line_start = json.rfind('\n', env_pos) + 1;
    const auto line_end =
        json.find('\n', json.find('}', env_pos)) + 1;
    json.erase(line_start, line_end - line_start);

    RunManifest loaded;
    std::string error;
    EXPECT_FALSE(diag::loadRunManifest(json, loaded, &error));
}

TEST(RunManifestTest, SampleRate)
{
    RunManifest m;
    EXPECT_EQ(m.sampleRate(), 0.0);
    m.events = 200;
    m.samples = 50;
    EXPECT_DOUBLE_EQ(m.sampleRate(), 0.25);
}

TEST(RenderTest, SparklineScalesIntoRamp)
{
    EXPECT_EQ(diag::asciiSparkline({}), "");
    // Flat series renders mid-ramp, one char per value.
    const std::string flat = diag::asciiSparkline({5.0, 5.0, 5.0});
    EXPECT_EQ(flat.size(), 3u);
    EXPECT_EQ(flat[0], flat[2]);
    // Endpoints of a ramp hit the extremes of ".,:-=+*#%@".
    const std::string ramp =
        diag::asciiSparkline({0.0, 0.5, 1.0});
    EXPECT_EQ(ramp.front(), '.');
    EXPECT_EQ(ramp.back(), '@');
    // A loaded 1e400 is inf: its level is NaN, drawn at the top
    // (no NaN-to-integer cast for the sanitizers to report).
    EXPECT_EQ(diag::asciiSparkline({1.0, INFINITY, 2.0}), ".@.");
}

TEST(RenderTest, IncidentPageLeadsWithSuspect)
{
    const IncidentBundle bundle = diag::makeIncidentBundle(
        testReport(), testRegistry(), testSeries(30));
    const std::string page = diag::renderIncident(bundle);

    EXPECT_NE(page.find("heap-anomaly"), std::string::npos);
    EXPECT_NE(page.find("leaky_alloc"), std::string::npos);
    EXPECT_NE(page.find("^"), std::string::npos); // crossing caret
    EXPECT_NE(page.find("stacks"), std::string::npos);
    // The suspect ranking appears before the stack listings.
    EXPECT_LT(page.find("leaky_alloc"), page.find("stacks"));
}

TEST(TrendTest, IdenticalManifestsAreClean)
{
    const RunManifest m = testManifest();
    analysis::Report report;
    diag::compareManifests(m, m, {}, report);
    EXPECT_TRUE(report.clean()) << report.describe();
}

TEST(TrendTest, NewAnomaliesAreRegressions)
{
    RunManifest baseline = testManifest();
    baseline.reportsTotal = 0;
    baseline.heapAnomalies = 0;
    baseline.poorlyDisguised = 0;
    baseline.bundlePaths.clear();
    const RunManifest candidate = testManifest();

    analysis::Report report;
    diag::compareManifests(baseline, candidate, {}, report);
    EXPECT_FALSE(report.clean());
    EXPECT_TRUE(report.has("trend.new-anomalies"));
    // The finding points at the candidate's bundles for triage.
    EXPECT_NE(report.describe().find("incident-001.json"),
              std::string::npos);
}

TEST(TrendTest, CounterDeltaBeyondToleranceFlagged)
{
    const RunManifest baseline = testManifest();
    RunManifest candidate = testManifest();
    candidate.counters[0].value = 8000; // graph.allocs 4000 -> 8000

    analysis::Report report;
    diag::compareManifests(baseline, candidate, {}, report);
    EXPECT_TRUE(report.has("trend.counter-delta"));

    // Within tolerance: clean.
    candidate.counters[0].value = 4100;
    analysis::Report ok;
    diag::compareManifests(baseline, candidate, {}, ok);
    EXPECT_FALSE(ok.has("trend.counter-delta"));
}

TEST(TrendTest, TimingAndSmallCountersIgnored)
{
    EXPECT_TRUE(diag::isTimingCounter("runtime.tick_ns"));
    EXPECT_FALSE(diag::isTimingCounter("graph.allocs"));

    RunManifest baseline = testManifest();
    baseline.counters.push_back({"runtime.tick_ns", 1000000});
    baseline.counters.push_back({"tiny.counter", 4});
    RunManifest candidate = testManifest();
    candidate.counters.push_back({"runtime.tick_ns", 9000000});
    candidate.counters.push_back({"tiny.counter", 40});

    analysis::Report report;
    diag::compareManifests(baseline, candidate, {}, report);
    EXPECT_FALSE(report.has("trend.counter-delta"))
        << report.describe();
}

TEST(TrendTest, MissingCounterWarns)
{
    const RunManifest baseline = testManifest();
    RunManifest candidate = testManifest();
    candidate.counters.erase(candidate.counters.begin());

    analysis::Report report;
    diag::compareManifests(baseline, candidate, {}, report);
    EXPECT_TRUE(report.has("trend.counter-missing"));
    EXPECT_TRUE(report.clean()); // a warning, not a regression
}

TEST(TrendTest, SampleRateDropFlagged)
{
    const RunManifest baseline = testManifest(); // 33 / 10000
    RunManifest candidate = testManifest();
    candidate.samples = 20; // ~40% drop

    analysis::Report report;
    diag::compareManifests(baseline, candidate, {}, report);
    EXPECT_TRUE(report.has("trend.sample-rate-drop"));
}

TEST(TrendTest, ProgramMismatchAndInputChangeSurface)
{
    const RunManifest baseline = testManifest();
    RunManifest candidate = testManifest();
    candidate.program = "vpr seed 1 v1";
    candidate.inputs[0].fingerprint =
        hashFingerprint(fnv1a64("other-model"));

    analysis::Report report;
    diag::compareManifests(baseline, candidate, {}, report);
    EXPECT_TRUE(report.has("trend.program-mismatch"));
    EXPECT_TRUE(report.has("trend.input-changed"));
    EXPECT_TRUE(report.clean()); // hazards, not regressions
}

TEST(TrendTest, EnvironmentMismatchesAreHazards)
{
    RunManifest baseline = testManifest();
    RunManifest candidate = testManifest();
    baseline.sanitizer = "none";
    candidate.sanitizer = "address,undefined";
    baseline.hardwareConcurrency = 8;
    candidate.hardwareConcurrency = 2;

    analysis::Report report;
    diag::compareManifests(baseline, candidate, {}, report);
    EXPECT_TRUE(report.has("trend.env-sanitizer"));
    EXPECT_TRUE(report.has("trend.env-concurrency"));
    EXPECT_TRUE(report.clean()); // comparability hazards, not bugs
}

TEST(TrendTest, SingleCoreCandidateGetsContextNote)
{
    RunManifest baseline = testManifest();
    RunManifest candidate = testManifest();
    baseline.hardwareConcurrency = 1;
    candidate.hardwareConcurrency = 1;

    analysis::Report report;
    diag::compareManifests(baseline, candidate, {}, report);
    EXPECT_TRUE(report.has("trend.env-single-core"));
    EXPECT_FALSE(report.has("trend.env-concurrency"));
    EXPECT_EQ(report.warningCount(), 0u);
}

TEST(TrendTest, EnvChecksStaySilentOnV1Manifests)
{
    // Manifests loaded from schema-1 documents carry no env data.
    RunManifest baseline = testManifest();
    RunManifest candidate = testManifest();
    baseline.hardwareConcurrency = 0;
    baseline.sanitizer.clear();
    candidate.hardwareConcurrency = 0;
    candidate.sanitizer.clear();

    analysis::Report report;
    diag::compareManifests(baseline, candidate, {}, report);
    EXPECT_FALSE(report.has("trend.env-sanitizer"));
    EXPECT_FALSE(report.has("trend.env-concurrency"));
    EXPECT_FALSE(report.has("trend.env-single-core"));
}

TEST(TrendTest, PeakRssRegressionFlagged)
{
    const RunManifest baseline = testManifest(); // 64 MiB
    RunManifest candidate = testManifest();
    candidate.peakRssBytes = 100ull * 1024 * 1024; // +56%

    analysis::Report report;
    diag::compareManifests(baseline, candidate, {}, report);
    EXPECT_TRUE(report.has("trend.env-rss")) << report.describe();
    EXPECT_FALSE(report.clean());

    // Within the default 35% tolerance: silent.
    candidate.peakRssBytes = 80ull * 1024 * 1024; // +25%
    analysis::Report within;
    diag::compareManifests(baseline, candidate, {}, within);
    EXPECT_FALSE(within.has("trend.env-rss"));

    // A tightened tolerance flags the same delta.
    diag::TrendOptions strict;
    strict.rssTolerance = 0.10;
    analysis::Report tight;
    diag::compareManifests(baseline, candidate, strict, tight);
    EXPECT_TRUE(tight.has("trend.env-rss"));
}

TEST(TrendTest, TinyOrAbsentRssBaselinesAreIgnored)
{
    // Footprints under the floor are noise-dominated (allocator
    // round-up, page-cache luck), and v2 documents carry 0.
    RunManifest baseline = testManifest();
    RunManifest candidate = testManifest();
    baseline.peakRssBytes = 8ull * 1024 * 1024;
    candidate.peakRssBytes = 80ull * 1024 * 1024; // 10x, still silent
    analysis::Report small;
    diag::compareManifests(baseline, candidate, {}, small);
    EXPECT_FALSE(small.has("trend.env-rss"));

    baseline.peakRssBytes = 64ull * 1024 * 1024;
    candidate.peakRssBytes = 0; // candidate predates v3
    analysis::Report absent;
    diag::compareManifests(baseline, candidate, {}, absent);
    EXPECT_FALSE(absent.has("trend.env-rss"));
}

TEST(TrendTest, PhaseWallRegressionFlagged)
{
    const RunManifest baseline = testManifest(); // phase.train 210ms
    RunManifest candidate = testManifest();
    candidate.phases[1].wallNanos = 550000000; // +162%, tol +100%

    analysis::Report report;
    diag::compareManifests(baseline, candidate, {}, report);
    EXPECT_TRUE(report.has("trend.phase-wall")) << report.describe();
    EXPECT_FALSE(report.clean());

    diag::TrendOptions loose;
    loose.phaseWallTolerance = 2.0;
    analysis::Report ok;
    diag::compareManifests(baseline, candidate, loose, ok);
    EXPECT_FALSE(ok.has("trend.phase-wall"));
    EXPECT_TRUE(ok.clean());
}

TEST(TrendTest, FastBaselinePhasesAndNewPhasesAreContext)
{
    RunManifest baseline = testManifest();
    RunManifest candidate = testManifest();
    // Below the 50ms floor a 10x blowup is still microseconds of
    // wall time -- scheduling noise, not a regression.
    baseline.phases[0].wallNanos = 2000000;
    candidate.phases[0].wallNanos = 20000000;
    // A phase only the candidate ran is context, not a regression.
    candidate.phases.push_back({"phase.deep_audit", 1, 5000000, 0, 0});

    analysis::Report report;
    diag::compareManifests(baseline, candidate, {}, report);
    EXPECT_FALSE(report.has("trend.phase-wall"));
    EXPECT_TRUE(report.has("trend.phase-new"));
    EXPECT_TRUE(report.clean()) << report.describe();
}

TEST(DiagLintTest, CleanArtifactsPass)
{
    const IncidentBundle bundle = diag::makeIncidentBundle(
        testReport(), testRegistry(), testSeries(30));
    analysis::Report bundle_report;
    const analysis::BundleLintStats bs = analysis::lintBundleText(
        diag::bundleToJson(bundle), bundle_report);
    EXPECT_TRUE(bundle_report.clean()) << bundle_report.describe();
    EXPECT_EQ(bs.contextEntries, 6u);
    EXPECT_EQ(bs.frames, 12u);

    analysis::Report manifest_report;
    const analysis::ManifestLintStats ms = analysis::lintManifestText(
        diag::manifestToJson(testManifest()), manifest_report);
    EXPECT_TRUE(manifest_report.clean())
        << manifest_report.describe();
    EXPECT_EQ(ms.inputs, 1u);
    EXPECT_EQ(ms.metrics, kNumMetrics);
    EXPECT_EQ(ms.reports, 2u);
}

TEST(DiagLintTest, StructuralDefectsCaught)
{
    analysis::Report not_json;
    analysis::lintBundleText("{nope", not_json);
    EXPECT_TRUE(not_json.has("diag.parse"));

    analysis::Report wrong_kind;
    analysis::lintBundleText(
        "{\"kind\": \"heapmd.manifest\", \"schemaVersion\": 1}",
        wrong_kind);
    EXPECT_TRUE(wrong_kind.has("diag.kind"));

    analysis::Report bad_version;
    analysis::lintManifestText(
        "{\"kind\": \"heapmd.manifest\", \"schemaVersion\": 7}",
        bad_version);
    EXPECT_TRUE(bad_version.has("diag.version"));
}

TEST(DiagLintTest, SemanticDefectsCaught)
{
    IncidentBundle bundle = diag::makeIncidentBundle(
        testReport(), testRegistry(), testSeries(30));
    bundle.metric = "NoSuchMetric";
    bundle.calibratedMin = 50.0; // above calibratedMax
    analysis::Report report;
    analysis::lintBundleText(diag::bundleToJson(bundle), report);
    EXPECT_TRUE(report.has("diag.bad-metric"));
    EXPECT_TRUE(report.has("diag.range-inverted"));

    RunManifest manifest = testManifest();
    manifest.reportsTotal = 9; // tallies sum to 2
    manifest.inputs[0].fingerprint = "sha256:deadbeef";
    std::swap(manifest.counters[0], manifest.counters[1]);
    analysis::Report mreport;
    analysis::lintManifestText(diag::manifestToJson(manifest),
                               mreport);
    EXPECT_TRUE(mreport.has("diag.report-count"));
    EXPECT_TRUE(mreport.has("diag.hash-format"));
    EXPECT_TRUE(mreport.has("diag.counter-order"));
}

TEST(DiagLintTest, SuspectMismatchCaught)
{
    IncidentBundle bundle = diag::makeIncidentBundle(
        testReport(), testRegistry(), testSeries(30));
    // Claim steady_work is the top suspect; the context log disagrees.
    std::swap(bundle.suspects[0], bundle.suspects[1]);
    analysis::Report report;
    analysis::lintBundleText(diag::bundleToJson(bundle), report);
    EXPECT_TRUE(report.has("diag.suspect-mismatch"));
}

TEST(HashTest, Fingerprints)
{
    const std::uint64_t h = fnv1a64("hello");
    EXPECT_EQ(h, fnv1a64("hello"));
    EXPECT_NE(h, fnv1a64("hellp"));
    const std::string fp = hashFingerprint(h);
    EXPECT_TRUE(isHashFingerprint(fp)) << fp;
    EXPECT_FALSE(isHashFingerprint("fnv1a:xyz"));
    EXPECT_FALSE(isHashFingerprint("sha256:0123456789abcdef"));
    EXPECT_FALSE(isHashFingerprint(""));
}

} // namespace

} // namespace heapmd
