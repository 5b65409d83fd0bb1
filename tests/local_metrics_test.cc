/**
 * @file
 * Tests of the locally-stable-metric extension (Section 2.1's
 * classification admitted into the model; paper future work).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/model_lint.hh"
#include "detector/anomaly_detector.hh"
#include "detector/execution_checker.hh"
#include "core/heapmd.hh"
#include "model/summarizer.hh"
#include "support/random.hh"

namespace heapmd
{

namespace
{

/**
 * A run where Leaves is flat (globally stable) and InEqOut is flat
 * with occasional phase spikes (locally stable).
 */
MetricSeries
phasedSeries(double leaves, double in_eq_out, std::uint64_t seed)
{
    MetricSeries series;
    Rng rng(seed);
    double spiky = in_eq_out;
    for (std::size_t i = 0; i < 80; ++i) {
        MetricSample s;
        s.pointIndex = i;
        s.vertexCount = 1000;
        if (i % 16 == 0 && i > 0)
            spiky = in_eq_out * (rng.chance(0.5) ? 1.35 : 0.72);
        s.values[metricIndex(MetricId::Leaves)] = leaves;
        s.values[metricIndex(MetricId::InEqOut)] = spiky;
        series.push(s);
    }
    return series;
}

SummarizerConfig
localConfig()
{
    SummarizerConfig cfg;
    cfg.includeLocallyStable = true;
    return cfg;
}

TEST(LocalMetricsTest, DisabledByDefault)
{
    MetricSummarizer summarizer;
    for (std::uint64_t s = 1; s <= 4; ++s)
        summarizer.addRun(phasedSeries(30.0, 20.0, s));
    const HeapModel model = summarizer.buildModel("app");
    EXPECT_TRUE(model.isStable(MetricId::Leaves));
    EXPECT_FALSE(model.isStable(MetricId::InEqOut));
    EXPECT_EQ(model.locallyStableMetricCount(), 0u);
}

TEST(LocalMetricsTest, LocalEntryAdmittedWhenEnabled)
{
    MetricSummarizer summarizer(localConfig());
    for (std::uint64_t s = 1; s <= 4; ++s)
        summarizer.addRun(phasedSeries(30.0, 20.0, s));
    const HeapModel model = summarizer.buildModel("app");

    ASSERT_TRUE(model.isStable(MetricId::InEqOut));
    const auto entry = model.entry(MetricId::InEqOut);
    EXPECT_TRUE(entry->locallyStable);
    EXPECT_EQ(model.locallyStableMetricCount(), 1u);
    EXPECT_GE(model.globallyStableMetricCount(), 1u);
    // The global entry stays global.
    EXPECT_FALSE(model.entry(MetricId::Leaves)->locallyStable);
    // The local range covers the phase plateaus.
    EXPECT_LE(entry->minValue, 20.0 * 0.72 + 0.01);
    EXPECT_GE(entry->maxValue, 20.0 * 1.35 - 0.01);
}

TEST(LocalMetricsTest, SerializationRoundTripsKind)
{
    MetricSummarizer summarizer(localConfig());
    for (std::uint64_t s = 1; s <= 4; ++s)
        summarizer.addRun(phasedSeries(30.0, 20.0, s));
    const HeapModel model = summarizer.buildModel("app");

    std::stringstream ss;
    model.save(ss);
    const HeapModel loaded = HeapModel::load(ss);
    ASSERT_TRUE(loaded.isStable(MetricId::InEqOut));
    EXPECT_TRUE(loaded.entry(MetricId::InEqOut)->locallyStable);
    EXPECT_FALSE(loaded.entry(MetricId::Leaves)->locallyStable);
}

TEST(LocalMetricsTest, SavedLocalModelLintsClean)
{
    // InEqOut is locally stable on every run and globally stable on
    // none: it is a model entry, so it is not also "never stable".
    MetricSummarizer summarizer(localConfig());
    for (std::uint64_t s = 1; s <= 4; ++s)
        summarizer.addRun(phasedSeries(30.0, 20.0, s));
    const HeapModel model = summarizer.buildModel("app");
    ASSERT_TRUE(model.entry(MetricId::InEqOut)->locallyStable);

    std::stringstream ss;
    model.save(ss);
    analysis::Report report;
    analysis::lintModel(ss, report);
    EXPECT_TRUE(report.findings().empty()) << report.describe();
}

TEST(LocalMetricsTest, LegacyModelTextStillLoads)
{
    std::stringstream ss(
        "heapmd-model v1\n"
        "program legacy\n"
        "runs 5\n"
        "metric Leaves min 10 max 20 avg 0.1 std 1 stable_runs 5\n"
        "end\n");
    const HeapModel model = HeapModel::load(ss);
    ASSERT_TRUE(model.isStable(MetricId::Leaves));
    EXPECT_FALSE(model.entry(MetricId::Leaves)->locallyStable);
}

TEST(LocalMetricsTest, DetectorWidensLocalBands)
{
    // Local entry [10, 20]: slack = 2 x max(0.25 * 10, 1) = 5, so
    // 24 is tolerated where a global entry would have fired.
    HeapModel model;
    HeapModel::Entry e;
    e.id = MetricId::InEqOut;
    e.minValue = 10.0;
    e.maxValue = 20.0;
    e.locallyStable = true;
    model.addEntry(e);

    AnomalyDetector detector(model);
    Process process;
    for (std::uint64_t p = 0; p < 10; ++p) {
        MetricSample s;
        s.pointIndex = p;
        s.vertexCount = 1000;
        for (MetricId id : kAllMetrics)
            s.values[metricIndex(id)] = 15.0;
        s.values[metricIndex(MetricId::InEqOut)] = 24.0;
        detector.onSample(s, process);
    }
    detector.finish();
    EXPECT_TRUE(detector.reports().empty());

    // Far beyond even the widened band: still detected.
    AnomalyDetector strict(model);
    for (std::uint64_t p = 0; p < 10; ++p) {
        MetricSample s;
        s.pointIndex = p;
        s.vertexCount = 1000;
        for (MetricId id : kAllMetrics)
            s.values[metricIndex(id)] = 15.0;
        s.values[metricIndex(MetricId::InEqOut)] = 40.0;
        strict.onSample(s, process);
    }
    strict.finish();
    EXPECT_EQ(strict.reports().size(), 1u);
}

TEST(LocalMetricsTest, SlackHelperValues)
{
    HeapModel::Entry global;
    global.minValue = 10.0;
    global.maxValue = 20.0;
    EXPECT_DOUBLE_EQ(boundSlack(global), 2.5);
    HeapModel::Entry local = global;
    local.locallyStable = true;
    EXPECT_DOUBLE_EQ(boundSlack(local), 6.25);
}

TEST(LocalMetricsTest, PoorlyDisguisedSkipsLocalEntries)
{
    HeapModel model;
    HeapModel::Entry e;
    e.id = MetricId::InEqOut;
    e.minValue = 10.0;
    e.maxValue = 30.0;
    e.locallyStable = true;
    model.addEntry(e);

    // Pinned at the minimum: would be poorly-disguised for a global
    // entry, ignored for a local one.
    MetricSeries series;
    for (std::size_t i = 0; i < 60; ++i) {
        MetricSample s;
        s.pointIndex = i;
        s.vertexCount = 1000;
        s.values[metricIndex(MetricId::InEqOut)] = 10.2;
        series.push(s);
    }
    ExecutionChecker checker(model);
    const CheckResult result = checker.finalize(series, 6000);
    EXPECT_EQ(result.countOf(BugClass::PoorlyDisguised), 0u);
}

TEST(LocalMetricsTest, EndToEndOnWorkload)
{
    // On a real workload the local extension only ever *adds*
    // entries, never perturbs the global ones.
    HeapMDConfig cfg;
    cfg.process.metricFrequency = 200;
    const HeapMD strict_tool(cfg);
    HeapMDConfig lcfg = cfg;
    lcfg.summarizer.includeLocallyStable = true;
    const HeapMD local_tool(lcfg);

    auto app = makeApp("vpr");
    const TrainingOutcome plain =
        strict_tool.train(*app, makeInputs(1, 6, 1, 0.3));
    const TrainingOutcome local =
        local_tool.train(*app, makeInputs(1, 6, 1, 0.3));
    EXPECT_EQ(local.model.globallyStableMetricCount(),
              plain.model.stableMetricCount());
    EXPECT_GE(local.model.stableMetricCount(),
              plain.model.stableMetricCount());
}

} // namespace

} // namespace heapmd
