/**
 * @file
 * Unit tests of the HeapModel and the metric summarizer (model
 * constructor back half).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "model/summarizer.hh"
#include "support/random.hh"

namespace heapmd
{

namespace
{

MetricSeries
flatSeries(double value, std::size_t n = 50,
           const std::string &label = "")
{
    MetricSeries series;
    series.label = label;
    for (std::size_t i = 0; i < n; ++i) {
        MetricSample s;
        s.pointIndex = i;
        s.vertexCount = 1000;
        for (MetricId id : kAllMetrics)
            s.values[metricIndex(id)] = value;
        series.push(s);
    }
    return series;
}

/** Flat for most metrics, wildly unstable for @p noisy. */
MetricSeries
mixedSeries(double value, MetricId noisy, std::uint64_t seed)
{
    MetricSeries series;
    Rng rng(seed);
    double wild = 40.0;
    for (std::size_t i = 0; i < 60; ++i) {
        MetricSample s;
        s.pointIndex = i;
        s.vertexCount = 1000;
        for (MetricId id : kAllMetrics)
            s.values[metricIndex(id)] = value;
        if (i % 7 == 0)
            wild *= rng.chance(0.5) ? 1.9 : 0.5;
        s.values[metricIndex(noisy)] = wild;
        series.push(s);
    }
    return series;
}

TEST(HeapModelTest, EntryLookupAndViolation)
{
    HeapModel model;
    HeapModel::Entry e;
    e.id = MetricId::Leaves;
    e.minValue = 10.0;
    e.maxValue = 20.0;
    model.addEntry(e);

    EXPECT_TRUE(model.isStable(MetricId::Leaves));
    EXPECT_FALSE(model.isStable(MetricId::Roots));
    EXPECT_EQ(model.stableMetricCount(), 1u);
    EXPECT_FALSE(model.violates(MetricId::Leaves, 15.0));
    EXPECT_FALSE(model.violates(MetricId::Leaves, 10.0));
    EXPECT_FALSE(model.violates(MetricId::Leaves, 20.0));
    EXPECT_TRUE(model.violates(MetricId::Leaves, 9.99));
    EXPECT_TRUE(model.violates(MetricId::Leaves, 20.01));
    // Metrics not in the model never violate.
    EXPECT_FALSE(model.violates(MetricId::Roots, 99.0));
}

TEST(HeapModelDeathTest, DuplicateEntryPanics)
{
    HeapModel model;
    HeapModel::Entry e;
    e.id = MetricId::Roots;
    e.maxValue = 1.0;
    model.addEntry(e);
    EXPECT_DEATH(model.addEntry(e), "duplicate");
}

TEST(HeapModelDeathTest, InvertedRangePanics)
{
    HeapModel model;
    HeapModel::Entry e;
    e.id = MetricId::Roots;
    e.minValue = 2.0;
    e.maxValue = 1.0;
    EXPECT_DEATH(model.addEntry(e), "min > max");
}

TEST(HeapModelTest, SaveLoadRoundTrip)
{
    HeapModel model;
    model.programName = "My App (v2)";
    model.trainingRuns = 25;
    HeapModel::Entry e;
    e.id = MetricId::Outdeg1;
    e.minValue = 17.9;
    e.maxValue = 28.8;
    e.avgChange = 0.1;
    e.stdDev = 1.4;
    e.stableRuns = 19;
    model.addEntry(e);
    model.unstableMetrics = {MetricId::Roots, MetricId::InEqOut};

    std::stringstream ss;
    model.save(ss);
    const HeapModel loaded = HeapModel::load(ss);

    EXPECT_EQ(loaded.programName, "My App (v2)");
    EXPECT_EQ(loaded.trainingRuns, 25u);
    ASSERT_TRUE(loaded.isStable(MetricId::Outdeg1));
    const auto entry = loaded.entry(MetricId::Outdeg1);
    EXPECT_DOUBLE_EQ(entry->minValue, 17.9);
    EXPECT_DOUBLE_EQ(entry->maxValue, 28.8);
    EXPECT_DOUBLE_EQ(entry->avgChange, 0.1);
    EXPECT_DOUBLE_EQ(entry->stdDev, 1.4);
    EXPECT_EQ(entry->stableRuns, 19u);
    ASSERT_EQ(loaded.unstableMetrics.size(), 2u);
    EXPECT_EQ(loaded.unstableMetrics[0], MetricId::Roots);
}

TEST(HeapModelDeathTest, LoadRejectsGarbage)
{
    std::stringstream ss("not a model\n");
    EXPECT_DEATH(HeapModel::load(ss), "bad header");
}

TEST(HeapModelDeathTest, LoadRejectsMissingEnd)
{
    std::stringstream ss("heapmd-model v1\nprogram x\nruns 1\n");
    EXPECT_DEATH(HeapModel::load(ss), "missing 'end'");
}

TEST(HeapModelDeathTest, LoadRejectsMalformedMetricLine)
{
    std::stringstream ss(
        "heapmd-model v1\nmetric Leaves banana 1 2\nend\n");
    EXPECT_DEATH(HeapModel::load(ss), "malformed");
}

TEST(SummarizerTest, AllStableRunsProduceFullModel)
{
    MetricSummarizer summarizer;
    summarizer.addRun(flatSeries(20.0, 50, "run0"));
    summarizer.addRun(flatSeries(22.0, 50, "run1"));
    summarizer.addRun(flatSeries(21.0, 50, "run2"));

    EXPECT_EQ(summarizer.runCount(), 3u);
    const HeapModel model = summarizer.buildModel("app");
    EXPECT_EQ(model.programName, "app");
    EXPECT_EQ(model.trainingRuns, 3u);
    EXPECT_EQ(model.stableMetricCount(), kNumMetrics);
    const auto entry = model.entry(MetricId::Roots);
    ASSERT_TRUE(entry.has_value());
    EXPECT_DOUBLE_EQ(entry->minValue, 20.0);
    EXPECT_DOUBLE_EQ(entry->maxValue, 22.0);
    EXPECT_EQ(entry->stableRuns, 3u);
    EXPECT_TRUE(model.unstableMetrics.empty());
}

TEST(SummarizerTest, UnstableMetricExcluded)
{
    MetricSummarizer summarizer;
    summarizer.addRun(mixedSeries(20.0, MetricId::InEqOut, 1));
    summarizer.addRun(mixedSeries(21.0, MetricId::InEqOut, 2));
    summarizer.addRun(mixedSeries(22.0, MetricId::InEqOut, 3));

    const HeapModel model = summarizer.buildModel("app");
    EXPECT_FALSE(model.isStable(MetricId::InEqOut));
    EXPECT_TRUE(model.isStable(MetricId::Roots));
    // Never stable on any run -> listed for the pathological check.
    ASSERT_EQ(model.unstableMetrics.size(), 1u);
    EXPECT_EQ(model.unstableMetrics[0], MetricId::InEqOut);
}

TEST(SummarizerTest, FortyPercentRule)
{
    MetricSummarizer summarizer;
    // 2 stable runs of 5 = 40%: meets ceil(0.4 * 5) = 2.
    summarizer.addRun(flatSeries(20.0));
    summarizer.addRun(flatSeries(21.0));
    summarizer.addRun(mixedSeries(20.0, MetricId::Leaves, 1));
    summarizer.addRun(mixedSeries(20.0, MetricId::Leaves, 2));
    summarizer.addRun(mixedSeries(20.0, MetricId::Leaves, 3));
    EXPECT_EQ(summarizer.stableRunCount(MetricId::Leaves), 2u);
    const HeapModel model = summarizer.buildModel("app");
    EXPECT_TRUE(model.isStable(MetricId::Leaves));

    // 1 of 5 = 20%: not enough.
    MetricSummarizer strict;
    strict.addRun(flatSeries(20.0));
    strict.addRun(mixedSeries(20.0, MetricId::Leaves, 1));
    strict.addRun(mixedSeries(20.0, MetricId::Leaves, 2));
    strict.addRun(mixedSeries(20.0, MetricId::Leaves, 3));
    strict.addRun(mixedSeries(20.0, MetricId::Leaves, 4));
    EXPECT_FALSE(strict.buildModel("app").isStable(MetricId::Leaves));
}

TEST(SummarizerTest, RangeComesFromStableRunsOnly)
{
    // The unstable run reaches value 95; the calibrated max must come
    // from the stable runs only.
    MetricSummarizer summarizer;
    summarizer.addRun(flatSeries(20.0));
    summarizer.addRun(flatSeries(24.0));
    summarizer.addRun(flatSeries(22.0));
    MetricSeries wild = mixedSeries(21.0, MetricId::Leaves, 7);
    summarizer.addRun(wild);
    const HeapModel model = summarizer.buildModel("app");
    const auto entry = model.entry(MetricId::Leaves);
    ASSERT_TRUE(entry.has_value());
    EXPECT_DOUBLE_EQ(entry->minValue, 20.0);
    EXPECT_DOUBLE_EQ(entry->maxValue, 24.0);
    EXPECT_EQ(entry->stableRuns, 3u);
}

TEST(SummarizerTest, DegenerateZeroMetricDropped)
{
    // A metric that is constantly zero is trivially stable but gets
    // filtered by the 0.5% meaningful-value floor.
    MetricSummarizer summarizer;
    summarizer.addRun(flatSeries(0.0));
    summarizer.addRun(flatSeries(0.0));
    const HeapModel model = summarizer.buildModel("app");
    EXPECT_EQ(model.stableMetricCount(), 0u);
}

TEST(SummarizerTest, SuspectTrainingRuns)
{
    // Three stable runs around 20-24, one run that is *stable* at 60:
    // wait -- a stable run contributes to the range.  A run that is
    // UNstable but stays inside the range is fine; an unstable run
    // whose envelope leaves the range is suspect (Section 4.1).
    MetricSummarizer summarizer;
    summarizer.addRun(flatSeries(20.0));
    summarizer.addRun(flatSeries(24.0));
    summarizer.addRun(flatSeries(22.0));
    summarizer.addRun(mixedSeries(21.0, MetricId::Leaves, 3));
    const HeapModel model = summarizer.buildModel("app");
    ASSERT_TRUE(model.isStable(MetricId::Leaves));
    const auto suspects = summarizer.suspectTrainingRuns(model);
    ASSERT_EQ(suspects.size(), 1u);
    EXPECT_EQ(suspects[0], 3u);
}

TEST(SummarizerTest, EmptySummarizerBuildsEmptyModel)
{
    MetricSummarizer summarizer;
    const HeapModel model = summarizer.buildModel("app");
    EXPECT_EQ(model.stableMetricCount(), 0u);
    EXPECT_EQ(model.trainingRuns, 0u);
}

TEST(SummarizerTest, RunAnalysesRetained)
{
    MetricSummarizer summarizer;
    MetricSeries s = flatSeries(20.0, 50, "labelled run");
    summarizer.addRun(s);
    ASSERT_EQ(summarizer.runs().size(), 1u);
    EXPECT_EQ(summarizer.runs()[0].label, "labelled run");
    EXPECT_TRUE(
        summarizer.runs()[0].stable[metricIndex(MetricId::Roots)]);
    EXPECT_EQ(summarizer.runs()[0].klass[metricIndex(MetricId::Roots)],
              Stability::GloballyStable);
}

} // namespace

} // namespace heapmd
