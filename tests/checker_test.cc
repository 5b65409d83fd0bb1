/**
 * @file
 * Unit tests of the ExecutionChecker post-run analyses: startup/
 * shutdown report filtering, persistent violations, poorly-disguised
 * and pathological bugs.
 */

#include <gtest/gtest.h>

#include "detector/execution_checker.hh"
#include "support/random.hh"

namespace heapmd
{

namespace
{

HeapModel
modelWith(MetricId id, double min, double max)
{
    HeapModel model;
    HeapModel::Entry e;
    e.id = id;
    e.minValue = min;
    e.maxValue = max;
    model.addEntry(e);
    return model;
}

MetricSeries
seriesOf(MetricId id, const std::vector<double> &values)
{
    MetricSeries series;
    for (std::size_t i = 0; i < values.size(); ++i) {
        MetricSample s;
        s.pointIndex = i;
        s.tick = 100 * i;
        s.vertexCount = 1000;
        s.values[metricIndex(id)] = values[i];
        series.push(s);
    }
    return series;
}

/** Run a series through attach-less checking (post-run only). */
CheckResult
checkSeries(const HeapModel &model, const MetricSeries &series)
{
    ExecutionChecker checker(model);
    return checker.finalize(series, series.size() * 100);
}

TEST(CheckerTest, CleanStableSeriesHasNoReports)
{
    const HeapModel model = modelWith(MetricId::Leaves, 20.0, 30.0);
    const MetricSeries series =
        seriesOf(MetricId::Leaves, std::vector<double>(60, 25.0));
    const CheckResult result = checkSeries(model, series);
    EXPECT_FALSE(result.anomalous());
}

TEST(CheckerTest, PersistentViolationDetected)
{
    // Value sits at 60 the whole run against range [20, 30]: the
    // online crossing happened at sample 0 (startup window), but the
    // persistent-violation check reports it.
    const HeapModel model = modelWith(MetricId::Leaves, 20.0, 30.0);
    const MetricSeries series =
        seriesOf(MetricId::Leaves, std::vector<double>(60, 60.0));
    const CheckResult result = checkSeries(model, series);
    ASSERT_EQ(result.reports.size(), 1u);
    EXPECT_EQ(result.reports[0].klass, BugClass::HeapAnomaly);
    EXPECT_EQ(result.reports[0].direction,
              AnomalyDirection::AboveMax);
    EXPECT_DOUBLE_EQ(result.reports[0].observedValue, 60.0);
}

TEST(CheckerTest, PersistentViolationBelow)
{
    const HeapModel model = modelWith(MetricId::Indeg1, 40.0, 50.0);
    const MetricSeries series =
        seriesOf(MetricId::Indeg1, std::vector<double>(60, 10.0));
    const CheckResult result = checkSeries(model, series);
    ASSERT_EQ(result.reports.size(), 1u);
    EXPECT_EQ(result.reports[0].direction,
              AnomalyDirection::BelowMin);
}

TEST(CheckerTest, BriefExcursionNotPersistent)
{
    // Out of range for only 20% of the run: below the 50% persistence
    // bar (and not an online report here since no detector attached).
    const HeapModel model = modelWith(MetricId::Leaves, 20.0, 30.0);
    std::vector<double> values(50, 25.0);
    for (int i = 20; i < 30; ++i)
        values[i] = 60.0;
    const CheckResult result =
        checkSeries(model, seriesOf(MetricId::Leaves, values));
    EXPECT_FALSE(result.anomalous());
}

TEST(CheckerTest, PoorlyDisguisedPinnedAtMinimum)
{
    // Stable and glued to the calibrated minimum (the oct-DAG
    // signature): reported as poorly disguised.
    const HeapModel model = modelWith(MetricId::Indeg1, 40.0, 60.0);
    const MetricSeries series =
        seriesOf(MetricId::Indeg1, std::vector<double>(60, 40.2));
    const CheckResult result = checkSeries(model, series);
    ASSERT_EQ(result.reports.size(), 1u);
    EXPECT_EQ(result.reports[0].klass, BugClass::PoorlyDisguised);
    EXPECT_EQ(result.reports[0].direction,
              AnomalyDirection::BelowMin);
    EXPECT_EQ(result.countOf(BugClass::PoorlyDisguised), 1u);
}

TEST(CheckerTest, PoorlyDisguisedPinnedAtMaximum)
{
    const HeapModel model = modelWith(MetricId::Indeg1, 40.0, 60.0);
    const MetricSeries series =
        seriesOf(MetricId::Indeg1, std::vector<double>(60, 59.9));
    const CheckResult result = checkSeries(model, series);
    ASSERT_EQ(result.reports.size(), 1u);
    EXPECT_EQ(result.reports[0].klass, BugClass::PoorlyDisguised);
    EXPECT_EQ(result.reports[0].direction,
              AnomalyDirection::AboveMax);
}

TEST(CheckerTest, MidRangeStableIsNotPoorlyDisguised)
{
    const HeapModel model = modelWith(MetricId::Indeg1, 40.0, 60.0);
    const MetricSeries series =
        seriesOf(MetricId::Indeg1, std::vector<double>(60, 50.0));
    EXPECT_FALSE(checkSeries(model, series).anomalous());
}

TEST(CheckerTest, PathologicalStability)
{
    // Indeg2 was never stable in training; in this run it is flat.
    HeapModel model = modelWith(MetricId::Leaves, 20.0, 30.0);
    model.unstableMetrics.push_back(MetricId::Indeg2);

    MetricSeries series;
    Rng rng(3);
    for (int i = 0; i < 60; ++i) {
        MetricSample s;
        s.pointIndex = i;
        s.vertexCount = 1000;
        s.values[metricIndex(MetricId::Leaves)] = 25.0;
        s.values[metricIndex(MetricId::Indeg2)] = 33.0; // eerily flat
        series.push(s);
    }
    const CheckResult result = checkSeries(model, series);
    ASSERT_EQ(result.countOf(BugClass::Pathological), 1u);
}

TEST(CheckerTest, PathologicalNotReportedWhenStillUnstable)
{
    HeapModel model = modelWith(MetricId::Leaves, 20.0, 30.0);
    model.unstableMetrics.push_back(MetricId::Indeg2);
    MetricSeries series;
    Rng rng(3);
    double wild = 30.0;
    for (int i = 0; i < 60; ++i) {
        MetricSample s;
        s.pointIndex = i;
        s.vertexCount = 1000;
        s.values[metricIndex(MetricId::Leaves)] = 25.0;
        if (i % 6 == 0)
            wild *= rng.chance(0.5) ? 1.7 : 0.6;
        s.values[metricIndex(MetricId::Indeg2)] = wild;
        series.push(s);
    }
    const CheckResult result = checkSeries(model, series);
    EXPECT_EQ(result.countOf(BugClass::Pathological), 0u);
}

TEST(CheckerTest, OnlineReportsInStartupWindowFiltered)
{
    // Attach to a real process; violate only during the first 10% of
    // samples, then stay clean: no report must survive.
    const HeapModel model = modelWith(MetricId::Roots, 30.0, 60.0);
    ProcessConfig pcfg;
    pcfg.metricFrequency = 1; // sample every fn entry
    Process process(pcfg);
    ExecutionChecker checker(model);
    checker.attach(process);

    // Startup: two isolated objects -> Roots = 100 (violating).
    process.onAlloc(0x10000, 512); // hub with 64 pointer slots
    process.onAlloc(0x20000, 64);
    process.onFnEnter(0);
    process.onFnExit(0);
    // Then connect half the heap so Roots ~= 50 (clean) for the rest.
    Addr next = 0x30000;
    for (int i = 0; i < 60; ++i) {
        process.onAlloc(next, 64);
        process.onWrite(0x10000 + 8 * i, next);
        next += 0x100;
        process.onAlloc(next, 64); // isolated root
        next += 0x100;
        process.onFnEnter(0);
        process.onFnExit(0);
    }
    const CheckResult result = checker.finalize(process);
    EXPECT_FALSE(result.anomalous());
}

TEST(CheckerTest, CountOf)
{
    CheckResult result;
    BugReport a;
    a.klass = BugClass::HeapAnomaly;
    BugReport b;
    b.klass = BugClass::PoorlyDisguised;
    result.reports = {a, b, a};
    EXPECT_EQ(result.countOf(BugClass::HeapAnomaly), 2u);
    EXPECT_EQ(result.countOf(BugClass::PoorlyDisguised), 1u);
    EXPECT_EQ(result.countOf(BugClass::Pathological), 0u);
    EXPECT_TRUE(result.anomalous());
}

} // namespace

} // namespace heapmd
