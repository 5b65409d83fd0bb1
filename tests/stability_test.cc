/**
 * @file
 * Unit and parameterized tests of the stability classifier (the
 * Section 3 definitions: avg change within +/-1%, stddev below 5).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "metrics/stability.hh"
#include "support/random.hh"

namespace heapmd
{

namespace
{

MetricSeries
seriesOf(const std::vector<double> &values)
{
    MetricSeries series;
    for (std::size_t i = 0; i < values.size(); ++i) {
        MetricSample s;
        s.pointIndex = i;
        s.vertexCount = 1000;
        for (MetricId id : kAllMetrics)
            s.values[metricIndex(id)] = values[i];
        series.push(s);
    }
    return series;
}

TEST(StabilityTest, ConstantSeriesIsGloballyStable)
{
    const StabilityThresholds thr;
    const auto series = seriesOf(std::vector<double>(50, 25.0));
    const FluctuationSummary fs =
        analyzeMetric(series, MetricId::Roots);
    EXPECT_DOUBLE_EQ(fs.avgChange, 0.0);
    EXPECT_DOUBLE_EQ(fs.stdDev, 0.0);
    EXPECT_DOUBLE_EQ(fs.minValue, 25.0);
    EXPECT_DOUBLE_EQ(fs.maxValue, 25.0);
    EXPECT_TRUE(isGloballyStable(fs, thr));
    EXPECT_EQ(classify(fs, thr), Stability::GloballyStable);
}

TEST(StabilityTest, DriftingSeriesIsUnstable)
{
    const StabilityThresholds thr;
    // +3% per step: avg change ~3 exceeds the +/-1% threshold.
    std::vector<double> values;
    double v = 10.0;
    for (int i = 0; i < 60; ++i) {
        values.push_back(v);
        v *= 1.03;
    }
    const FluctuationSummary fs =
        analyzeMetric(seriesOf(values), MetricId::Roots);
    EXPECT_GT(fs.avgChange, 1.0);
    EXPECT_FALSE(isGloballyStable(fs, thr));
    EXPECT_EQ(classify(fs, thr), Stability::Unstable);
}

TEST(StabilityTest, SpikySeriesIsLocallyStable)
{
    const StabilityThresholds thr;
    // Flat with occasional large spikes: mean change ~0 but stddev
    // above the globally-stable threshold.
    std::vector<double> values(80, 20.0);
    for (std::size_t i = 20; i < 80; i += 20) {
        values[i] = 24.0;     // +20% spike
        values[i + 1] = 20.0; // back down
    }
    const FluctuationSummary fs =
        analyzeMetric(seriesOf(values), MetricId::Roots);
    EXPECT_LT(std::fabs(fs.avgChange), 1.0);
    EXPECT_GT(fs.stdDev, thr.maxStdDev);
    EXPECT_EQ(classify(fs, thr), Stability::LocallyStable);
}

TEST(StabilityTest, WildSeriesIsUnstable)
{
    std::vector<double> values;
    Rng rng(5);
    for (int i = 0; i < 80; ++i)
        values.push_back(5.0 + rng.uniform() * 90.0);
    const FluctuationSummary fs =
        analyzeMetric(seriesOf(values), MetricId::Roots);
    EXPECT_GT(fs.stdDev, kLocallyStableStdDev);
}

TEST(StabilityTest, TrimmingIgnoresStartupRamp)
{
    const StabilityThresholds thr;
    // 10 wild startup points, then 80 flat ones, then 10 wild;
    // analyzeMetric trims kTrimFraction (10%) off each end.
    std::vector<double> values;
    for (int i = 0; i < 10; ++i)
        values.push_back(1.0 + i * 10.0);
    for (int i = 0; i < 80; ++i)
        values.push_back(50.0);
    for (int i = 0; i < 10; ++i)
        values.push_back(90.0 - i * 8.0);
    const FluctuationSummary fs =
        analyzeMetric(seriesOf(values), MetricId::Roots);
    EXPECT_TRUE(isGloballyStable(fs, thr));
    EXPECT_DOUBLE_EQ(fs.minValue, 50.0);
    EXPECT_DOUBLE_EQ(fs.maxValue, 50.0);
}

TEST(StabilityTest, EmptySeriesSummaryIsTriviallyStable)
{
    const StabilityThresholds thr;
    const FluctuationSummary fs =
        analyzeMetric(MetricSeries{}, MetricId::Roots);
    EXPECT_EQ(fs.changeCount, 0u);
    EXPECT_TRUE(isGloballyStable(fs, thr));
}

TEST(StabilityTest, NamesAreHumanReadable)
{
    EXPECT_EQ(stabilityName(Stability::GloballyStable),
              "globally-stable");
    EXPECT_EQ(stabilityName(Stability::LocallyStable),
              "locally-stable");
    EXPECT_EQ(stabilityName(Stability::Unstable), "unstable");
}

/**
 * Threshold boundary sweep: a series with a known constant change
 * rate is stable iff the rate is within the threshold.
 */
class AvgChangeBoundaryTest : public ::testing::TestWithParam<double>
{
};

TEST_P(AvgChangeBoundaryTest, ClassifiedAgainstThreshold)
{
    const double rate = GetParam(); // percent per step
    const StabilityThresholds thr;  // avg threshold +/-1%
    std::vector<double> values;
    double v = 30.0;
    for (int i = 0; i < 100; ++i) {
        values.push_back(v);
        v *= 1.0 + rate / 100.0;
    }
    const FluctuationSummary fs =
        analyzeMetric(seriesOf(values), MetricId::Leaves);
    EXPECT_NEAR(fs.avgChange, rate, 1e-6);
    EXPECT_EQ(isGloballyStable(fs, thr), std::fabs(rate) <= 1.0);
}

INSTANTIATE_TEST_SUITE_P(Rates, AvgChangeBoundaryTest,
                         ::testing::Values(-2.0, -1.5, -0.99, -0.5, 0.0,
                                           0.5, 0.99, 1.5, 2.0));

/**
 * Noise-amplitude sweep: alternating +/-a% changes have stddev ~= a;
 * the stability verdict flips at the stddev threshold (5).
 */
class StdDevBoundaryTest : public ::testing::TestWithParam<double>
{
};

TEST_P(StdDevBoundaryTest, ClassifiedAgainstThreshold)
{
    const double amplitude = GetParam();
    const StabilityThresholds thr;
    std::vector<double> values;
    double v = 40.0;
    for (int i = 0; i < 200; ++i) {
        values.push_back(v);
        // Alternate up/down by amplitude percent of the *current*
        // value; the mean change stays ~0.
        v *= (i % 2 == 0) ? (1.0 + amplitude / 100.0)
                          : 1.0 / (1.0 + amplitude / 100.0);
    }
    const FluctuationSummary fs =
        analyzeMetric(seriesOf(values), MetricId::Indeg1);
    // The up-step is +a% but the exact down-step is -a/(1+a/100)%,
    // so the mean change grows quadratically with the amplitude.
    EXPECT_LT(std::fabs(fs.avgChange),
              amplitude * amplitude / 100.0 + 0.5);
    EXPECT_EQ(isGloballyStable(fs, thr),
              std::fabs(fs.avgChange) <= thr.maxAbsAvgChange &&
                  fs.stdDev <= thr.maxStdDev);
    // stddev tracks the injected amplitude.
    EXPECT_NEAR(fs.stdDev, amplitude, amplitude * 0.25 + 0.3);
}

INSTANTIATE_TEST_SUITE_P(Amplitudes, StdDevBoundaryTest,
                         ::testing::Values(0.5, 2.0, 4.0, 6.0, 10.0,
                                           20.0));

TEST(StabilityTest, PaperVprExampleShape)
{
    // Mimic Figure 6: Outdeg=1 flat (stable), In=Out spiky
    // (unstable) -- the classifier must separate them.
    Rng rng(7);
    MetricSeries series;
    double flat = 20.0, spiky = 30.0;
    for (int i = 0; i < 120; ++i) {
        MetricSample s;
        s.pointIndex = i;
        s.vertexCount = 1000;
        flat *= 1.0 + (rng.uniform() - 0.5) * 0.01;
        if (i % 17 == 0)
            spiky *= rng.chance(0.5) ? 1.8 : 0.55;
        s.values[metricIndex(MetricId::Outdeg1)] = flat;
        s.values[metricIndex(MetricId::InEqOut)] = spiky;
        series.push(s);
    }
    const StabilityThresholds thr;
    EXPECT_TRUE(isGloballyStable(
        analyzeMetric(series, MetricId::Outdeg1), thr));
    EXPECT_FALSE(isGloballyStable(
        analyzeMetric(series, MetricId::InEqOut), thr));
}

} // namespace

} // namespace heapmd
