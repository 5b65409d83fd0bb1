/**
 * @file
 * Unit tests of the online anomaly detector: range checks, excursion
 * deduplication, slope-armed call-stack logging, and digests of every
 * report it gives over the app corpus.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "apps/app.hh"
#include "core/heapmd.hh"
#include "detector/anomaly_detector.hh"
#include "detector/classification.hh"
#include "monitor/online_detector.hh"
#include "support/hash.hh"
#include "support/parallel_for.hh"

namespace heapmd
{

namespace
{

HeapModel
singleMetricModel(MetricId id, double min, double max)
{
    HeapModel model;
    HeapModel::Entry e;
    e.id = id;
    e.minValue = min;
    e.maxValue = max;
    model.addEntry(e);
    return model;
}

MetricSample
sampleAt(MetricId id, double value, std::uint64_t point)
{
    MetricSample s;
    s.pointIndex = point;
    s.tick = point * 100;
    s.vertexCount = 1000;
    // Park every metric mid-range so only the metric under test can
    // trip the detector, then override it.
    for (MetricId other : kAllMetrics)
        s.values[metricIndex(other)] = 15.0;
    s.values[metricIndex(id)] = value;
    return s;
}

/** Feed a value sequence into a fresh detector; return it. */
class DetectorHarness
{
  public:
    DetectorHarness(MetricId id, double min, double max)
        : id_(id), model_(singleMetricModel(id, min, max)),
          detector_(model_)
    {
    }

    void
    feed(const std::vector<double> &values)
    {
        Process process;
        for (double v : values)
            detector_.onSample(sampleAt(id_, v, point_++), process);
    }

    AnomalyDetector &detector() { return detector_; }

  private:
    MetricId id_;
    HeapModel model_;
    AnomalyDetector detector_;
    std::uint64_t point_ = 0;
};

// Default slack for range [10, 20]: max(0.25 * 10, 1.0) = 2.5, so the
// effective detection bounds are [7.5, 22.5].

TEST(AnomalyDetectorTest, InRangeValuesProduceNoReports)
{
    DetectorHarness h(MetricId::Leaves, 10.0, 20.0);
    h.feed({12, 14, 16, 18, 20, 22, 7.6});
    h.detector().finish();
    EXPECT_TRUE(h.detector().reports().empty());
    EXPECT_EQ(h.detector().samplesChecked(), 7u);
}

TEST(AnomalyDetectorTest, ViolationAboveSlackReported)
{
    DetectorHarness h(MetricId::Leaves, 10.0, 20.0);
    h.feed({15, 18, 21, 24, 26, 27, 27, 27});
    h.detector().finish();
    ASSERT_EQ(h.detector().reports().size(), 1u);
    const BugReport &r = h.detector().reports()[0];
    EXPECT_EQ(r.klass, BugClass::HeapAnomaly);
    EXPECT_EQ(r.metric, MetricId::Leaves);
    EXPECT_EQ(r.direction, AnomalyDirection::AboveMax);
    EXPECT_GT(r.observedValue, 22.5);
    EXPECT_DOUBLE_EQ(r.calibratedMin, 10.0);
    EXPECT_DOUBLE_EQ(r.calibratedMax, 20.0);
}

TEST(AnomalyDetectorTest, ViolationBelowReported)
{
    DetectorHarness h(MetricId::Indeg1, 10.0, 20.0);
    h.feed({15, 12, 9, 6, 5, 5, 5, 5});
    h.detector().finish();
    ASSERT_EQ(h.detector().reports().size(), 1u);
    EXPECT_EQ(h.detector().reports()[0].direction,
              AnomalyDirection::BelowMin);
}

TEST(AnomalyDetectorTest, SustainedViolationIsOneExcursion)
{
    DetectorHarness h(MetricId::Leaves, 10.0, 20.0);
    std::vector<double> values(40, 30.0);
    h.feed(values);
    h.detector().finish();
    EXPECT_EQ(h.detector().reports().size(), 1u);
}

/**
 * One excursion: a crossing at 30, then @p after in-range samples.  A
 * report is finalized on the kAfterSamples-th sample after its
 * crossing.
 */
std::vector<double>
excursion(std::size_t after)
{
    std::vector<double> values{15, 30};
    values.insert(values.end(), after, 15.0);
    return values;
}

TEST(AnomalyDetectorTest, SeparateExcursionsAreSeparateReports)
{
    DetectorHarness h(MetricId::Leaves, 10.0, 20.0);
    // Each excursion finalizes its report before the next crossing.
    h.feed(excursion(kAfterSamples));
    ASSERT_EQ(h.detector().reports().size(), 1u);
    h.feed(excursion(kAfterSamples));
    EXPECT_EQ(h.detector().reports().size(), 2u);
    h.detector().finish();
    EXPECT_EQ(h.detector().reports().size(), 2u);
}

TEST(AnomalyDetectorTest, PendingReportFlushedByFinish)
{
    DetectorHarness h(MetricId::Leaves, 10.0, 20.0);
    // The run ends one sample short of the post-crossing context.
    h.feed(excursion(kAfterSamples - 1));
    EXPECT_TRUE(h.detector().reports().empty());
    h.detector().finish();
    EXPECT_EQ(h.detector().reports().size(), 1u);
}

TEST(AnomalyDetectorTest, ReportCarriesContextLog)
{
    DetectorHarness h(MetricId::Leaves, 10.0, 20.0);
    // Approach the max from below (arming), cross, then stay out
    // until the report finalizes on its own.
    h.feed({15, 19, 21, 22, 25});
    h.feed(std::vector<double>(kAfterSamples, 26.0));
    ASSERT_EQ(h.detector().reports().size(), 1u);
    EXPECT_FALSE(h.detector().reports()[0].contextLog.empty());
}

TEST(AnomalyDetectorTest, MetricsOutsideModelIgnored)
{
    DetectorHarness h(MetricId::Leaves, 10.0, 20.0);
    Process process;
    // Roots is not in the model: wild values are fine.
    MetricSample s = sampleAt(MetricId::Roots, 99.0, 0);
    h.detector().onSample(s, process);
    h.detector().finish();
    EXPECT_TRUE(h.detector().reports().empty());
}

TEST(AnomalyDetectorTest, NarrowRangeGetsAbsoluteSlack)
{
    // Span 0.03 -> slack = max(0.25 * 0.03, 1.0) = 1.0 percentage
    // point: tiny wiggle cannot fire.
    DetectorHarness h(MetricId::Roots, 0.04, 0.07);
    h.feed({0.05, 0.10, 0.90, 1.00, 0.05});
    h.detector().finish();
    EXPECT_TRUE(h.detector().reports().empty());

    DetectorHarness h2(MetricId::Roots, 0.04, 0.07);
    h2.feed({0.05, 1.5, 1.5, 1.5, 1.5});
    h2.detector().finish();
    EXPECT_EQ(h2.detector().reports().size(), 1u);
}

TEST(AnomalyDetectorTest, AttachRegistersWithProcess)
{
    const HeapModel model =
        singleMetricModel(MetricId::Leaves, 0.0, 99.0);
    ProcessConfig pcfg;
    pcfg.metricFrequency = 1;
    Process process(pcfg);
    AnomalyDetector detector(model);
    detector.attach(process);
    process.onFnEnter(0);
    EXPECT_EQ(detector.samplesChecked(), 1u);
}

TEST(AnomalyDetectorDeathTest, DoubleAttachPanics)
{
    const HeapModel model =
        singleMetricModel(MetricId::Leaves, 0.0, 99.0);
    Process process;
    AnomalyDetector detector(model);
    detector.attach(process);
    EXPECT_DEATH(detector.attach(process), "already attached");
}

TEST(AnomalyDetectorTest, EventLoggingWhileArmedCapturesStacks)
{
    // End-to-end through a live Process: approach the maximum and
    // verify the culprit function shows up in the context log.
    HeapModel model = singleMetricModel(MetricId::Roots, 0.0, 30.0);
    ProcessConfig pcfg;
    pcfg.metricFrequency = 4;
    Process process(pcfg);
    AnomalyDetector detector(model);
    detector.attach(process);

    const FnId leaker = process.registry().intern("leaky_alloc");
    const FnId other = process.registry().intern("other_work");
    // Anchor object so percentages are defined.
    process.onAlloc(0x100000, 64);
    Addr next = 0x200000;
    // Allocate isolated roots until %Roots blows past 30 + slack.
    for (int i = 0; i < 200; ++i) {
        process.onFnEnter(leaker);
        process.onAlloc(next, 64);
        next += 0x100;
        process.onFnExit(leaker);
        process.onFnEnter(other);
        process.onFnExit(other);
    }
    detector.finish();
    ASSERT_FALSE(detector.reports().empty());
    const BugReport &r = detector.reports()[0];
    EXPECT_EQ(r.metric, MetricId::Roots);
    EXPECT_EQ(r.direction, AnomalyDirection::AboveMax);
    ASSERT_FALSE(r.contextLog.empty());
    // The suspect function is derivable from the log.
    const FnId suspect = r.suspectFunction();
    EXPECT_TRUE(suspect == leaker || suspect == other);
    const std::string text = r.describe(process.registry());
    EXPECT_NE(text.find("Root"), std::string::npos);
    EXPECT_NE(text.find("above max"), std::string::npos);
}

// ---------------------------------------------------------------
// Corpus digests: every report both detector settings give over the
// 13 apps, clean and with each injected fault.  The digests were taken
// while `check` and `monitor` still ran two separate detectors; the
// one detector reproduces both, and at debounce 1, rearm 1 (the
// checker's) its untrimmed report list is the old batch detector's.
// ---------------------------------------------------------------

/** One line for the report, then one per context-log entry. */
void
appendReport(std::string &out, const BugReport &r)
{
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s %s %s %.17g %.17g %.17g %llu %llu\n",
                  bugClassName(r.klass), metricName(r.metric).c_str(),
                  anomalyDirectionName(r.direction), r.observedValue,
                  r.calibratedMin, r.calibratedMax,
                  static_cast<unsigned long long>(r.tick),
                  static_cast<unsigned long long>(r.pointIndex));
    out += line;
    for (const StackLogEntry &entry : r.contextLog) {
        std::snprintf(line, sizeof line, "  %llu %llu %.17g",
                      static_cast<unsigned long long>(entry.tick),
                      static_cast<unsigned long long>(entry.pointIndex),
                      entry.metricValue);
        out += line;
        for (FnId fn : entry.frames)
            out += " " + std::to_string(fn);
        out += "\n";
    }
}

/** The report headers a monitor publishes, in (point, metric) order. */
std::string
headerText(std::vector<BugReport> reports)
{
    std::sort(reports.begin(), reports.end(),
              [](const BugReport &a, const BugReport &b) {
                  return std::tuple(a.pointIndex, metricIndex(a.metric)) <
                         std::tuple(b.pointIndex, metricIndex(b.metric));
              });
    std::string out;
    char line[160];
    for (const BugReport &r : reports) {
        std::snprintf(line, sizeof line, "%s %s %llu %llu %.17g\n",
                      metricName(r.metric).c_str(),
                      anomalyDirectionName(r.direction),
                      static_cast<unsigned long long>(r.tick),
                      static_cast<unsigned long long>(r.pointIndex),
                      r.observedValue);
        out += line;
    }
    return out;
}

/** The three report texts of one app's runs. */
struct CorpusText
{
    std::string checked;   //!< ExecutionChecker results, with context
    std::string untrimmed; //!< the detector at 1/1, before the trim
    std::string online;    //!< monitor report headers at 3/8
};

CorpusText
corpusText(const std::string &name, const HeapMDConfig &config)
{
    const auto app = makeApp(name);
    const HeapModel model =
        HeapMD(config).train(*app, makeInputs(1, 5, 1, 0.4)).model;
    CorpusText text;
    for (std::size_t k = 0; k <= kNumFaultKinds; ++k) {
        AppConfig input;
        input.inputSeed = 101;
        input.scale = 0.4;
        if (k > 0)
            input.faults.enable(static_cast<FaultKind>(k - 1));
        const std::string run =
            name + " " +
            (k > 0 ? faultKindName(static_cast<FaultKind>(k - 1))
                   : "clean") +
            "\n";

        Process process(config.process);
        ExecutionChecker checker(model);
        checker.attach(process);
        monitor::OnlineDetector monitored(model, {3, 8});
        monitored.attach(process);
        app->run(process, input);
        const CheckResult result = checker.finalize(process);
        monitored.finish();

        text.checked += run;
        for (const BugReport &r : result.reports)
            appendReport(text.checked, r);
        text.untrimmed += run;
        for (const BugReport &r : checker.detector().reports())
            appendReport(text.untrimmed, r);
        text.online += run + headerText(monitored.reports());
    }
    return text;
}

TEST(DetectorCorpusTest, ReportsMatchPinnedDigests)
{
    HeapMDConfig config;
    config.process.metricFrequency = 300;
    const std::vector<std::string> names = allAppNames();
    ASSERT_EQ(names.size(), 13u);
    // One app per worker; the texts join in app order.
    std::vector<CorpusText> texts(names.size());
    parallelForIndexed(names.size(), 0, [&](std::size_t i) {
        texts[i] = corpusText(names[i], config);
    });
    CorpusText all;
    for (const CorpusText &text : texts) {
        all.checked += text.checked;
        all.untrimmed += text.untrimmed;
        all.online += text.online;
    }
    EXPECT_EQ(hashFingerprint(fnv1a64(all.checked)),
              "fnv1a:064bcc6e86d97312");
    EXPECT_EQ(hashFingerprint(fnv1a64(all.untrimmed)),
              "fnv1a:09075450c942244b");
    EXPECT_EQ(hashFingerprint(fnv1a64(all.online)),
              "fnv1a:400ceee7e3bad68e");
}

TEST(BugReportTest, SuspectFunctionMajority)
{
    BugReport r;
    StackLogEntry e1;
    e1.frames = {7, 1};
    StackLogEntry e2;
    e2.frames = {7, 2};
    StackLogEntry e3;
    e3.frames = {9};
    r.contextLog = {e1, e2, e3};
    EXPECT_EQ(r.suspectFunction(), 7u);

    BugReport empty;
    EXPECT_EQ(empty.suspectFunction(), kNoFunction);
}

TEST(BugReportTest, SuspectFunctionEmptyContextLog)
{
    BugReport r;
    EXPECT_EQ(r.suspectFunction(), kNoFunction);
    EXPECT_TRUE(r.suspectRanking().empty());

    // Snapshots whose stacks are all empty also yield no suspect.
    StackLogEntry hollow;
    r.contextLog = {hollow, hollow};
    EXPECT_EQ(r.suspectFunction(), kNoFunction);
    EXPECT_TRUE(r.suspectRanking().empty());
}

TEST(BugReportTest, SuspectFunctionSingleEntry)
{
    BugReport r;
    StackLogEntry e;
    e.frames = {42, 3, 1}; // innermost first
    r.contextLog = {e};
    EXPECT_EQ(r.suspectFunction(), 42u);
    const auto ranking = r.suspectRanking();
    ASSERT_EQ(ranking.size(), 1u);
    EXPECT_EQ(ranking[0].first, 42u);
    EXPECT_EQ(ranking[0].second, 1u);
}

TEST(BugReportTest, SuspectFunctionTieBreaksToLowestId)
{
    // fn 9 and fn 4 are each innermost twice: the tie must go to the
    // lower id deterministically, independent of log order.
    BugReport r;
    StackLogEntry a, b, c, d;
    a.frames = {9};
    b.frames = {4};
    c.frames = {9};
    d.frames = {4};
    r.contextLog = {a, b, c, d};
    EXPECT_EQ(r.suspectFunction(), 4u);

    BugReport reversed;
    reversed.contextLog = {c, d, a, b};
    EXPECT_EQ(reversed.suspectFunction(), 4u);
}

TEST(BugReportTest, SuspectRankingOrdersByFrequency)
{
    BugReport r;
    StackLogEntry x, y, z;
    x.frames = {5, 1};
    y.frames = {8, 1};
    z.frames = {8, 2};
    r.contextLog = {x, y, z};
    const auto ranking = r.suspectRanking();
    ASSERT_EQ(ranking.size(), 2u);
    EXPECT_EQ(ranking[0].first, 8u);
    EXPECT_EQ(ranking[0].second, 2u);
    EXPECT_EQ(ranking[1].first, 5u);
    EXPECT_EQ(ranking[1].second, 1u);
}

TEST(BugReportTest, DescribeSurvivesUnregisteredFnIds)
{
    // A report whose log mentions functions the registry never saw
    // (truncated trace, cross-run registry) must render placeholders,
    // not crash.
    BugReport r;
    r.klass = BugClass::HeapAnomaly;
    r.metric = MetricId::Leaves;
    r.direction = AnomalyDirection::AboveMax;
    StackLogEntry e;
    e.frames = {9999, 3};
    r.contextLog = {e};

    FunctionRegistry registry; // empty: every id is unregistered
    const std::string text = r.describe(registry);
    EXPECT_NE(text.find("<fn#9999>"), std::string::npos);
    EXPECT_FALSE(registry.contains(9999));
}

TEST(BugReportTest, AnomalyDirectionNames)
{
    EXPECT_STREQ(anomalyDirectionName(AnomalyDirection::AboveMax),
                 "above-max");
    EXPECT_STREQ(anomalyDirectionName(AnomalyDirection::BelowMin),
                 "below-min");
    EXPECT_EQ(tryAnomalyDirectionFromName("above-max"),
              AnomalyDirection::AboveMax);
    EXPECT_EQ(tryAnomalyDirectionFromName("below-min"),
              AnomalyDirection::BelowMin);
    EXPECT_FALSE(tryAnomalyDirectionFromName("sideways").has_value());
}

TEST(BugClassTest, TryBugClassFromName)
{
    EXPECT_EQ(tryBugClassFromName("heap-anomaly"),
              BugClass::HeapAnomaly);
    EXPECT_EQ(tryBugClassFromName("poorly-disguised"),
              BugClass::PoorlyDisguised);
    EXPECT_EQ(tryBugClassFromName("pathological"),
              BugClass::Pathological);
    EXPECT_FALSE(tryBugClassFromName("benign").has_value());
}

} // namespace

} // namespace heapmd
