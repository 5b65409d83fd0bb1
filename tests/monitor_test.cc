/**
 * @file
 * Tests of the continuous-monitoring subsystem: the anomaly detector
 * at the monitor's hysteresis settings on synthetic sample streams,
 * and MonitorSession end to end over synthetic traces (batch parity
 * in --once mode, incident bundles and Prometheus rendering in follow
 * mode).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/diag_lint.hh"
#include "analysis/report.hh"
#include "detector/execution_checker.hh"
#include "monitor/monitor.hh"
#include "runtime/process.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_writer.hh"

namespace heapmd
{

namespace
{

using monitor::MonitorOptions;
using monitor::MonitorSession;

// ---------------------------------------------------------------
// The detector at the monitor's debounce 3, rearm 8.
// ---------------------------------------------------------------

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

/** Feed a value sequence into a detector at the monitor's settings. */
class OnlineHarness
{
  public:
    OnlineHarness(MetricId id, double min, double max)
        : id_(id), model_(singleMetricModel(id, min, max)),
          detector_(model_, MonitorOptions{}.detector)
    {
    }

    void
    feed(const std::vector<double> &values)
    {
        for (double v : values)
            detector_.observe(sampleAt(id_, v, point_++), frames_);
    }

    AnomalyDetector &detector() { return detector_; }

    const MetricView &
    view() const
    {
        views_ = detector_.views();
        return views_.front();
    }

  private:
    MetricId id_;
    HeapModel model_;
    AnomalyDetector detector_;
    std::vector<FnId> frames_{0};
    std::uint64_t point_ = 0;
    mutable std::vector<MetricView> views_;
};

// Default slack for range [10, 20]: max(0.25 * 10, 1.0) = 2.5, so
// the effective detection bounds are [7.5, 22.5].  A report opens on
// the third violating sample and closes kAfterSamples samples later.

TEST(OnlineDetectorTest, InRangeStreamNeverFires)
{
    OnlineHarness h(MetricId::Leaves, 10.0, 20.0);
    h.feed({12, 14, 22.4, 7.6, 18, 12, 12, 12, 12, 12});
    h.detector().finish();
    EXPECT_FALSE(h.detector().anomalous());
    EXPECT_EQ(h.detector().samplesChecked(), 10u);
    EXPECT_EQ(h.view().phase, MetricPhase::Armed);
    EXPECT_EQ(h.view().violatingSamples, 0u);
}

TEST(OnlineDetectorTest, DebounceSuppressesShortBlips)
{
    // Two violating samples, then recovery: one short of the default
    // debounce of three, so nobody gets paged.
    OnlineHarness h(MetricId::Leaves, 10.0, 20.0);
    h.feed({12, 30, 30, 12});
    h.detector().finish();
    EXPECT_TRUE(h.detector().reports().empty());
    EXPECT_EQ(h.view().phase, MetricPhase::Armed);
    EXPECT_EQ(h.view().violatingSamples, 2u);
}

TEST(OnlineDetectorTest, FiresOnceTheStreakCompletes)
{
    OnlineHarness h(MetricId::Leaves, 10.0, 20.0);
    h.feed({12, 30, 31, 32});
    EXPECT_EQ(h.view().phase, MetricPhase::Firing);
    // Open, not yet published: the after context is still to come.
    EXPECT_TRUE(h.detector().reports().empty());
    h.feed({33, 34, 35});
    ASSERT_EQ(h.detector().reports().size(), 1u);

    // The report pins the firing sample, not the first violating one.
    const BugReport &report = h.detector().reports().front();
    EXPECT_EQ(report.metric, MetricId::Leaves);
    EXPECT_EQ(report.direction, AnomalyDirection::AboveMax);
    EXPECT_DOUBLE_EQ(report.observedValue, 32.0);
    EXPECT_EQ(report.pointIndex, 3u);
    // Calibrated bounds are reported raw, without slack.
    EXPECT_DOUBLE_EQ(report.calibratedMin, 10.0);
    EXPECT_DOUBLE_EQ(report.calibratedMax, 20.0);

    // A sustained excursion keeps violating but never re-fires.
    h.feed({36, 37, 38, 39, 40});
    h.detector().finish();
    EXPECT_EQ(h.detector().reports().size(), 1u);
}

TEST(OnlineDetectorTest, BelowMinReportsDirection)
{
    OnlineHarness h(MetricId::Roots, 10.0, 20.0);
    h.feed({12, 2, 2, 2});
    h.detector().finish();
    ASSERT_EQ(h.detector().reports().size(), 1u);
    EXPECT_EQ(h.detector().reports().front().direction,
              AnomalyDirection::BelowMin);
}

TEST(OnlineDetectorTest, CoolingReflareDoesNotRefire)
{
    OnlineHarness h(MetricId::Leaves, 10.0, 20.0);
    h.feed({12, 30, 30, 30}); // fire
    EXPECT_EQ(h.view().phase, MetricPhase::Firing);

    // The metric dips back in range, then flares again: that is the
    // same excursion oscillating around the bound, not a new one.
    h.feed({12, 30, 12, 12, 30, 30});
    EXPECT_EQ(h.detector().reports().size(), 1u);
    EXPECT_EQ(h.view().phase, MetricPhase::Firing);
}

TEST(OnlineDetectorTest, RearmStreakEnablesTheNextIncident)
{
    OnlineHarness h(MetricId::Leaves, 10.0, 20.0);
    h.feed({12, 30, 30, 30}); // incident 1

    // A full re-arm streak of in-range samples (default 8)...
    h.feed({12, 12, 12, 12, 12, 12, 12, 12});
    EXPECT_EQ(h.view().phase, MetricPhase::Armed);
    EXPECT_EQ(h.detector().reports().size(), 1u);

    // ...makes the next excursion a fresh incident.
    h.feed({30, 30, 30});
    h.detector().finish();
    EXPECT_EQ(h.detector().reports().size(), 2u);
}

TEST(OnlineDetectorTest, IncidentCallbackSeesTheFiringReport)
{
    OnlineHarness h(MetricId::Leaves, 10.0, 20.0);
    std::vector<double> seen;
    h.detector().setIncidentCallback(
        [&seen](const BugReport &report) {
            seen.push_back(report.observedValue);
        });
    h.feed({12, 30, 31, 32, 33, 34});
    EXPECT_TRUE(seen.empty());
    // The report closes kAfterSamples samples after it opened.
    h.feed({35});
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_DOUBLE_EQ(seen.front(), 32.0);
}

TEST(OnlineDetectorTest, ContextRingCarriesRecentSamples)
{
    OnlineHarness h(MetricId::Leaves, 10.0, 20.0);
    // Flat in-range samples are not logged.  Then a climb toward the
    // max, every sample of which arms the log, longer than the ring,
    // and an excursion: three samples to open the report and three
    // more to close it.
    std::vector<double> values(5, 12.0);
    for (std::size_t i = 0; i < kLogCapacity + 10; ++i)
        values.push_back(19.0 + 0.01 * static_cast<double>(i));
    values.insert(values.end(), 3 + kAfterSamples, 30.0);
    h.feed(values);
    ASSERT_EQ(h.detector().reports().size(), 1u);

    // The ring kept the kLogCapacity newest snapshots, oldest first,
    // ending at the closing sample.
    const std::vector<StackLogEntry> &log =
        h.detector().reports().front().contextLog;
    ASSERT_EQ(log.size(), kLogCapacity);
    EXPECT_EQ(log.front().pointIndex, values.size() - kLogCapacity);
    EXPECT_DOUBLE_EQ(log.front().metricValue,
                     values[values.size() - kLogCapacity]);
    EXPECT_EQ(log.back().pointIndex, values.size() - 1);
    EXPECT_DOUBLE_EQ(log.back().metricValue, 30.0);
    EXPECT_EQ(log.back().frames, std::vector<FnId>{0});

    // Away from the bounds the log empties: a short approach is all
    // the next report carries.
    h.feed(std::vector<double>(8, 12.0));
    h.feed({19.5, 19.8, 30, 30, 30});
    h.detector().finish();
    ASSERT_EQ(h.detector().reports().size(), 2u);
    EXPECT_EQ(h.detector().reports().back().contextLog.size(), 5u);
}

// ---------------------------------------------------------------
// MonitorSession over a synthetic trace.
// ---------------------------------------------------------------

/**
 * Writes a synthetic capture-shaped trace: a calibration phase whose
 * heap graph holds 10 ten-node chains (10% of vertices are roots),
 * then a fault phase allocating pointer-free singletons that drives
 * %roots far above any calibrated range.  A scan-marker function
 * entry after each step makes the replay sample (metricFrequency=1)
 * exactly where the capture shim would.
 */
class MonitorSessionTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        trace_path_ =
            (std::filesystem::temp_directory_path() /
             ("heapmd_monitor_test_" + std::to_string(::getpid()) +
              "_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name() +
              ".trace"))
                .string();
        bundle_dir_ = trace_path_ + ".bundles";

        FunctionRegistry registry;
        registry.intern("test.scan");
        std::ofstream os(trace_path_, std::ios::binary);
        ASSERT_TRUE(os.is_open());
        TraceWriterOptions opts;
        opts.captureProvenance = true;
        TraceWriter writer(os, registry, opts);

        Tick tick = 0;
        const auto emit = [&writer, &tick](const Event &event) {
            writer.onEvent(event, ++tick);
        };
        const auto scanMark = [&emit] {
            emit(Event::fnEnter(0));
            emit(Event::fnExit(0));
        };

        // Calibration shape: 10 chains x 10 nodes, linked head to
        // tail, so exactly the 10 heads have indegree 0.
        Addr next_addr = 0x10000;
        for (int chain = 0; chain < 10; ++chain) {
            Addr prev = 0;
            for (int node = 0; node < 10; ++node) {
                const Addr addr = next_addr;
                next_addr += 0x100;
                emit(Event::alloc(addr, 16));
                if (prev != 0)
                    emit(Event::write(prev, addr));
                prev = addr;
            }
        }
        // A comfortable clean window: %roots sits at 10 throughout.
        for (int i = 0; i < 6; ++i)
            scanMark();

        // The fault: 100 singletons double the vertex count and lift
        // %roots to (10 + 100) / 200 = 55.
        for (int i = 0; i < 100; ++i) {
            emit(Event::alloc(next_addr, 16));
            next_addr += 0x100;
        }
        for (int i = 0; i < 6; ++i)
            scanMark();

        writer.finish();
    }

    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove(trace_path_, ec);
        std::filesystem::remove_all(bundle_dir_, ec);
    }

    /** Model calibrated for the chain phase: %roots in [9, 11]. */
    static HeapModel
    rootsModel()
    {
        return singleMetricModel(MetricId::Roots, 9.0, 11.0);
    }

    std::string trace_path_;
    std::string bundle_dir_;
};

TEST_F(MonitorSessionTest, OnceMatchesTheBatchChecker)
{
    // The reference verdict: `heapmd check` replay of the trace.
    const HeapModel model = rootsModel();
    ProcessConfig cfg;
    cfg.metricFrequency = 1;
    cfg.tolerateAddressReuse = true;
    Process process(cfg);
    ExecutionChecker checker(model);
    checker.attach(process);
    {
        std::ifstream in(trace_path_, std::ios::binary);
        TraceReader reader(in);
        replayTrace(reader, process);
        ASSERT_FALSE(reader.malformed()) << reader.error();
    }
    const CheckResult batch = checker.finalize(process);
    ASSERT_FALSE(batch.reports.empty());

    // --once over the same path (single-file degradation of the
    // segment chain) must agree report for report.
    MonitorOptions options;
    options.segmentsBase = trace_path_;
    options.follow = false;
    const HeapModel session_model = rootsModel();
    MonitorSession session(session_model, options);
    std::string error;
    ASSERT_TRUE(session.run(error)) << error;

    EXPECT_TRUE(session.anomalous());
    ASSERT_EQ(session.reports().size(), batch.reports.size());
    for (std::size_t i = 0; i < batch.reports.size(); ++i) {
        EXPECT_EQ(session.reports()[i].metric,
                  batch.reports[i].metric);
        EXPECT_EQ(session.reports()[i].direction,
                  batch.reports[i].direction);
        EXPECT_EQ(session.reports()[i].pointIndex,
                  batch.reports[i].pointIndex);
        EXPECT_DOUBLE_EQ(session.reports()[i].observedValue,
                         batch.reports[i].observedValue);
    }
    EXPECT_EQ(session.stats().samples, 12u);
    EXPECT_EQ(session.stats().segmentsConsumed, 1u);
}

TEST_F(MonitorSessionTest, FollowFiresAndWritesLintableBundles)
{
    MonitorOptions options;
    options.segmentsBase = trace_path_;
    options.bundleDir = bundle_dir_;
    options.follow = true;
    // A plain completed file has no manifest and no writer to watch,
    // so follow mode would poll forever at EOF; stop once the chain
    // goes idle (every event decoded).
    options.pollMs = 1;
    bool idled = false;
    options.stopped = [&idled] { return idled; };
    options.onIdle = [&idled] { idled = true; };

    const HeapModel session_model = rootsModel();
    MonitorSession session(session_model, options);
    std::string error;
    ASSERT_TRUE(session.run(error)) << error;

    // The singleton flood violates every post-fault sample: the
    // hysteresis machine fires exactly once for the excursion.
    ASSERT_EQ(session.reports().size(), 1u);
    EXPECT_EQ(session.reports().front().metric, MetricId::Roots);
    EXPECT_EQ(session.stats().incidents, 1u);
    ASSERT_EQ(session.stats().bundlesWritten, 1u);

    // The bundle is on disk and diag-lint clean.
    const std::string bundle_path =
        bundle_dir_ + "/incident-001.json";
    ASSERT_TRUE(std::filesystem::exists(bundle_path));
    analysis::Report lint;
    analysis::lintBundleFile(bundle_path, lint);
    EXPECT_TRUE(lint.clean()) << lint.describe();

    // Detector state is live in follow mode.
    const std::vector<MetricView> views = session.views();
    ASSERT_EQ(views.size(), 1u);
    EXPECT_EQ(views.front().phase, MetricPhase::Firing);
    EXPECT_DOUBLE_EQ(views.front().value, 55.0);
}

TEST_F(MonitorSessionTest, CleanModelSeesNoIncidents)
{
    // Calibrate %roots to cover both phases: nothing violates, no
    // bundles appear.
    MonitorOptions options;
    options.segmentsBase = trace_path_;
    options.bundleDir = bundle_dir_;
    options.follow = false;
    const HeapModel session_model =
        singleMetricModel(MetricId::Roots, 5.0, 60.0);
    MonitorSession session(session_model, options);
    std::string error;
    ASSERT_TRUE(session.run(error)) << error;
    EXPECT_FALSE(session.anomalous());
    EXPECT_EQ(session.stats().bundlesWritten, 0u);
    EXPECT_FALSE(std::filesystem::exists(bundle_dir_ +
                                         "/incident-001.json"));
}

TEST_F(MonitorSessionTest, UnwritableBundleDirWarnsAndKeepsRunning)
{
    // --bundle-dir names a regular file: no bundle can be written,
    // each failure is a warning naming the path and the reason, and
    // the session still finishes with its verdicts.
    { std::ofstream(bundle_dir_) << "not a directory\n"; }
    MonitorOptions options;
    options.segmentsBase = trace_path_;
    options.bundleDir = bundle_dir_;
    options.follow = false;
    const HeapModel session_model = rootsModel();
    MonitorSession session(session_model, options);
    std::string error;
    ::testing::internal::CaptureStderr();
    const bool ran = session.run(error);
    const std::string err = ::testing::internal::GetCapturedStderr();
    ASSERT_TRUE(ran) << error;
    EXPECT_TRUE(session.anomalous());
    EXPECT_EQ(session.stats().bundlesWritten, 0u);
    EXPECT_NE(err.find("warn: cannot write incident bundle '" +
                       bundle_dir_ + "/incident-001.json': "),
              std::string::npos)
        << err;
}

TEST_F(MonitorSessionTest, PrometheusRenderingIsWellFormed)
{
    MonitorOptions options;
    options.segmentsBase = trace_path_;
    options.follow = true;
    options.pollMs = 1;
    bool idled = false;
    options.stopped = [&idled] { return idled; };
    options.onIdle = [&idled] { idled = true; };
    const HeapModel session_model = rootsModel();
    MonitorSession session(session_model, options);
    std::string error;
    ASSERT_TRUE(session.run(error)) << error;

    const std::string text = session.renderPrometheus();
    for (const char *family :
         {"heapmd_monitor_metric_percent",
          "heapmd_monitor_range_distance",
          "heapmd_monitor_violating_samples_total",
          "heapmd_monitor_incidents_total",
          "heapmd_monitor_bundles_written_total",
          "heapmd_monitor_samples_total",
          "heapmd_monitor_events_total",
          "heapmd_monitor_segments_consumed_total",
          "heapmd_monitor_tail_lag_bytes"}) {
        EXPECT_NE(text.find(std::string("# HELP ") + family),
                  std::string::npos)
            << family;
        EXPECT_NE(text.find(std::string("# TYPE ") + family),
                  std::string::npos)
            << family;
    }
    // The one modeled metric renders with its label.
    EXPECT_NE(text.find("heapmd_monitor_metric_percent{metric="
                        "\"Root\"} 55.0"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("heapmd_monitor_incidents_total 1"),
              std::string::npos)
        << text;
}

TEST_F(MonitorSessionTest, RejectsAmbiguousSources)
{
    MonitorOptions options;
    options.segmentsBase = trace_path_;
    options.pid = static_cast<std::uint32_t>(::getpid());
    const HeapModel session_model = rootsModel();
    MonitorSession session(session_model, options);
    std::string error;
    EXPECT_FALSE(session.run(error));
    EXPECT_FALSE(error.empty());
}

} // namespace

} // namespace heapmd
