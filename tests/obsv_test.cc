/**
 * @file
 * Live-observability tests: the shared-memory stats segment (seqlock
 * writer/reader, discovery, reaping, version gating), the Prometheus
 * exposition renderer, and the `heapmd top` text view.
 *
 * Segment tests use fake pids far above the kernel's pid ceiling, so
 * they can never collide with a real process's segment and pidAlive()
 * is reliably false for them.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "obsv/prometheus.hh"
#include "obsv/segment.hh"
#include "obsv/top_view.hh"

using namespace heapmd;
using namespace heapmd::obsv;

namespace
{

/** Fake pids: above PID_MAX_LIMIT (4194304), unique per test. */
std::uint32_t
fakePid(std::uint32_t salt)
{
    return 4000000000u + (static_cast<std::uint32_t>(::getpid()) %
                          100000u) * 10u + salt;
}

class ObsvSegmentTest : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        for (std::uint32_t pid : created_)
            unlinkSegmentForPid(pid);
    }

    std::uint32_t
    track(std::uint32_t pid)
    {
        created_.push_back(pid);
        return pid;
    }

    std::vector<std::uint32_t> created_;
};

TEST_F(ObsvSegmentTest, WriterReaderRoundTrip)
{
    const std::uint32_t pid = track(fakePid(1));
    SegmentWriter writer;
    ASSERT_TRUE(writer.create(pid, "roundtrip"));
    ASSERT_TRUE(writer.valid());

    std::array<std::uint64_t, kSlotCount> values{};
    for (std::size_t i = 0; i < kSlotCount; ++i)
        values[i] = 1000 + i;
    writer.publish(values);

    SegmentReader reader;
    std::string error;
    ASSERT_TRUE(reader.attachPid(pid, &error)) << error;
    SegmentSnapshot snapshot;
    ASSERT_TRUE(reader.read(snapshot, &error)) << error;

    EXPECT_EQ(snapshot.pid, pid);
    EXPECT_EQ(snapshot.layoutVersion, kLayoutVersion);
    EXPECT_EQ(snapshot.program, "roundtrip");
    EXPECT_GT(snapshot.startMonoMs, 0u);
    EXPECT_GE(snapshot.heartbeatMonoMs, snapshot.startMonoMs);
    for (std::size_t i = 0; i < kSlotCount; ++i)
        EXPECT_EQ(snapshot.values[i], 1000 + i) << "slot " << i;
}

TEST_F(ObsvSegmentTest, MetricSlotsStartAbsentAndScaleBack)
{
    const std::uint32_t pid = track(fakePid(2));
    SegmentWriter writer;
    ASSERT_TRUE(writer.create(pid, "metrics"));

    SegmentReader reader;
    std::string error;
    ASSERT_TRUE(reader.attachPid(pid, &error)) << error;
    SegmentSnapshot snapshot;
    ASSERT_TRUE(reader.read(snapshot, &error)) << error;
    EXPECT_FALSE(snapshot.hasMetrics());
    EXPECT_EQ(snapshot.metricPercent(MetricId::Roots), 0.0);

    std::array<std::uint64_t, kSlotCount> values{};
    // 43.21% at the fixed-point scale.
    values[metricSlotIndex(MetricId::Roots)] = 432100;
    writer.publish(values);
    ASSERT_TRUE(reader.read(snapshot, &error)) << error;
    EXPECT_TRUE(snapshot.hasMetrics());
    EXPECT_DOUBLE_EQ(snapshot.metricPercent(MetricId::Roots), 43.21);
}

TEST_F(ObsvSegmentTest, PublishPrefixLeavesTailSlotsAlone)
{
    const std::uint32_t pid = track(fakePid(3));
    SegmentWriter writer;
    ASSERT_TRUE(writer.create(pid, "prefix"));

    std::array<std::uint64_t, kSlotCount> values{};
    for (std::size_t i = 0; i < kSlotCount; ++i)
        values[i] = 7000 + i;
    writer.publish(values);

    const std::uint64_t prefix[4] = {1, 2, 3, 4};
    writer.publishPrefix(prefix, 4);

    SegmentReader reader;
    std::string error;
    ASSERT_TRUE(reader.attachPid(pid, &error)) << error;
    SegmentSnapshot snapshot;
    ASSERT_TRUE(reader.read(snapshot, &error)) << error;
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(snapshot.values[i], i + 1);
    for (std::size_t i = 4; i < kSlotCount; ++i)
        EXPECT_EQ(snapshot.values[i], 7000 + i) << "slot " << i;
}

TEST_F(ObsvSegmentTest, ReaderRejectsLayoutVersionSkew)
{
    const std::uint32_t pid = track(fakePid(4));
    SegmentWriter writer;
    ASSERT_TRUE(writer.create(pid, "skew"));

    // Re-map the same segment read-write and bump its layout version,
    // as a newer shim would have written.
    char name[32];
    segmentName(pid, name, sizeof name);
    const int fd = ::shm_open(name, O_RDWR, 0);
    ASSERT_GE(fd, 0);
    void *mapped = ::mmap(nullptr, kSegmentBytes,
                          PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    ::close(fd);
    ASSERT_NE(mapped, MAP_FAILED);
    static_cast<SegmentHeader *>(mapped)->layoutVersion =
        kLayoutVersion + 1;

    SegmentReader reader;
    std::string error;
    ASSERT_TRUE(reader.attachPid(pid, &error)) << error;
    SegmentSnapshot snapshot;
    EXPECT_FALSE(reader.read(snapshot, &error));
    EXPECT_NE(error.find("layout version"), std::string::npos)
        << error;
    ::munmap(mapped, kSegmentBytes);
}

TEST_F(ObsvSegmentTest, ListAndReapDeadSegments)
{
    const std::uint32_t pid = track(fakePid(5));
    SegmentWriter writer;
    ASSERT_TRUE(writer.create(pid, "dead"));
    // The writer stays mapped, but the fake pid names no live
    // process, so the reaper must collect the /dev/shm entry.
    EXPECT_FALSE(pidAlive(pid));

    const std::vector<std::uint32_t> pids = listSegmentPids();
    EXPECT_NE(std::find(pids.begin(), pids.end(), pid), pids.end());

    // Reap only this test's segment: a bare reapDeadSegments() would
    // also unlink the fake-pid segments of obsv tests running in
    // parallel (all fake pids are dead).
    const ReapResult result = reapDeadSegments({pid});
    EXPECT_NE(std::find(result.reaped.begin(), result.reaped.end(),
                        pid),
              result.reaped.end());
    const std::vector<std::uint32_t> after = listSegmentPids();
    EXPECT_EQ(std::find(after.begin(), after.end(), pid), after.end());
}

TEST_F(ObsvSegmentTest, OwnPidIsAlive)
{
    EXPECT_TRUE(pidAlive(static_cast<std::uint32_t>(::getpid())));
}

/**
 * Seqlock torn-read fuzz: a writer republishing at full speed while a
 * reader snapshots concurrently.  Every slot of every publish carries
 * the same generation value, so any snapshot mixing two generations
 * is a torn read the seqlock failed to exclude.  Run under TSan in CI
 * to also prove the protocol is race-annotation clean.
 */
TEST(SeqlockTortureTest, SnapshotsAreNeverTorn)
{
    const std::uint32_t pid = fakePid(6);
    SegmentWriter writer;
    ASSERT_TRUE(writer.create(pid, "torture"));

    std::atomic<bool> stop{false};
    std::thread publisher([&] {
        std::array<std::uint64_t, kSlotCount> values{};
        std::uint64_t generation = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            ++generation;
            values.fill(generation);
            writer.publish(values);
            // Exercise the partial-publish path with the same
            // generation so the all-equal invariant still holds.
            writer.publishPrefix(values.data(), 8);
        }
    });

    SegmentReader reader;
    std::string error;
    ASSERT_TRUE(reader.attachPid(pid, &error)) << error;
    // Time-boxed: on a single-core host the publisher thread only
    // runs when this loop yields, so an iteration count alone could
    // finish before the first publish ever lands.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(5);
    std::size_t reads = 0;
    while (reads < 2000 &&
           std::chrono::steady_clock::now() < deadline) {
        SegmentSnapshot snapshot;
        if (!reader.read(snapshot, &error)) {
            std::this_thread::yield(); // writer never quiesced
            continue;
        }
        const std::uint64_t first = snapshot.values[0];
        if (first == 0) {
            std::this_thread::yield();
            continue; // initial state, before the first publish:
                      // metric slots still carry the absent sentinel
        }
        ++reads;
        for (std::size_t s = 1; s < kSlotCount; ++s)
            ASSERT_EQ(snapshot.values[s], first)
                << "torn read: slot " << s << " generation "
                << snapshot.values[s] << " vs " << first;
    }
    stop.store(true);
    publisher.join();
    EXPECT_GT(reads, 0u);
    unlinkSegmentForPid(pid);
}

SegmentSnapshot
sampleSnapshot()
{
    SegmentSnapshot snapshot;
    snapshot.pid = 4242;
    snapshot.layoutVersion = kLayoutVersion;
    snapshot.program = "sample";
    snapshot.startMonoMs = 1000;
    snapshot.heartbeatMonoMs = 2500;
    for (std::size_t i = 0; i < kSlotCount; ++i)
        snapshot.values[i] = 10 * (i + 1);
    snapshot.values[metricSlotIndex(MetricId::Roots)] = 123400;
    return snapshot;
}

TEST(ObsvPrometheusTest, EscapesLabelValues)
{
    EXPECT_EQ(escapeLabelValue("plain"), "plain");
    EXPECT_EQ(escapeLabelValue("a\\b"), "a\\\\b");
    EXPECT_EQ(escapeLabelValue("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(escapeLabelValue("two\nlines"), "two\\nlines");
}

TEST(ObsvPrometheusTest, RendersDeterministicExposition)
{
    const std::vector<SegmentSnapshot> snapshots = {sampleSnapshot()};
    const std::string first = renderPrometheus(snapshots);
    const std::string second = renderPrometheus(snapshots);
    EXPECT_EQ(first, second);

    EXPECT_NE(first.find("# TYPE heapmd_live_objects gauge"),
              std::string::npos);
    EXPECT_NE(first.find("# TYPE heapmd_alloc_events_total counter"),
              std::string::npos);
    EXPECT_NE(
        first.find(
            "heapmd_live_objects{pid=\"4242\",program=\"sample\"} 10"),
        std::string::npos)
        << first;
    // 123400 at the fixed-point scale is 12.34%.
    EXPECT_NE(first.find("metric=\"Root\"} 12.340000"),
              std::string::npos)
        << first;
    // Timestamps come from the segment, never the scraping host.
    EXPECT_NE(first.find("heapmd_heartbeat_monotonic_ms{pid=\"4242\","
                         "program=\"sample\"} 2500"),
              std::string::npos)
        << first;
}

/**
 * The whole exposition of sampleSnapshot(), recorded before the
 * Prometheus slot families were generated from the counter catalog:
 * every HELP/TYPE line, the family order and the sample formats are
 * a scraper-facing contract.
 */
constexpr const char *kSampleExposition = R"prom(# HELP heapmd_live_objects Live heap objects tracked by the capture shim.
# TYPE heapmd_live_objects gauge
heapmd_live_objects{pid="4242",program="sample"} 10
# HELP heapmd_live_bytes Bytes in live tracked heap objects.
# TYPE heapmd_live_bytes gauge
heapmd_live_bytes{pid="4242",program="sample"} 20
# HELP heapmd_live_edges Pointer edges tracked by the conservative scan.
# TYPE heapmd_live_edges gauge
heapmd_live_edges{pid="4242",program="sample"} 30
# HELP heapmd_peak_live_objects High-water mark of live tracked heap objects.
# TYPE heapmd_peak_live_objects gauge
heapmd_peak_live_objects{pid="4242",program="sample"} 40
# HELP heapmd_alloc_events_total Allocation events recorded by the shim.
# TYPE heapmd_alloc_events_total counter
heapmd_alloc_events_total{pid="4242",program="sample"} 50
# HELP heapmd_free_events_total Free events recorded by the shim.
# TYPE heapmd_free_events_total counter
heapmd_free_events_total{pid="4242",program="sample"} 60
# HELP heapmd_realloc_events_total Realloc events recorded by the shim.
# TYPE heapmd_realloc_events_total counter
heapmd_realloc_events_total{pid="4242",program="sample"} 70
# HELP heapmd_trace_events_total Trace events written to the capture stream.
# TYPE heapmd_trace_events_total counter
heapmd_trace_events_total{pid="4242",program="sample"} 80
# HELP heapmd_scan_passes_total Conservative pointer-scan passes completed.
# TYPE heapmd_scan_passes_total counter
heapmd_scan_passes_total{pid="4242",program="sample"} 90
# HELP heapmd_scan_words_total Words visited by pointer scans.
# TYPE heapmd_scan_words_total counter
heapmd_scan_words_total{pid="4242",program="sample"} 100
# HELP heapmd_scan_edge_writes_total Edge-write deltas emitted by pointer scans.
# TYPE heapmd_scan_edge_writes_total counter
heapmd_scan_edge_writes_total{pid="4242",program="sample"} 110
# HELP heapmd_scan_edge_clears_total Edge-clear deltas emitted by pointer scans.
# TYPE heapmd_scan_edge_clears_total counter
heapmd_scan_edge_clears_total{pid="4242",program="sample"} 120
# HELP heapmd_scan_reclaimed_dead_total Stale live-table extents reclaimed at scan time.
# TYPE heapmd_scan_reclaimed_dead_total counter
heapmd_scan_reclaimed_dead_total{pid="4242",program="sample"} 130
# HELP heapmd_dropped_reentrant_total Allocator events dropped by the reentrancy guard.
# TYPE heapmd_dropped_reentrant_total counter
heapmd_dropped_reentrant_total{pid="4242",program="sample"} 140
# HELP heapmd_flushes_total Capture-stream flush+fsync durability points.
# TYPE heapmd_flushes_total counter
heapmd_flushes_total{pid="4242",program="sample"} 150
# HELP heapmd_metric_points_total Degree-metric samples published by the shim.
# TYPE heapmd_metric_points_total counter
heapmd_metric_points_total{pid="4242",program="sample"} 170
# HELP heapmd_scan_seconds_total Wall-clock seconds spent inside pointer scans.
# TYPE heapmd_scan_seconds_total counter
heapmd_scan_seconds_total{pid="4242",program="sample"} 0.000000
# HELP heapmd_metric_percent Degree-metric percentage from the latest scan (absent until the first scan).
# TYPE heapmd_metric_percent gauge
heapmd_metric_percent{pid="4242",program="sample",metric="Root"} 12.340000
heapmd_metric_percent{pid="4242",program="sample",metric="Indeg=1"} 0.019000
heapmd_metric_percent{pid="4242",program="sample",metric="Indeg=2"} 0.020000
heapmd_metric_percent{pid="4242",program="sample",metric="Leaves"} 0.021000
heapmd_metric_percent{pid="4242",program="sample",metric="Outdeg=1"} 0.022000
heapmd_metric_percent{pid="4242",program="sample",metric="Outdeg=2"} 0.023000
heapmd_metric_percent{pid="4242",program="sample",metric="In=Out"} 0.024000
# HELP heapmd_start_monotonic_ms Writer CLOCK_MONOTONIC at segment creation.
# TYPE heapmd_start_monotonic_ms gauge
heapmd_start_monotonic_ms{pid="4242",program="sample"} 1000
# HELP heapmd_heartbeat_monotonic_ms Writer CLOCK_MONOTONIC at the last publish.
# TYPE heapmd_heartbeat_monotonic_ms gauge
heapmd_heartbeat_monotonic_ms{pid="4242",program="sample"} 2500
)prom";

TEST(ObsvPrometheusTest, ExpositionMatchesGolden)
{
    EXPECT_EQ(renderPrometheus({sampleSnapshot()}), kSampleExposition);
}

TEST(ObsvPrometheusTest, EscapesProgramLabel)
{
    SegmentSnapshot snapshot = sampleSnapshot();
    snapshot.program = "evil\"app\\v1";
    const std::string text = renderPrometheus({snapshot});
    EXPECT_NE(text.find("program=\"evil\\\"app\\\\v1\""),
              std::string::npos)
        << text;
}

TEST(ObsvTopViewTest, RendersEmptyAndLiveSegments)
{
    EXPECT_EQ(renderTop({}, nullptr, 5000),
              "no live heapmd segments in /dev/shm\n");

    const SegmentSnapshot snapshot = sampleSnapshot();
    const std::string view = renderTop({snapshot}, nullptr, 3000);
    EXPECT_NE(view.find("pid 4242"), std::string::npos);
    EXPECT_NE(view.find("sample"), std::string::npos);
    EXPECT_EQ(view.find("[STALE]"), std::string::npos);
    EXPECT_NE(view.find("Root"), std::string::npos) << view;

    // Heartbeat 2500 against now 9000 is 6.5s stale: over the banner
    // threshold.
    const std::string stale = renderTop({snapshot}, nullptr, 9000);
    EXPECT_NE(stale.find("[STALE]"), std::string::npos) << stale;
}

TEST(ObsvTopViewTest, DriftColumnComparesAgainstModel)
{
    HeapModel model;
    model.programName = "sample";
    HeapModel::Entry entry;
    entry.id = MetricId::Roots;
    entry.minValue = 20.0;
    entry.maxValue = 30.0;
    entry.stableRuns = 5;
    model.addEntry(entry);

    // Roots is 12.34% in the sample: below the calibrated range.
    const std::string view =
        renderTop({sampleSnapshot()}, &model, 3000);
    EXPECT_NE(view.find("BELOW [20.0, 30.0]"), std::string::npos)
        << view;
    // Metrics without a model entry render as unstable.
    EXPECT_NE(view.find("unstable"), std::string::npos) << view;
}

#if defined(HEAPMD_DESIGN_MD)
/**
 * DESIGN.md lists every row of the shim's counter catalog: each
 * sidecar name (section 8) and each Prometheus slot family
 * (section 13).  A row added without its docs fails here.
 */
TEST(ObsvCatalogTest, DesignDocListsEveryCatalogName)
{
    std::ifstream in(HEAPMD_DESIGN_MD);
    ASSERT_TRUE(in.is_open()) << HEAPMD_DESIGN_MD;
    const std::string design(std::istreambuf_iterator<char>(in), {});
    std::size_t checked = 0;
    for (const CounterRow &row : kCounterCatalog)
        for (const char *name : {row.sidecar, row.family}) {
            if (name == nullptr)
                continue;
            ++checked;
            EXPECT_NE(design.find(std::string("`") + name + "`"),
                      std::string::npos)
                << name << " is missing from DESIGN.md";
        }
    EXPECT_EQ(checked, 19u + 17u);
}
#endif

} // namespace
