/**
 * @file
 * Tests of the live-capture subsystem: the bootstrap arena and
 * end-to-end preload runs of capture_child under libheapmd_capture.so
 * (paths injected by CMake).  The live table's own tests are in
 * live_table_test.cc, which also builds where the shim cannot.
 *
 * The preload tests assert the shim's core contract: whatever the
 * child does, the recorded trace must audit clean -- zero
 * error-severity trace.* findings -- and replay into a heap graph.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/report.hh"
#include "analysis/trace_lint.hh"
#include "capture/bootstrap_arena.hh"
#include "capture/capture_env.hh"
#include "capture/capture_session.hh"
#include "capture/stats_sidecar.hh"
#include "metrics/metric.hh"
#include "obsv/segment.hh"
#include "runtime/process.hh"
#include "trace/gzip_source.hh"
#include "trace/segment_set.hh"
#include "trace/trace_reader.hh"

namespace heapmd
{

namespace
{

using capture::BootstrapArena;

std::uintptr_t
addrOf(const void *ptr)
{
    return reinterpret_cast<std::uintptr_t>(ptr);
}

// ---------------------------------------------------------------
// BootstrapArena.
// ---------------------------------------------------------------

TEST(BootstrapArenaTest, AlignedBumpAllocation)
{
    alignas(BootstrapArena::kMinAlign) static char buffer[512];
    BootstrapArena arena(buffer, sizeof(buffer));

    void *a = arena.allocate(10);
    void *b = arena.allocate(10);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a, b);
    EXPECT_EQ(addrOf(a) % BootstrapArena::kMinAlign, 0u);
    EXPECT_EQ(addrOf(b) % BootstrapArena::kMinAlign, 0u);
    EXPECT_TRUE(arena.contains(a));
    EXPECT_TRUE(arena.contains(b));
    EXPECT_FALSE(arena.contains(buffer + sizeof(buffer)));
    EXPECT_EQ(arena.allocationCount(), 2u);

    void *wide = arena.allocate(8, 64);
    ASSERT_NE(wide, nullptr);
    EXPECT_EQ(addrOf(wide) % 64, 0u);

    // Exhaustion fails cleanly and permanently for that request.
    EXPECT_EQ(arena.allocate(4096), nullptr);
    EXPECT_NE(arena.allocate(8), nullptr);
}

TEST(BootstrapArenaTest, BytesBeyondBoundsCopiesOutOfBlocks)
{
    alignas(BootstrapArena::kMinAlign) static char buffer[256];
    BootstrapArena arena(buffer, sizeof(buffer));

    void *a = arena.allocate(16);
    void *b = arena.allocate(16);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);

    // From a block start, the bound reaches the end of the handed-out
    // region -- at least the block itself, never past used bytes.
    EXPECT_GE(arena.bytesBeyond(a), 32u);
    EXPECT_LE(arena.bytesBeyond(a), arena.bytesUsed());
    EXPECT_GE(arena.bytesBeyond(b), 16u);
    EXPECT_LT(arena.bytesBeyond(b), arena.bytesBeyond(a));

    // Outside the handed-out region (or the buffer) the bound is 0:
    // the untouched tail and foreign pointers are never readable.
    EXPECT_EQ(arena.bytesBeyond(buffer + arena.bytesUsed()), 0u);
    EXPECT_EQ(arena.bytesBeyond(buffer + sizeof(buffer)), 0u);
    int off_arena = 0;
    EXPECT_EQ(arena.bytesBeyond(&off_arena), 0u);
}

// ---------------------------------------------------------------
// Counter sidecar.
// ---------------------------------------------------------------

TEST(StatsSidecarTest, RoundTripsEveryCatalogRow)
{
    // A distinct value per row, in both stores, so a row that wrote
    // or read another row's counter shows.
    capture::CounterValues values;
    std::uint64_t next = 1000;
    for (std::uint64_t &v : values.slots)
        v = next++;
    for (std::uint64_t &v : values.local)
        v = next++;
    values[obsv::LocalCounter::TraceRawBytes] = ~0ull; // full width

    std::stringstream text;
    capture::writeStatsSidecar(text, values);
    const std::map<std::string, std::uint64_t> read =
        capture::readStatsSidecar(text);

    std::size_t named = 0;
    for (const obsv::CounterRow &row : obsv::kCounterCatalog) {
        if (row.sidecar == nullptr)
            continue;
        ++named;
        ASSERT_EQ(read.count(row.sidecar), 1u) << row.sidecar;
        EXPECT_EQ(read.at(row.sidecar), values[row]) << row.sidecar;
    }
    EXPECT_EQ(named, 19u);
    EXPECT_EQ(read.size(), named); // names are distinct
    EXPECT_EQ(read.at("capture.trace_raw_bytes"), ~0ull);
}

TEST(StatsSidecarTest, SkipsMalformedAndUnknownLines)
{
    std::istringstream text("capture.alloc_events -1\n"
                            "capture.free_events 12abc\n"
                            "capture.realloc_events 7 8\n"
                            "capture.scan_words +4\n"
                            "capture.flushes 18446744073709551616\n"
                            "capture.no_such_counter 5\n"
                            "capture.events_emitted\n"
                            "\n"
                            "capture.scan_passes 3\n"
                            "  capture.scan_ns\t42  \n");
    const std::map<std::string, std::uint64_t> read =
        capture::readStatsSidecar(text);
    const std::map<std::string, std::uint64_t> expected = {
        {"capture.scan_passes", 3}, {"capture.scan_ns", 42}};
    EXPECT_EQ(read, expected);
}

// ---------------------------------------------------------------
// End-to-end preload runs.
// ---------------------------------------------------------------

#if defined(HEAPMD_CAPTURE_SHIM_PATH) && defined(HEAPMD_CAPTURE_CHILD_PATH)

class PreloadCaptureTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        trace_path_ =
            (std::filesystem::temp_directory_path() /
             ("heapmd_capture_test_" + std::to_string(::getpid()) +
              "_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name() +
              ".trace"))
                .string();
    }

    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove(trace_path_, ec);
        std::filesystem::remove(trace_path_ + ".stats", ec);
        for (std::uint64_t index :
             trace::listSegmentIndices(trace_path_))
            std::filesystem::remove(
                trace::resolveSegmentPath(trace_path_, index), ec);
        std::filesystem::remove(
            trace::segmentManifestPath(trace_path_), ec);
        for (const std::string &path : scratch_)
            std::filesystem::remove(path, ec);
    }

    /** Run capture_child in @p mode under the shim. */
    capture::SessionResult
    captureChild(const std::string &mode, std::uint64_t frq = 500,
                 std::uint64_t rotate_bytes = 0,
                 bool compress = false)
    {
        capture::SessionOptions options;
        options.tracePath = trace_path_;
        options.scanFrequency = frq;
        options.shimPath = HEAPMD_CAPTURE_SHIM_PATH;
        options.rotateBytes = rotate_bytes;
        options.compress = compress;
        capture::SessionResult result;
        std::string error;
        const bool ok = capture::runCapture(
            {HEAPMD_CAPTURE_CHILD_PATH, mode}, options, result, error);
        EXPECT_TRUE(ok) << error;
        return result;
    }

    /** Audit the recorded trace. */
    analysis::Report
    audit()
    {
        analysis::Report report;
        analysis::lintTraceFile(trace::LoadedTrace(trace_path_), report);
        return report;
    }

    /** Replay the trace the way `heapmd train --trace` does. */
    void
    replay(Process &process)
    {
        std::ifstream in(trace_path_, std::ios::binary);
        EXPECT_TRUE(in.is_open());
        TraceReader reader(in);
        replayTrace(reader, process);
        EXPECT_FALSE(reader.malformed()) << reader.error();
    }

    /** Config captured traces replay under. */
    static ProcessConfig
    replayConfig()
    {
        ProcessConfig cfg;
        cfg.metricFrequency = 1; // one sample per scan marker
        cfg.tolerateAddressReuse = true;
        return cfg;
    }

    /**
     * Differential oracle of the two segment-set decoders: the set
     * folded in the lint's pass (lintSegmentSet with a TraceFold) and
     * through trace::SegmentChain into a second Process, both under
     * replayConfig(), must agree on the event count, every sample of
     * every metric and the registry's names.
     */
    void
    expectSetFoldsAgree()
    {
        Process linted(replayConfig());
        analysis::Report report;
        const analysis::TraceLintStats stats = analysis::lintSegmentSet(
            trace_path_, report, [&](bool capture) -> Process & {
                EXPECT_TRUE(capture);
                return linted;
            });
        ASSERT_TRUE(report.clean()) << report.describe();

        Process chained(replayConfig());
        trace::SegmentChain chain(trace_path_, {});
        Event event;
        while (chain.next(event))
            chained.onEvent(event);
        ASSERT_FALSE(chain.failed()) << chain.error();
        for (const std::string &name : chain.functionNames())
            chained.registry().intern(name);

        EXPECT_GT(linted.now(), 0u);
        EXPECT_EQ(linted.now(), chained.now());
        EXPECT_EQ(linted.now(), stats.events);
        const std::vector<MetricSample> &a = linted.series().samples();
        const std::vector<MetricSample> &b = chained.series().samples();
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].tick, b[i].tick) << i;
            EXPECT_EQ(a[i].pointIndex, b[i].pointIndex) << i;
            EXPECT_EQ(a[i].vertexCount, b[i].vertexCount) << i;
            EXPECT_EQ(a[i].edgeCount, b[i].edgeCount) << i;
            for (MetricId id : kAllMetrics)
                EXPECT_EQ(a[i].value(id), b[i].value(id))
                    << i << " " << metricName(id);
        }
        ASSERT_EQ(linted.registry().size(), chained.registry().size());
        for (FnId fn = 0; fn < linted.registry().size(); ++fn)
            EXPECT_EQ(linted.registry().name(fn),
                      chained.registry().name(fn));
    }

    /**
     * True when the stats segment of @p result's child is still in
     * /dev/shm.  It must be gone once a capture session has finished:
     * the shim unlinks on atexit and the host reaps after waitpid,
     * whichever path the child died through.  Other captures
     * (parallel tests, other processes on the host) own their
     * segments and are not ours to judge.
     */
    static bool
    segmentLeaked(const capture::SessionResult &result)
    {
        EXPECT_NE(result.pid, 0u) << "capture reported no child pid";
        const std::vector<std::uint32_t> pids = obsv::listSegmentPids();
        return std::find(pids.begin(), pids.end(), result.pid) !=
               pids.end();
    }

#if defined(HEAPMD_CLI_PATH)
    /**
     * Run `heapmd @p args` with stdout and stderr captured; returns
     * the combined output.  The file it goes through is removed at
     * TearDown.
     */
    std::string
    runCli(const std::string &args)
    {
        const std::string log = scratchPath(".log");
        const std::string cmd = std::string("\"") + HEAPMD_CLI_PATH +
                                "\" " + args + " > \"" + log +
                                "\" 2>&1";
        const int status = std::system(cmd.c_str());
        EXPECT_NE(status, -1) << cmd;
        std::ifstream in(log);
        return std::string(std::istreambuf_iterator<char>(in), {});
    }

    /** `heapmd capture` of capture_child @p mode with @p flags. */
    std::string
    cliCapture(const std::string &flags, const std::string &mode)
    {
        return runCli("capture --lib \"" HEAPMD_CAPTURE_SHIM_PATH
                      "\" --out \"" + trace_path_ + "\" " + flags +
                      " -- \"" HEAPMD_CAPTURE_CHILD_PATH "\" " + mode);
    }

    /** A small model trained on an app analogue, for --check. */
    std::string
    checkModel()
    {
        const std::string model = scratchPath(".check.model");
        runCli("train --app gzip --inputs 1 --scale 0.1 --out \"" +
               model + "\"");
        return model;
    }
#endif

    /** A path next to the trace, removed at TearDown. */
    std::string
    scratchPath(const std::string &suffix)
    {
        scratch_.push_back(trace_path_ + suffix);
        return scratch_.back();
    }

    /** The lines of @p text that contain @p needle. */
    static std::vector<std::string>
    linesWith(const std::string &text, const std::string &needle)
    {
        std::vector<std::string> lines;
        std::istringstream in(text);
        for (std::string line; std::getline(in, line);)
            if (line.find(needle) != std::string::npos)
                lines.push_back(line);
        return lines;
    }

    /** Events of each kind in the recorded trace or segment set. */
    struct DecodedCounts
    {
        std::uint64_t total = 0;
        std::uint64_t allocs = 0;
        std::uint64_t frees = 0;
        std::uint64_t reallocs = 0;
        std::uint64_t writes = 0;
        std::uint64_t scanMarkers = 0; //!< FnEnter of the scan marker
    };

    /** Decode the whole capture and count its events by kind. */
    DecodedCounts
    decodeCounts(bool rotating)
    {
        DecodedCounts counts;
        const auto tally = [&counts](const Event &event) {
            ++counts.total;
            switch (event.kind) {
              case EventKind::Alloc: ++counts.allocs; break;
              case EventKind::Free: ++counts.frees; break;
              case EventKind::Realloc: ++counts.reallocs; break;
              case EventKind::Write: ++counts.writes; break;
              case EventKind::FnEnter:
                // The shim interns its scan marker first.
                counts.scanMarkers += event.fn == 0 ? 1 : 0;
                break;
              default: break;
            }
        };
        std::vector<std::string> names;
        Event event;
        if (rotating) {
            trace::SegmentChain chain(trace_path_, {});
            while (chain.next(event))
                tally(event);
            EXPECT_FALSE(chain.failed()) << chain.error();
            names = chain.functionNames();
        } else {
            std::ifstream in(trace_path_, std::ios::binary);
            TraceReader reader(in);
            while (reader.next(event))
                tally(event);
            EXPECT_FALSE(reader.malformed()) << reader.error();
            names = reader.functionNames();
        }
        EXPECT_EQ(names.empty() ? std::string() : names[0],
                  capture::kScanFunctionName);
        return counts;
    }

    /**
     * Differential oracle of the shim's counters: every sidecar
     * counter that has a trace event behind it must equal the count
     * of those events in the decoded capture.
     */
    void
    expectSidecarMatchesTrace(const capture::SessionResult &result,
                              bool rotating)
    {
        const std::map<std::string, std::uint64_t> &c = result.counters;
        const DecodedCounts decoded = decodeCounts(rotating);
        EXPECT_GT(decoded.total, 0u);
        EXPECT_EQ(decoded.allocs, c.at("capture.alloc_events"));
        EXPECT_EQ(decoded.frees, c.at("capture.free_events"));
        EXPECT_EQ(decoded.reallocs, c.at("capture.realloc_events"));
        EXPECT_EQ(decoded.writes, c.at("capture.scan_edge_writes") +
                                      c.at("capture.scan_edge_clears"));
        EXPECT_EQ(decoded.scanMarkers, c.at("capture.scan_passes"));
        EXPECT_EQ(decoded.total, c.at("capture.events_emitted"));
        const std::uint64_t segments =
            rotating ? trace::listSegmentIndices(trace_path_).size() : 1;
        EXPECT_EQ(segments, c.at("capture.segments_rotated") + 1);
    }

    std::string trace_path_;
    std::vector<std::string> scratch_;
};

TEST_F(PreloadCaptureTest, SidecarCountersMatchDecodedTrace)
{
    // basic covers calloc, the aligned allocators and a realloc.
    const capture::SessionResult result = captureChild("basic",
                                                       /*frq=*/50);
    ASSERT_TRUE(result.exited);
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_GT(result.counters.at("capture.realloc_events"), 0u);
    expectSidecarMatchesTrace(result, /*rotating=*/false);
}

TEST_F(PreloadCaptureTest, RotatedSidecarCountersMatchDecodedSet)
{
    const capture::SessionResult result =
        captureChild("storm", /*frq=*/500, /*rotate_bytes=*/65536);
    ASSERT_TRUE(result.exited);
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_GE(result.counters.at("capture.segments_rotated"), 1u);
    expectSidecarMatchesTrace(result, /*rotating=*/true);
}

TEST_F(PreloadCaptureTest, CompressedSidecarCountersMatchDecodedSet)
{
    if (!trace::gzipSupported())
        GTEST_SKIP() << "built without zlib";
    const capture::SessionResult result =
        captureChild("storm", /*frq=*/500, /*rotate_bytes=*/65536,
                     /*compress=*/true);
    ASSERT_TRUE(result.exited);
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_GE(result.counters.at("capture.segments_rotated"), 1u);
    EXPECT_LT(result.counters.at("capture.trace_compressed_bytes"),
              result.counters.at("capture.trace_raw_bytes"));
    expectSidecarMatchesTrace(result, /*rotating=*/true);
}

TEST_F(PreloadCaptureTest, BasicRunAuditsCleanAndReplays)
{
    const capture::SessionResult result = captureChild("basic");
    ASSERT_TRUE(result.exited);
    EXPECT_EQ(result.exitCode, 0);

    const analysis::Report report = audit();
    EXPECT_TRUE(report.clean()) << report.describe();
    EXPECT_EQ(report.errorCount(), 0u) << report.describe();

    ASSERT_NE(result.counters.count("capture.alloc_events"), 0u);
    EXPECT_GT(result.counters.at("capture.alloc_events"), 200u);
    EXPECT_GT(result.counters.at("capture.free_events"), 0u);
    EXPECT_GE(result.counters.at("capture.scan_passes"), 1u);

    std::ifstream in(trace_path_, std::ios::binary);
    TraceReader reader(in);
    EXPECT_TRUE(reader.captureProvenance());

    Process replayed(replayConfig());
    replay(replayed);
    // One metric sample per conservative scan pass.
    EXPECT_EQ(replayed.series().size(),
              result.counters.at("capture.scan_passes"));
}

TEST_F(PreloadCaptureTest, LeakedListEdgesRecoveredByFinalScan)
{
    // Scan frequency far above the child's allocation count: the
    // only pass is the finalize-time one, which must still recover
    // the leaked 128-node chain.
    const capture::SessionResult result =
        captureChild("leak", /*frq=*/1u << 30);
    ASSERT_TRUE(result.exited);
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_EQ(result.counters.at("capture.scan_passes"), 1u);
    EXPECT_GE(result.counters.at("capture.scan_edge_writes"), 100u);

    EXPECT_TRUE(audit().clean());
    Process replayed(replayConfig());
    replay(replayed);
    EXPECT_GE(replayed.graph().edgeCount(), 100u);
}

TEST_F(PreloadCaptureTest, MovedReallocLeavesNoPhantomEdge)
{
    // Each moved node's copied pointer into b was overwritten with
    // NULL, mostly before any scan ran after the move; the scan after
    // the overwrite must still clear the edge the graph carried over.
    const capture::SessionResult result =
        captureChild("realloc", /*frq=*/4);
    ASSERT_TRUE(result.exited);
    ASSERT_EQ(result.exitCode, 0) << "a realloc did not move";
    EXPECT_TRUE(audit().clean());

    Process replayed(replayConfig());
    replay(replayed);
    std::size_t moved = 0;
    replayed.graph().forEachObject([&moved](const ObjectRecord &rec) {
        if (rec.size != 200000)
            return;
        ++moved;
        EXPECT_EQ(rec.outdegree(), 0u)
            << "phantom edge from the moved object at " << rec.addr;
    });
    EXPECT_EQ(moved, 4u);
}

TEST_F(PreloadCaptureTest, MultithreadedStormStaysLintClean)
{
    const capture::SessionResult result = captureChild("storm",
                                                       /*frq=*/5000);
    ASSERT_TRUE(result.exited);
    EXPECT_EQ(result.exitCode, 0);

    const analysis::Report report = audit();
    EXPECT_TRUE(report.clean()) << report.describe();
    // 4 threads x 20k iterations: a real amount of traffic got
    // recorded even though reentrant shim internals are dropped.
    EXPECT_GT(result.counters.at("capture.alloc_events"), 10000u);
    EXPECT_GT(result.counters.at("capture.free_events"), 10000u);
}

TEST_F(PreloadCaptureTest, UnderscoreExitLeavesReadableTruncatedTrace)
{
    const capture::SessionResult result = captureChild("exit");
    ASSERT_TRUE(result.exited);
    EXPECT_EQ(result.exitCode, 2);

    // atexit never ran: no footer.  Capture provenance downgrades
    // that to a warning; there must be no error-severity findings.
    const analysis::Report report = audit();
    EXPECT_TRUE(report.clean()) << report.describe();
    EXPECT_TRUE(report.has("trace.no-footer")) << report.describe();
}

TEST_F(PreloadCaptureTest, ChildExitCodeIsReported)
{
    const capture::SessionResult result = captureChild("fail");
    ASSERT_TRUE(result.exited);
    EXPECT_EQ(result.exitCode, 3);
    EXPECT_TRUE(audit().clean());
}

TEST_F(PreloadCaptureTest, ForkedChildExitDoesNotCorruptTrace)
{
    // The grandchild inherits the shim, the trace fd, AND the atexit
    // finalizer, then terminates via exit(): the atfork handler's
    // disable must keep that finalizer away from the shared stream
    // (and the cloned mutex).  A finalizer that runs anyway plants a
    // footer mid-stream, truncating the trace at the fork point; the
    // low scan frequency makes the parent's post-fork workload take
    // several more passes, so the full stream is distinguishable
    // from a truncated one by the scan/alloc totals.
    const capture::SessionResult result = captureChild("fork",
                                                       /*frq=*/50);
    ASSERT_TRUE(result.exited);
    EXPECT_EQ(result.exitCode, 0);

    const analysis::Report report = audit();
    EXPECT_TRUE(report.clean()) << report.describe();
    EXPECT_EQ(report.errorCount(), 0u) << report.describe();
    // atexit DID run (in the parent): the footer must be present.
    EXPECT_FALSE(report.has("trace.no-footer")) << report.describe();

    ASSERT_GE(result.counters.at("capture.scan_passes"), 3u);
    Process replayed(replayConfig());
    replay(replayed);
    EXPECT_EQ(replayed.series().size(),
              result.counters.at("capture.scan_passes"));
}

// ---------------------------------------------------------------
// Stats-segment lifecycle: no /dev/shm leaks, whatever the exit path.
// ---------------------------------------------------------------

TEST_F(PreloadCaptureTest, SegmentUnlinkedAfterCleanExit)
{
    const capture::SessionResult result = captureChild("basic");
    ASSERT_TRUE(result.exited);
    EXPECT_FALSE(segmentLeaked(result));
}

TEST_F(PreloadCaptureTest, SegmentUnlinkedAfterStorm)
{
    const capture::SessionResult result = captureChild("storm",
                                                       /*frq=*/5000);
    ASSERT_TRUE(result.exited);
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_FALSE(segmentLeaked(result));
}

TEST_F(PreloadCaptureTest, SegmentUnlinkedWhenAtexitIsSkipped)
{
    // _exit(2) skips the shim's atexit unlink; the host side of
    // runCapture must reap the child's segment after waitpid.
    const capture::SessionResult result = captureChild("exit");
    ASSERT_TRUE(result.exited);
    EXPECT_FALSE(segmentLeaked(result));
}

TEST_F(PreloadCaptureTest, ForkedChildDoesNotUnlinkParentSegment)
{
    // The forked grandchild inherits the segment mapping and exits
    // via exit(): its finalizer must go dark, NOT unlink the
    // parent's live segment.  A successful fork-mode run that leaves
    // no leaked segment proves both halves: the parent's own unlink
    // still worked, and nothing double-unlinked mid-run (the trace
    // stayed clean, checked by ForkedChildExitDoesNotCorruptTrace).
    const capture::SessionResult result = captureChild("fork",
                                                       /*frq=*/50);
    ASSERT_TRUE(result.exited);
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_FALSE(segmentLeaked(result));
}

// ---------------------------------------------------------------
// Segment rotation: the rotating-trace protocol end to end.
// ---------------------------------------------------------------

TEST_F(PreloadCaptureTest, RotatedStormAuditsCleanAcrossSegments)
{
    const capture::SessionResult result =
        captureChild("storm", /*frq=*/500, /*rotate_bytes=*/65536);
    ASSERT_TRUE(result.exited);
    EXPECT_EQ(result.exitCode, 0);
    // The storm writes megabytes of events: the threshold must have
    // tripped repeatedly.
    ASSERT_GE(result.segmentPaths.size(), 2u);

    // The set lints clean as one logical trace.  This is also the
    // no-split-records check: rotation happens only between recorded
    // allocator operations, so a record cut in half at a boundary
    // would lose framing and surface as an error finding.
    analysis::Report report;
    const analysis::TraceLintStats stats =
        analysis::lintSegmentSet(trace_path_, report);
    EXPECT_TRUE(report.clean()) << report.describe();
    EXPECT_EQ(report.errorCount(), 0u) << report.describe();
    EXPECT_EQ(stats.segments, result.segmentPaths.size());
    EXPECT_TRUE(stats.captureProvenance);

    // An orderly shutdown closes the manifest.
    trace::SegmentManifest manifest;
    ASSERT_TRUE(trace::loadSegmentManifest(
        trace::segmentManifestPath(trace_path_), manifest));
    EXPECT_TRUE(manifest.closed);
    EXPECT_EQ(manifest.segments, result.segmentPaths.size());

    // The chain replays the set as one continuous stream: live
    // state carries across boundaries, and the sample count matches
    // the shim's own scan-pass counter exactly as it does for a
    // monolithic trace.
    trace::SegmentChain chain(trace_path_, {});
    Process replayed(replayConfig());
    Event event;
    while (chain.next(event))
        replayed.onEvent(event);
    EXPECT_FALSE(chain.failed()) << chain.error();
    EXPECT_FALSE(chain.sawTruncatedTail());
    EXPECT_EQ(chain.segmentsConsumed(), result.segmentPaths.size());
    EXPECT_EQ(chain.eventsDecoded(), stats.events);
    EXPECT_EQ(replayed.series().size(),
              result.counters.at("capture.scan_passes"));
    expectSetFoldsAgree();
}

TEST_F(PreloadCaptureTest, RotatedUnderscoreExitTruncatesOnlyTheTail)
{
    // _exit(2) skips the shim's atexit: the newest segment ends
    // without a footer.  Invariant 1 of the rotation protocol says
    // that is the ONLY segment allowed to be cut short, and capture
    // provenance downgrades the cut to a warning.
    const capture::SessionResult result =
        captureChild("exit", /*frq=*/2, /*rotate_bytes=*/512);
    ASSERT_TRUE(result.exited);
    EXPECT_EQ(result.exitCode, 2);
    ASSERT_GE(result.segmentPaths.size(), 1u);

    analysis::Report report;
    analysis::lintSegmentSet(trace_path_, report);
    EXPECT_TRUE(report.clean()) << report.describe();
    EXPECT_EQ(report.errorCount(), 0u) << report.describe();

    trace::SegmentChain chain(trace_path_, {});
    Event event;
    while (chain.next(event))
        ;
    EXPECT_FALSE(chain.failed()) << chain.error();
    EXPECT_TRUE(chain.sawTruncatedTail());
    EXPECT_EQ(chain.segmentsConsumed(), result.segmentPaths.size());
    expectSetFoldsAgree();
}

TEST_F(PreloadCaptureTest, RotationCountsBytesTheWriterStillHolds)
{
    // No scan until the final one, so every op before it records at
    // most a few short records: a segment closes within one op's
    // burst past the threshold, whether the writer's encode block
    // has drained or not.
    constexpr std::uint64_t kRotate = 512;
    constexpr std::uint64_t kOpBurst = 64; // two 31-byte records + slack
    const capture::SessionResult result = captureChild(
        "basic", /*frq=*/1000000000, /*rotate_bytes=*/kRotate);
    ASSERT_TRUE(result.exited);
    EXPECT_EQ(result.exitCode, 0);
    const std::vector<std::uint64_t> indices =
        trace::listSegmentIndices(trace_path_);
    ASSERT_GE(indices.size(), 3u);

    std::uint64_t total = 0;
    for (std::size_t i = 0; i < indices.size(); ++i) {
        const std::string path =
            trace::resolveSegmentPath(trace_path_, indices[i]);
        total += std::filesystem::file_size(path);
        if (i + 1 == indices.size())
            break; // the newest segment closes at exit, not rotation
        // The bytes before the footer are what the rotation check saw.
        std::ifstream in(path, std::ios::binary);
        TraceReader reader(in);
        Event event;
        while (reader.next(event))
            ;
        ASSERT_TRUE(reader.sawFooter()) << path;
        EXPECT_GE(reader.eventOffset(), kRotate) << path;
        EXPECT_LT(reader.eventOffset(), kRotate + kOpBurst) << path;
    }

    trace::SegmentManifest manifest;
    ASSERT_TRUE(trace::loadSegmentManifest(
        trace::segmentManifestPath(trace_path_), manifest));
    EXPECT_TRUE(manifest.closed);
    EXPECT_EQ(manifest.segments, indices.size());
    EXPECT_EQ(manifest.rawBytes, total);
    EXPECT_EQ(manifest.compressedBytes, total);
}

#if defined(HEAPMD_CLI_PATH)

TEST_F(PreloadCaptureTest, TrainAndCheckWarnCutShortOnce)
{
    // One replay feeds both --train-out and --check, so a cut-short
    // trace is one warning, not one per consumer.
    const std::string model = checkModel();
    const std::string out = cliCapture(
        "--frq 2 --train-out \"" + scratchPath(".train.model") +
            "\" --check \"" + model + "\"",
        "exit");
    const std::vector<std::string> warnings =
        linesWith(out, "malformed trace: ");
    ASSERT_EQ(warnings.size(), 1u) << out;
    EXPECT_NE(warnings[0].find("[trace.no-footer]; replayed "),
              std::string::npos)
        << out;
}

TEST_F(PreloadCaptureTest, RotatedCaptureWarnsCutShortLikeMonolithic)
{
    const std::string model = checkModel();
    const std::string check = "--check \"" + model + "\"";

    // At the default scan frequency the child dies before its first
    // scan: one segment holding only the header, whose warning must
    // read exactly like the monolithic trace's.
    const std::vector<std::string> whole =
        linesWith(cliCapture(check, "exit"), "malformed trace: ");
    const std::string out =
        cliCapture("--rotate-bytes 512 " + check, "exit");
    const std::vector<std::string> rotated =
        linesWith(out, "malformed trace: ");
    ASSERT_EQ(whole.size(), 1u);
    ASSERT_EQ(rotated.size(), 1u) << out;
    EXPECT_EQ(rotated[0], whole[0]);

    // With scans, the set spans segments and the warning still comes
    // once, counting every event the set replayed.
    const std::string spanning =
        cliCapture("--frq 2 --rotate-bytes 512 " + check, "exit");
    const std::vector<std::string> warnings =
        linesWith(spanning, "malformed trace: ");
    ASSERT_EQ(warnings.size(), 1u) << spanning;
    const std::vector<std::string> audit =
        linesWith(spanning, "trace audit clean: ");
    ASSERT_EQ(audit.size(), 1u) << spanning;
    unsigned long long bytes = 0, events = 0, segments = 0;
    ASSERT_EQ(std::sscanf(audit[0].c_str(),
                          "trace audit clean: %llu bytes, %llu events, "
                          "%llu segment(s)",
                          &bytes, &events, &segments),
              3)
        << audit[0];
    EXPECT_GE(segments, 2u) << spanning;
    EXPECT_NE(warnings[0].find("; replayed " + std::to_string(events) +
                               " events"),
              std::string::npos)
        << spanning;
    // The byte offset is within the cut segment, the set's newest,
    // so the warning names that segment's file.
    const std::string cut =
        std::filesystem::path(trace::segmentPath(trace_path_, segments - 1))
            .filename()
            .string();
    EXPECT_NE(warnings[0].find("malformed trace: " + cut + ": stream "),
              std::string::npos)
        << spanning;
}

#endif // HEAPMD_CLI_PATH

TEST_F(PreloadCaptureTest, MissingSegmentIsAGapError)
{
    const capture::SessionResult result =
        captureChild("storm", /*frq=*/500, /*rotate_bytes=*/65536);
    ASSERT_TRUE(result.exited);
    ASSERT_GE(result.segmentPaths.size(), 3u);

    // Lose a middle segment (an operator deleting "old" files from
    // under a set, a botched copy).  The audit must name the gap as
    // an error, not silently lint the survivors as a shorter run.
    std::filesystem::remove(
        trace::segmentPath(trace_path_,
                           result.segmentPaths.size() / 2));
    analysis::Report report;
    analysis::lintSegmentSet(trace_path_, report);
    EXPECT_FALSE(report.clean());
    EXPECT_TRUE(report.has("trace.segment-gap"))
        << report.describe();
    EXPECT_GT(report.errorCount(), 0u) << report.describe();

    // The chaining reader refuses the broken set too.
    trace::SegmentChain chain(trace_path_, {});
    Event event;
    while (chain.next(event))
        ;
    EXPECT_TRUE(chain.failed());
}

// ---------------------------------------------------------------
// Gzip segment compression: the compressed set must behave exactly
// like a plain one through audit and replay.
// ---------------------------------------------------------------

TEST_F(PreloadCaptureTest, CompressedSegmentsRoundTripEndToEnd)
{
    if (!trace::gzipSupported())
        GTEST_SKIP() << "built without zlib";

    const capture::SessionResult result =
        captureChild("storm", /*frq=*/500, /*rotate_bytes=*/65536,
                     /*compress=*/true);
    ASSERT_TRUE(result.exited);
    EXPECT_EQ(result.exitCode, 0);
    ASSERT_GE(result.segmentPaths.size(), 2u);

    // The files on disk are the gz flavor -- and smaller than the
    // raw bytes the manifest accounts for.
    for (std::uint64_t index :
         trace::listSegmentIndices(trace_path_)) {
        const std::string on_disk =
            trace::resolveSegmentPath(trace_path_, index);
        EXPECT_TRUE(trace::isGzipPath(on_disk)) << on_disk;
    }
    trace::SegmentManifest manifest;
    ASSERT_TRUE(trace::loadSegmentManifest(
        trace::segmentManifestPath(trace_path_), manifest));
    EXPECT_TRUE(manifest.closed);
    EXPECT_TRUE(manifest.compress);
    EXPECT_GT(manifest.rawBytes, 0u);
    EXPECT_GT(manifest.compressedBytes, 0u);
    EXPECT_LT(manifest.compressedBytes, manifest.rawBytes);

    // The lint pass decodes transparently and sees the same logical
    // trace a plain run would produce.
    analysis::Report report;
    const analysis::TraceLintStats stats =
        analysis::lintSegmentSet(trace_path_, report);
    EXPECT_TRUE(report.clean()) << report.describe();
    EXPECT_EQ(stats.segments, result.segmentPaths.size());
    EXPECT_TRUE(stats.captureProvenance);

    // So does the chaining replay: same sample count as the shim's
    // own scan-pass counter, exactly like the uncompressed test.
    trace::SegmentChain chain(trace_path_, {});
    Process replayed(replayConfig());
    Event event;
    while (chain.next(event))
        replayed.onEvent(event);
    EXPECT_FALSE(chain.failed()) << chain.error();
    EXPECT_FALSE(chain.sawTruncatedTail());
    EXPECT_EQ(chain.segmentsConsumed(), result.segmentPaths.size());
    EXPECT_EQ(chain.eventsDecoded(), stats.events);
    EXPECT_EQ(replayed.series().size(),
              result.counters.at("capture.scan_passes"));
    expectSetFoldsAgree();
}

TEST_F(PreloadCaptureTest, CompressedUnderscoreExitKeepsDecodablePrefix)
{
    if (!trace::gzipSupported())
        GTEST_SKIP() << "built without zlib";

    // _exit(2) skips Z_FINISH on the newest segment; the sync-flushed
    // prefix must still decode, with only the tail truncated -- same
    // durability contract as the plain rotation protocol.
    const capture::SessionResult result =
        captureChild("exit", /*frq=*/2, /*rotate_bytes=*/512,
                     /*compress=*/true);
    ASSERT_TRUE(result.exited);
    EXPECT_EQ(result.exitCode, 2);
    ASSERT_GE(result.segmentPaths.size(), 1u);

    analysis::Report report;
    analysis::lintSegmentSet(trace_path_, report);
    EXPECT_TRUE(report.clean()) << report.describe();
    EXPECT_EQ(report.errorCount(), 0u) << report.describe();

    trace::SegmentChain chain(trace_path_, {});
    Event event;
    std::uint64_t events = 0;
    while (chain.next(event))
        ++events;
    EXPECT_FALSE(chain.failed()) << chain.error();
    EXPECT_TRUE(chain.sawTruncatedTail());
    EXPECT_GT(events, 0u);
}

#endif // HEAPMD_CAPTURE_SHIM_PATH && HEAPMD_CAPTURE_CHILD_PATH

} // namespace

} // namespace heapmd
