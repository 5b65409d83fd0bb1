/**
 * @file
 * Tests of the static artifact auditors (src/analysis/).
 *
 * The trace linter runs over the seeded-defect corpus in tests/data/
 * (regenerate with gen_corpus.py); the model and graph linters run
 * over documents built in-test.  Every rule id in the DESIGN.md
 * catalog is covered by at least one test, and artifacts produced by
 * a clean pipeline run must audit with zero findings.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string_view>

#if HEAPMD_HAVE_ZLIB
#include <zlib.h>
#endif

#include "analysis/flow_lint.hh"
#include "analysis/graph_lint.hh"
#include "analysis/model_lint.hh"
#include "analysis/trace_lint.hh"
#include "core/heapmd.hh"
#include "faults/fault_plan.hh"
#include "heapgraph/graph_snapshot.hh"
#include "model/model.hh"
#include "runtime/process.hh"
#include "telemetry/registry.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_source.hh"
#include "trace/trace_writer.hh"

namespace heapmd
{

namespace
{

using analysis::Report;
using analysis::Severity;

std::string
corpusPath(const std::string &name)
{
    return std::string(HEAPMD_TEST_DATA_DIR) + "/" + name;
}

Report
lintCorpus(const std::string &name)
{
    Report report;
    analysis::lintTraceFile(trace::LoadedTrace(corpusPath(name)), report);
    return report;
}

// --- Report ---------------------------------------------------------

TEST(ReportTest, CountsAndDescribe)
{
    Report report;
    EXPECT_TRUE(report.clean());
    report.errorAtByte("trace.bad-magic", 0, "boom");
    report.warningAtLine("model.syntax", 7, "odd");
    report.note("trace.io", "fyi");
    EXPECT_FALSE(report.clean());
    EXPECT_EQ(report.errorCount(), 1u);
    EXPECT_EQ(report.warningCount(), 1u);
    EXPECT_EQ(report.noteCount(), 1u);
    EXPECT_TRUE(report.has("trace.bad-magic"));
    EXPECT_FALSE(report.has("trace.varint-overlong"));

    const std::string text = report.describe();
    EXPECT_NE(text.find("error trace.bad-magic @byte 0: boom"),
              std::string::npos);
    EXPECT_NE(text.find("warning model.syntax @line 7: odd"),
              std::string::npos);
    EXPECT_NE(text.find("1 error(s), 1 warning(s), 1 note(s)"),
              std::string::npos);
}

TEST(ReportTest, CapsFindingsButKeepsCounting)
{
    Report report(3);
    for (int i = 0; i < 10; ++i)
        report.error("trace.free-before-alloc", "finding");
    EXPECT_EQ(report.findings().size(), 3u);
    EXPECT_EQ(report.errorCount(), 10u);
    EXPECT_TRUE(report.truncated());
}

// --- Trace linter over the seeded corpus ----------------------------

struct CorpusCase
{
    const char *file;
    const char *rule;
};

// gtest's default printer dumps the two pointers, and ASLR moves them
// on every run, so the test list (and each ctest name discovered from
// it) would change between builds. Print the expected rule instead,
// without the "trace." prefix every corpus rule shares.
void
PrintTo(const CorpusCase &c, std::ostream *os)
{
    const std::string_view rule = c.rule;
    *os << rule.substr(rule.find('.') + 1);
}

class TraceCorpusTest : public ::testing::TestWithParam<CorpusCase>
{
};

TEST_P(TraceCorpusTest, SeededDefectIsDetected)
{
    const Report report = lintCorpus(GetParam().file);
    EXPECT_FALSE(report.clean()) << GetParam().file;
    EXPECT_TRUE(report.has(GetParam().rule))
        << GetParam().file << " expected " << GetParam().rule
        << " in:\n"
        << report.describe();
}

INSTANTIATE_TEST_SUITE_P(
    Seeded, TraceCorpusTest,
    ::testing::Values(
        CorpusCase{"bad_magic.trace", "trace.bad-magic"},
        CorpusCase{"bad_version.trace", "trace.bad-version"},
        CorpusCase{"truncated_varint.trace",
                   "trace.varint-truncated"},
        CorpusCase{"overlong_varint.trace", "trace.varint-overlong"},
        CorpusCase{"missing_footer.trace", "trace.no-footer"},
        CorpusCase{"footer_truncated.trace",
                   "trace.footer-truncated"},
        CorpusCase{"footer_name_overflow.trace",
                   "trace.footer-truncated"},
        CorpusCase{"unknown_tag.trace", "trace.unknown-tag"},
        CorpusCase{"fn_id_gap.trace", "trace.fn-id-range"},
        CorpusCase{"free_before_alloc.trace",
                   "trace.free-before-alloc"},
        CorpusCase{"write_after_free.trace",
                   "trace.write-after-free"},
        CorpusCase{"alloc_overlap.trace", "trace.alloc-overlap"},
        CorpusCase{"zero_alloc.trace", "trace.zero-alloc"}),
    [](const auto &info) {
        std::string name = info.param.file;
        return name.substr(0, name.find('.'));
    });

TEST(TraceLintTest, CleanCorpusTraceHasZeroFindings)
{
    const Report report = lintCorpus("clean.trace");
    EXPECT_TRUE(report.clean()) << report.describe();
    EXPECT_TRUE(report.findings().empty()) << report.describe();
}

TEST(TraceLintTest, TrailingBytesIsAWarningOnly)
{
    const Report report = lintCorpus("trailing_bytes.trace");
    EXPECT_TRUE(report.clean()) << report.describe();
    EXPECT_TRUE(report.has("trace.trailing-bytes"));
}

TEST(TraceLintTest, MissingFileIsAnIoFinding)
{
    Report report;
    analysis::lintTraceFile(
        trace::LoadedTrace(corpusPath("does_not_exist.trace")), report);
    EXPECT_TRUE(report.has("trace.io"));
}

TEST(TraceLintTest, FindingsCarryByteOffsets)
{
    const Report report = lintCorpus("free_before_alloc.trace");
    ASSERT_EQ(report.findings().size(), 1u);
    const analysis::Finding &f = report.findings()[0];
    EXPECT_EQ(f.locationKind, analysis::LocationKind::Byte);
    EXPECT_EQ(f.location, 8u); // first event, right after the header
}

TEST(TraceLintTest, LintersLeaveDecodeCountersAlone)
{
    // Both linters decode through TraceReader, but only replay's
    // decodes count toward trace.events_decoded and trace.malformed.
    telemetry::Registry &registry = telemetry::Registry::instance();
    telemetry::Counter &decoded = registry.counter("trace.events_decoded");
    telemetry::Counter &malformed = registry.counter("trace.malformed");
    const std::uint64_t decoded_before = decoded.value();
    const std::uint64_t malformed_before = malformed.value();
    for (const char *name : {"clean.trace", "missing_footer.trace",
                             "overlong_varint.trace", "bad_magic.trace"}) {
        const trace::LoadedTrace trace(corpusPath(name));
        Report report;
        analysis::lintTraceFile(trace, report);
        analysis::FlowAnalysis flow;
        analysis::lintTraceFile(trace, report, {}, &flow);
    }
    EXPECT_EQ(decoded.value(), decoded_before);
    EXPECT_EQ(malformed.value(), malformed_before);
}

TEST(TraceLintTest, WriterOutputAuditsClean)
{
    FunctionRegistry registry;
    const FnId fn = registry.intern("worker");
    std::stringstream ss;
    TraceWriter writer(ss, registry);
    Tick tick = 0;
    writer.onEvent(Event::fnEnter(fn), ++tick);
    writer.onEvent(Event::alloc(0x1000, 64), ++tick);
    writer.onEvent(Event::write(0x1000, 0x1000), ++tick);
    writer.onEvent(Event::free(0x1000), ++tick);
    writer.onEvent(Event::fnExit(fn), ++tick);
    writer.finish();

    Report report;
    const analysis::TraceLintStats stats =
        analysis::lintTrace(ss.str(), report);
    EXPECT_TRUE(report.findings().empty()) << report.describe();
    EXPECT_EQ(stats.events, 5u);
    EXPECT_EQ(stats.functions, 1u);
}

TEST(TraceLintTest, AddressReuseAfterFreeIsNotAUseAfterFree)
{
    std::stringstream ss;
    FunctionRegistry registry;
    TraceWriter writer(ss, registry);
    writer.onEvent(Event::alloc(0x1000, 64), 1);
    writer.onEvent(Event::free(0x1000), 2);
    writer.onEvent(Event::alloc(0x1000, 32), 3); // reuse is legal
    writer.onEvent(Event::write(0x1008, 0x1000), 4);
    writer.finish();

    Report report;
    analysis::lintTrace(ss.str(), report);
    EXPECT_TRUE(report.findings().empty()) << report.describe();
}

TEST(TraceLintTest, RejectedAllocationStillRecyclesFreedExtents)
{
    // An allocation overlapping a live extent is rejected, but the
    // freed extents it overlaps are recycled all the same: a later
    // write there is not a use after free.
    std::stringstream ss;
    FunctionRegistry registry;
    TraceWriter writer(ss, registry);
    writer.onEvent(Event::alloc(0x1000, 64), 1);
    writer.onEvent(Event::free(0x1000), 2);
    writer.onEvent(Event::alloc(0x1040, 64), 3);
    writer.onEvent(Event::alloc(0x1020, 64), 4); // freed + live
    writer.onEvent(Event::write(0x1008, 0), 5);
    writer.onEvent(Event::write(0x1060, 0), 6);
    writer.onEvent(Event::free(0x1040), 7);
    writer.finish();

    Report report;
    analysis::lintTrace(ss.str(), report);
    ASSERT_EQ(report.findings().size(), 1u) << report.describe();
    EXPECT_TRUE(report.has("trace.alloc-overlap"));
}

TEST(TraceLintTest, FoldGetsEventsOnlyWhileTheReportIsClean)
{
    // The lint pass feeds a replay from its own decode.  Events before
    // the first error reach the fold; the overlapping allocation,
    // which would panic the heap graph, and every event after it do
    // not.
    std::stringstream ss;
    FunctionRegistry registry;
    const FnId fn = registry.intern("worker");
    TraceWriter writer(ss, registry);
    writer.onEvent(Event::fnEnter(fn), 1);
    writer.onEvent(Event::alloc(0x1000, 64), 2);
    writer.onEvent(Event::alloc(0x1020, 64), 3); // overlaps a live one
    writer.onEvent(Event::free(0x1000), 4);
    writer.finish();

    Process process;
    Report report;
    const analysis::TraceLintStats stats = analysis::lintTrace(
        ss.str(), report, [&](bool) -> Process & { return process; });
    EXPECT_TRUE(report.has("trace.alloc-overlap"));
    EXPECT_EQ(stats.events, 4u);
    EXPECT_EQ(process.now(), 2u);
    EXPECT_EQ(process.graph().vertexCount(), 1u);
    EXPECT_EQ(process.registry().size(), 1u);
}

TEST(TraceLintTest, FoldMatchesReplayOnACleanTrace)
{
    ProcessConfig pcfg;
    pcfg.metricFrequency = 50;
    std::stringstream ss;
    {
        Process recorder(pcfg);
        TraceWriter writer(ss, recorder.registry());
        recorder.addEventObserver(&writer);
        AppConfig cfg;
        cfg.inputSeed = 5;
        cfg.scale = 0.1;
        makeApp("vpr")->run(recorder, cfg);
        writer.finish();
    }
    const std::string bytes = ss.str();

    Process replayed(pcfg);
    std::istringstream in(bytes);
    TraceReader reader(in);
    const std::uint64_t events = replayTrace(reader, replayed);

    Process folded(pcfg);
    Report report;
    const analysis::TraceLintStats stats = analysis::lintTrace(
        bytes, report, [&](bool) -> Process & { return folded; });
    EXPECT_TRUE(report.findings().empty()) << report.describe();
    EXPECT_EQ(folded.now(), events);
    EXPECT_TRUE(stats.malformed.empty());
    EXPECT_EQ(folded.registry().size(), replayed.registry().size());

    const auto &a = replayed.series().samples();
    const auto &b = folded.series().samples();
    ASSERT_EQ(a.size(), b.size());
    ASSERT_GT(a.size(), 2u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].tick, b[i].tick);
        for (MetricId id : kAllMetrics)
            EXPECT_EQ(a[i].value(id), b[i].value(id)) << i;
    }
}

/** Everything one deep, folded pass over a trace yields. */
struct DeepPass
{
    analysis::TraceLintStats stats;
    std::string report;
    std::vector<std::string> flow;
    std::uint64_t folded = 0;
    std::size_t samples = 0;
};

DeepPass
deepPass(const std::function<analysis::TraceLintStats(
             Report &, const analysis::TraceFold &,
             analysis::FlowAnalysis *)> &lint)
{
    ProcessConfig pcfg;
    pcfg.metricFrequency = 300;
    Process process(pcfg);
    Report report;
    analysis::FlowAnalysis flow;
    DeepPass pass;
    pass.stats =
        lint(report, [&](bool) -> Process & { return process; }, &flow);
    pass.report = report.describe();
    for (const analysis::FlowFinding &f : flow.findings)
        pass.flow.push_back(f.rule + " @" + std::to_string(f.byteOffset) +
                            ": " + f.message);
    pass.folded = process.now();
    pass.samples = process.series().samples().size();
    return pass;
}

void
expectSamePass(const DeepPass &a, const DeepPass &b)
{
    EXPECT_EQ(a.stats.bytes, b.stats.bytes);
    EXPECT_EQ(a.stats.events, b.stats.events);
    EXPECT_EQ(a.stats.functions, b.stats.functions);
    EXPECT_EQ(a.stats.captureProvenance, b.stats.captureProvenance);
    EXPECT_EQ(a.stats.malformed, b.stats.malformed);
    EXPECT_EQ(a.report, b.report);
    EXPECT_EQ(a.flow, b.flow);
    EXPECT_EQ(a.folded, b.folded);
    EXPECT_EQ(a.samples, b.samples);
}

TEST(TraceLintTest, ReleasingDecodedPagesKeepsTheBytesAndTheVerdict)
{
    // A file pass releases the pages behind its cursor once per MiB.
    // The loaded bytes must read back unchanged, from a mapped file
    // and from an inflated gzip copy alike, and the pass must see
    // what a pass over an in-memory copy sees.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("heapmd_release_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const std::string plain = (dir / "leak.trace").string();
    {
        Process recorder;
        std::ofstream out(plain, std::ios::binary);
        TraceWriter writer(out, recorder.registry());
        recorder.addEventObserver(&writer);
        AppConfig cfg;
        cfg.inputSeed = 1;
        cfg.scale = 0.8;
        cfg.faults.enable(faultKindFromName("small-leak"), 0.05);
        makeApp("Multimedia")->run(recorder, cfg);
        writer.finish();
    }
    std::string bytes;
    {
        std::ifstream in(plain, std::ios::binary);
        std::ostringstream all;
        all << in.rdbuf();
        bytes = all.str();
    }
    ASSERT_GE(bytes.size(), std::size_t{3} << 20);

    const DeepPass memory = deepPass(
        [&](Report &report, const analysis::TraceFold &fold,
            analysis::FlowAnalysis *flow) {
            const analysis::TraceLintStats stats =
                analysis::lintTrace(bytes, report, fold, flow);
            for (const analysis::FlowFinding &f : flow->findings)
                report.atByte(f.severity, f.rule, f.byteOffset,
                              f.message);
            return stats;
        });
    EXPECT_FALSE(memory.flow.empty());
    EXPECT_GT(memory.folded, 0u);

    std::vector<std::string> paths = {plain};
#if HEAPMD_HAVE_ZLIB
    const std::string gz = (dir / "leak.heapmd.gz").string();
    {
        gzFile out = gzopen(gz.c_str(), "wb");
        ASSERT_NE(out, nullptr);
        ASSERT_EQ(gzwrite(out, bytes.data(),
                          static_cast<unsigned>(bytes.size())),
                  static_cast<int>(bytes.size()));
        ASSERT_EQ(gzclose(out), Z_OK);
    }
    paths.push_back(gz);
#endif
    for (const std::string &path : paths) {
        SCOPED_TRACE(path);
        const trace::LoadedTrace trace(path);
        ASSERT_TRUE(trace.ok());
        const DeepPass file = deepPass(
            [&](Report &report, const analysis::TraceFold &fold,
                analysis::FlowAnalysis *flow) {
                return analysis::lintTraceFile(trace, report, fold, flow);
            });
        EXPECT_TRUE(trace.bytes() == bytes);
        expectSamePass(file, memory);
    }
    std::filesystem::remove_all(dir);
}

// --- Model linter ---------------------------------------------------

std::string
modelDocument(const std::string &metric_lines,
              const std::string &runs = "runs 10")
{
    return "heapmd-model v1\nprogram demo\n" + runs + "\n" +
           metric_lines + "end\n";
}

Report
lintModelText(const std::string &text)
{
    Report report;
    std::istringstream is(text);
    analysis::lintModel(is, report);
    return report;
}

TEST(ModelLintTest, SavedModelAuditsClean)
{
    HeapModel model;
    model.programName = "demo";
    model.trainingRuns = 10;
    HeapModel::Entry entry;
    entry.id = MetricId::Roots;
    entry.minValue = 10.0;
    entry.maxValue = 30.0;
    entry.avgChange = 0.2;
    entry.stdDev = 1.5;
    entry.stableRuns = 9;
    model.addEntry(entry);
    entry.id = MetricId::Leaves;
    entry.locallyStable = true;
    entry.stdDev = 12.0;
    model.addEntry(entry);
    model.unstableMetrics.push_back(MetricId::InEqOut);

    std::stringstream ss;
    model.save(ss);
    Report report;
    analysis::lintModel(ss, report);
    EXPECT_TRUE(report.findings().empty()) << report.describe();
}

TEST(ModelLintTest, BadHeader)
{
    EXPECT_TRUE(
        lintModelText("not a model\n").has("model.bad-header"));
}

TEST(ModelLintTest, RangeInverted)
{
    const Report report = lintModelText(modelDocument(
        "metric Root kind global min 30 max 10 avg 0.1 std 1 "
        "stable_runs 5\n"));
    EXPECT_TRUE(report.has("model.range-inverted"))
        << report.describe();
}

TEST(ModelLintTest, NonFiniteValues)
{
    const Report report = lintModelText(modelDocument(
        "metric Root kind global min nan max inf avg 0.1 std 1 "
        "stable_runs 5\n"));
    EXPECT_EQ(report.count("model.non-finite"), 2u)
        << report.describe();
    // Range/threshold checks must not fire on non-finite input.
    EXPECT_FALSE(report.has("model.range-inverted"));
}

TEST(ModelLintTest, ThresholdBounds)
{
    // avg change beyond the +/-1% stability definition.
    EXPECT_TRUE(lintModelText(
                    modelDocument("metric Root kind global min 10 "
                                  "max 30 avg 4.0 std 1 "
                                  "stable_runs 5\n"))
                    .has("model.threshold-bounds"));
    // stddev beyond the globally-stable bound of 5.
    EXPECT_TRUE(lintModelText(
                    modelDocument("metric Root kind global min 10 "
                                  "max 30 avg 0.1 std 9 "
                                  "stable_runs 5\n"))
                    .has("model.threshold-bounds"));
    // ... but 9 is fine for a locally-stable entry (bound 25).
    EXPECT_TRUE(lintModelText(
                    modelDocument("metric Root kind local min 10 "
                                  "max 30 avg 0.1 std 9 "
                                  "stable_runs 5\n"))
                    .clean());
    // Percentage metrics cannot leave [0, 100].
    EXPECT_TRUE(lintModelText(
                    modelDocument("metric Root kind global min -5 "
                                  "max 30 avg 0.1 std 1 "
                                  "stable_runs 5\n"))
                    .has("model.threshold-bounds"));
}

TEST(ModelLintTest, StableRunsBounds)
{
    EXPECT_TRUE(lintModelText(
                    modelDocument("metric Root kind global min 10 "
                                  "max 30 avg 0.1 std 1 "
                                  "stable_runs 0\n"))
                    .has("model.stable-runs"));
    EXPECT_TRUE(lintModelText(
                    modelDocument("metric Root kind global min 10 "
                                  "max 30 avg 0.1 std 1 "
                                  "stable_runs 25\n"))
                    .has("model.stable-runs")); // > 10 training runs
}

TEST(ModelLintTest, DuplicateAndContradictoryMetrics)
{
    const std::string entry =
        "metric Root kind global min 10 max 30 avg 0.1 std 1 "
        "stable_runs 5\n";
    EXPECT_TRUE(lintModelText(modelDocument(entry + entry))
                    .has("model.duplicate-metric"));
    EXPECT_TRUE(
        lintModelText(modelDocument(entry + "unstable Root\n"))
            .has("model.duplicate-metric"));
}

TEST(ModelLintTest, UnknownMetricAndSyntax)
{
    EXPECT_TRUE(lintModelText(
                    modelDocument("metric Bogus kind global min 1 "
                                  "max 2 avg 0.1 std 1 "
                                  "stable_runs 5\n"))
                    .has("model.unknown-metric"));
    EXPECT_TRUE(lintModelText(modelDocument("metric Root min\n"))
                    .has("model.syntax"));
    EXPECT_TRUE(lintModelText(modelDocument("frobnicate 3\n"))
                    .has("model.syntax"));
}

TEST(ModelLintTest, EmptyStableSetAndMissingEnd)
{
    EXPECT_TRUE(
        lintModelText(modelDocument("")).has("model.empty-stable-set"));
    EXPECT_TRUE(
        lintModelText("heapmd-model v1\nprogram demo\nruns 10\n")
            .has("model.no-end"));
}

// --- Graph linter ---------------------------------------------------

/** A 3-vertex / 2-edge document with every layer consistent. */
std::string
goodGraph()
{
    return "heapmd-graph v1\n"
           "vertices 3\n"
           "edges 2\n"
           "vertex 1 addr 4096 size 64 indeg 0 outdeg 2\n"
           "vertex 2 addr 8192 size 32 indeg 1 outdeg 0\n"
           "vertex 3 addr 12288 size 16 indeg 1 outdeg 0\n"
           "edge 1 2\n"
           "edge 1 3\n"
           "hist vertices 3 indeg 1 2 0 outdeg 2 0 1 ineqout 0\n"
           "metric Root 33.333333333333336\n"
           "metric Indeg=1 66.666666666666671\n"
           "metric Indeg=2 0\n"
           "metric Leaves 66.666666666666671\n"
           "metric Outdeg=1 0\n"
           "metric Outdeg=2 33.333333333333336\n"
           "metric In=Out 0\n"
           "end\n";
}

Report
lintGraphText(const std::string &text)
{
    Report report;
    std::istringstream is(text);
    analysis::lintGraph(is, report);
    return report;
}

/** Replace the first occurrence of @p from in the good document. */
std::string
withLine(const std::string &from, const std::string &to)
{
    std::string doc = goodGraph();
    const std::size_t at = doc.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    doc.replace(at, from.size(), to);
    return doc;
}

TEST(GraphLintTest, ConsistentDocumentAuditsClean)
{
    const Report report = lintGraphText(goodGraph());
    EXPECT_TRUE(report.findings().empty()) << report.describe();
}

TEST(GraphLintTest, SavedSnapshotAuditsClean)
{
    // Drive a real process, snapshot its graph, audit the document.
    Process process;
    process.onAlloc(0x1000, 64);
    process.onAlloc(0x2000, 32);
    process.onAlloc(0x3000, 16);
    process.onWrite(0x1000, 0x2000);
    process.onWrite(0x1008, 0x3000);
    process.onWrite(0x2000, 0x2000); // self-edge
    process.onFree(0x3000);

    std::stringstream ss;
    saveGraphSnapshot(process.graph(), ss);
    Report report;
    const analysis::GraphLintStats stats =
        analysis::lintGraph(ss, report);
    EXPECT_TRUE(report.findings().empty()) << report.describe();
    EXPECT_EQ(stats.vertices, 2u);
}

TEST(GraphLintTest, EmptyGraphSnapshotAuditsClean)
{
    Process process;
    std::stringstream ss;
    saveGraphSnapshot(process.graph(), ss);
    Report report;
    analysis::lintGraph(ss, report);
    EXPECT_TRUE(report.findings().empty()) << report.describe();
}

TEST(GraphLintTest, BadHeader)
{
    EXPECT_TRUE(lintGraphText("nope\n").has("graph.bad-header"));
}

TEST(GraphLintTest, CountMismatch)
{
    EXPECT_TRUE(lintGraphText(withLine("vertices 3", "vertices 4"))
                    .has("graph.count-mismatch"));
    EXPECT_TRUE(lintGraphText(withLine("edges 2", "edges 7"))
                    .has("graph.count-mismatch"));
}

TEST(GraphLintTest, DanglingEdgeTarget)
{
    const Report report =
        lintGraphText(withLine("edge 1 3", "edge 1 9"));
    EXPECT_TRUE(report.has("graph.dangling-edge"))
        << report.describe();
}

TEST(GraphLintTest, DegreeMismatchAndConservation)
{
    // Vertex 2 claims indegree 5; the edge list disagrees, and so
    // does the sum(indeg) == edges conservation law.
    const Report report = lintGraphText(
        withLine("vertex 2 addr 8192 size 32 indeg 1 outdeg 0",
                 "vertex 2 addr 8192 size 32 indeg 5 outdeg 0"));
    EXPECT_GE(report.count("graph.degree-mismatch"), 2u)
        << report.describe();
}

TEST(GraphLintTest, HistogramDisagreement)
{
    const Report report = lintGraphText(
        withLine("hist vertices 3 indeg 1 2 0 outdeg 2 0 1 ineqout 0",
                 "hist vertices 3 indeg 0 3 0 outdeg 2 0 1 "
                 "ineqout 2"));
    EXPECT_GE(report.count("graph.histogram"), 2u)
        << report.describe();
}

TEST(GraphLintTest, MetricNotRecomputable)
{
    const Report report = lintGraphText(withLine(
        "metric Root 33.333333333333336", "metric Root 95.0"));
    EXPECT_TRUE(report.has("graph.metric-recompute"))
        << report.describe();
}

TEST(GraphLintTest, MissingMetricLine)
{
    EXPECT_TRUE(lintGraphText(withLine("metric In=Out 0\n", ""))
                    .has("graph.metric-recompute"));
}

TEST(GraphLintTest, DuplicateVertexAndEdge)
{
    EXPECT_TRUE(
        lintGraphText(
            withLine("edge 1 3\n", "edge 1 3\nedge 1 3\n"))
            .has("graph.duplicate"));
    EXPECT_TRUE(lintGraphText(withLine(
                    "vertex 3 addr 12288 size 16 indeg 1 outdeg 0\n",
                    "vertex 3 addr 12288 size 16 indeg 1 outdeg 0\n"
                    "vertex 3 addr 16384 size 8 indeg 1 outdeg 0\n"))
                    .has("graph.duplicate"));
}

TEST(GraphLintTest, ExtentProblems)
{
    EXPECT_TRUE(
        lintGraphText(
            withLine("vertex 2 addr 8192 size 32",
                     "vertex 2 addr 4100 size 32"))
            .has("graph.extent-overlap"));
    EXPECT_TRUE(lintGraphText(withLine("vertex 3 addr 12288 size 16",
                                       "vertex 3 addr 12288 size 0"))
                    .has("graph.zero-extent"));
}

TEST(GraphLintTest, MissingEnd)
{
    EXPECT_TRUE(lintGraphText(withLine("end\n", ""))
                    .has("graph.no-end"));
}

} // namespace

} // namespace heapmd
