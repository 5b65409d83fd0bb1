/**
 * @file
 * Tests of the shadow-heap flow analyzer (`heapmd audit --deep`).
 *
 * Every flow.* rule in the DESIGN.md section-12 catalog is covered:
 * once over the seeded corpus in tests/data/ (regenerate with
 * gen_corpus.py), once over traces built event-by-event in-test for
 * the dangling-edge window semantics, and once end-to-end over
 * traces recorded from the synthetic apps with src/faults injections
 * -- the seeded double free, UAF write and leak must surface under
 * their exact rule ids, and fault-free recordings must audit with
 * zero flow findings.  A truncation/corruption fuzz pass asserts the
 * flow and trace linters never crash on damaged input and pins their
 * reports with a digest.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diag_lint.hh"
#include "analysis/flow_lint.hh"
#include "analysis/trace_lint.hh"
#include "apps/app.hh"
#include "diag/flow_incident.hh"
#include "runtime/events.hh"
#include "runtime/process.hh"
#include "support/hash.hh"
#include "trace/trace_writer.hh"

namespace heapmd
{

namespace
{

using analysis::FlowAnalysis;
using analysis::FlowFinding;
using analysis::Report;
using analysis::Severity;

/**
 * Digest of FlowFuzz's reports, recorded with the ordered-map shadow
 * heaps the page-indexed ones replaced.  It changes only when a lint
 * rule's output is meant to change.
 */
const char *const kFuzzDigest = "fnv1a:20f7516aafde88eb";

std::string
corpusPath(const std::string &name)
{
    return std::string(HEAPMD_TEST_DATA_DIR) + "/" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

FlowAnalysis
flowOf(const std::string &name)
{
    return analysis::analyzeTraceFlow(slurp(corpusPath(name)));
}

/** First finding matching @p rule, or nullptr. */
const FlowFinding *
findRule(const FlowAnalysis &analysis, const std::string &rule)
{
    for (const FlowFinding &f : analysis.findings)
        if (f.rule == rule)
            return &f;
    return nullptr;
}

// --- In-test trace construction (mirrors gen_corpus.py) -------------

std::string
vbytes(std::uint64_t value)
{
    std::string out;
    while (value >= 0x80) {
        out.push_back(static_cast<char>((value & 0x7F) | 0x80));
        value >>= 7;
    }
    out.push_back(static_cast<char>(value));
    return out;
}

std::string
ev(EventKind kind, std::initializer_list<std::uint64_t> fields)
{
    std::string out(1, static_cast<char>(kind));
    for (std::uint64_t field : fields)
        out += vbytes(field);
    return out;
}

std::string
traceHeader()
{
    return std::string("HMDT") + std::string("\x01\x00\x00\x00", 4);
}

std::string
traceFooter()
{
    return std::string(1, '\xFF') + vbytes(0);
}

/**
 * The dangling-edge stage: object B holds a pointer to object A, A
 * is freed, and a fresh allocation recycles A's extent (tainting B's
 * slot).  The @p epilogue decides whether the rule fires.
 */
std::string
danglingStage(const std::string &epilogue)
{
    return traceHeader() + ev(EventKind::Alloc, {0x1000, 32}) // A
           + ev(EventKind::Alloc, {0x2000, 32})               // B
           + ev(EventKind::Write, {0x2000, 0x1000}) // slot B+0 -> A
           + ev(EventKind::Free, {0x1000})
           + ev(EventKind::Alloc, {0x1000, 32}) // recycle A
           + epilogue + ev(EventKind::Free, {0x1000}) +
           ev(EventKind::Free, {0x2000}) + traceFooter();
}

/** Record one synthetic-app run as an in-memory trace. */
std::string
recordApp(const std::string &app_name, const char *fault)
{
    ProcessConfig pcfg;
    pcfg.metricFrequency = 300;
    Process process(pcfg);
    std::ostringstream out;
    TraceWriter writer(out, process.registry());
    process.addEventObserver(&writer);
    auto app = makeApp(app_name);
    AppConfig cfg;
    cfg.inputSeed = 3;
    cfg.scale = 0.3;
    if (fault != nullptr)
        cfg.faults.enable(faultKindFromName(fault), 1.0);
    app->run(process, cfg);
    writer.finish();
    return out.str();
}

// --- Rule catalog over the seeded corpus ----------------------------

TEST(FlowCorpus, CleanTraceIsSilent)
{
    const FlowAnalysis a = flowOf("clean.trace");
    EXPECT_TRUE(a.findings.empty());
    EXPECT_TRUE(a.stats.sawFooter);
    EXPECT_EQ(a.stats.events, 10u);
    EXPECT_EQ(a.stats.liveAtExit, 0u);
}

TEST(FlowCorpus, EveryRuleHasASeededCase)
{
    const struct
    {
        const char *file;
        const char *rule;
    } kCases[] = {
        {"flow_double_free.trace", "flow.double_free"},
        {"free_before_alloc.trace", "flow.free_unallocated"},
        {"flow_size_mismatch.trace", "flow.size_mismatch"},
        {"flow_negative_size.trace", "flow.negative_size"},
        {"write_after_free.trace", "flow.write_freed"},
        {"flow_write_unmapped.trace", "flow.write_unmapped"},
        {"alloc_overlap.trace", "flow.overlap_alloc"},
        {"flow_dangling_reuse.trace", "flow.dangling_edge"},
        {"flow_leak_at_exit.trace", "flow.leak_at_exit"},
    };
    for (const auto &c : kCases) {
        const FlowAnalysis a = flowOf(c.file);
        const FlowFinding *f = findRule(a, c.rule);
        ASSERT_NE(f, nullptr) << c.file << " missing " << c.rule;
        EXPECT_EQ(f->severity, Severity::Error) << c.file;
    }
}

TEST(FlowCorpus, DoubleFreeCarriesProvenance)
{
    const FlowAnalysis a = flowOf("flow_double_free.trace");
    ASSERT_EQ(a.findings.size(), 1u);
    const FlowFinding &f = a.findings[0];
    EXPECT_EQ(f.base, 0x1000u);
    EXPECT_EQ(f.size, 64u);
    EXPECT_EQ(f.lifetimeEvents, 1u);
    EXPECT_TRUE(f.allocSite.known);
    EXPECT_TRUE(f.freeSite.known);
    // Both sites resolve through the footer's function table.
    EXPECT_NE(f.message.find("allocated at"), std::string::npos);
    EXPECT_NE(f.message.find("in main"), std::string::npos);
}

TEST(FlowCorpus, SizeMismatchNamesInteriorOffset)
{
    const FlowAnalysis a = flowOf("flow_size_mismatch.trace");
    const FlowFinding *f = findRule(a, "flow.size_mismatch");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->addr, 0x1010u);
    EXPECT_EQ(f->base, 0x1000u);
    EXPECT_NE(f->message.find("interior pointer"),
              std::string::npos);
    EXPECT_NE(f->message.find("offset 16"), std::string::npos);
}

TEST(FlowCorpus, NegativeSizeIsTheOnlyFinding)
{
    // The bogus allocation must not enter the shadow heap: no extent,
    // so no follow-on leak at the footer.
    const FlowAnalysis a = flowOf("flow_negative_size.trace");
    ASSERT_EQ(a.findings.size(), 1u);
    EXPECT_EQ(a.findings[0].rule, "flow.negative_size");
    EXPECT_EQ(a.stats.liveAtExit, 0u);
}

TEST(FlowCorpus, WriteFreedNamesTheSitePair)
{
    const FlowAnalysis a = flowOf("write_after_free.trace");
    const FlowFinding *f = findRule(a, "flow.write_freed");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->addr, 0x1008u);
    EXPECT_EQ(f->base, 0x1000u);
    EXPECT_TRUE(f->allocSite.known);
    EXPECT_TRUE(f->freeSite.known);
    EXPECT_NE(f->message.find("use-after-free write"),
              std::string::npos);
}

TEST(FlowCorpus, LeakGroupsObjectsBySite)
{
    const FlowAnalysis a = flowOf("flow_leak_at_exit.trace");
    const FlowFinding *f = findRule(a, "flow.leak_at_exit");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->objects, 1u);
    EXPECT_EQ(f->bytes, 64u);
    EXPECT_NE(f->message.find("in leaky"), std::string::npos);
    EXPECT_EQ(a.stats.leakedBytes, 64u);
}

TEST(FlowCorpus, TruncatedTraceSkipsLeakAnalysis)
{
    // One live object at the cut point, but no footer: liveness
    // proves nothing, so no leak finding (and nothing else either).
    const FlowAnalysis a = flowOf("missing_footer.trace");
    EXPECT_FALSE(a.stats.sawFooter);
    EXPECT_TRUE(a.findings.empty());
    EXPECT_EQ(a.stats.events, 1u);
}

// --- flow.dangling_edge window semantics ----------------------------

TEST(DanglingEdge, FiresOnLoadThenWriteIntoRecycledExtent)
{
    const FlowAnalysis a = flowOf("flow_dangling_reuse.trace");
    ASSERT_EQ(a.findings.size(), 1u);
    const FlowFinding &f = a.findings[0];
    EXPECT_EQ(f.rule, "flow.dangling_edge");
    EXPECT_EQ(f.severity, Severity::Error);
    EXPECT_EQ(f.addr, 0x1008u);
    EXPECT_EQ(f.base, 0x1000u);
    EXPECT_EQ(f.size, 32u);
    EXPECT_NE(f.message.find("through stale pointer"),
              std::string::npos);
    EXPECT_NE(f.message.find("recycled by allocation"),
              std::string::npos);
}

TEST(DanglingEdge, ReadThroughStalePointerStaysSilent)
{
    // Shared-payload borrows read through released pointers all the
    // time; only a write corrupts the recycling object.
    const std::string trace =
        danglingStage(ev(EventKind::Read, {0x2000}) +
                      ev(EventKind::Read, {0x1008}));
    EXPECT_TRUE(analysis::analyzeTraceFlow(trace).findings.empty());
}

TEST(DanglingEdge, DerefWindowIsOneMemoryEvent)
{
    // An unrelated access between the load and the write breaks the
    // loaded-pointer correlation: no finding.
    const std::string trace = danglingStage(
        ev(EventKind::Read, {0x2000}) +
        ev(EventKind::Read, {0x500}) +
        ev(EventKind::Write, {0x1008, 0}));
    EXPECT_TRUE(analysis::analyzeTraceFlow(trace).findings.empty());
}

TEST(DanglingEdge, OverwritingTheSlotRetiresTheTaint)
{
    // The program nulls the reference before using it again: the
    // slot no longer holds the stale address.
    const std::string trace = danglingStage(
        ev(EventKind::Write, {0x2000, 0}) +
        ev(EventKind::Read, {0x2000}) +
        ev(EventKind::Write, {0x1008, 0}));
    EXPECT_TRUE(analysis::analyzeTraceFlow(trace).findings.empty());
}

TEST(DanglingEdge, MerelyHoldingTheStaleAddressStaysSilent)
{
    // Registries keep keys to erased entries; never loading the slot
    // means never firing.
    const std::string trace = danglingStage("");
    EXPECT_TRUE(analysis::analyzeTraceFlow(trace).findings.empty());
}

// --- Capture-provenance severity matrix -----------------------------

TEST(CaptureMatrix, AddressReuseIsLegal)
{
    // The shim misses frees, so a capture trace reusing an address
    // must not fire flow.overlap_alloc -- or anything else.
    const FlowAnalysis a = flowOf("capture_addr_reuse.trace");
    EXPECT_TRUE(a.stats.captureProvenance);
    EXPECT_TRUE(a.findings.empty());
}

TEST(CaptureMatrix, WriteFreedDowngradesToWarning)
{
    const FlowAnalysis a = flowOf("capture_write_freed.trace");
    const FlowFinding *f = findRule(a, "flow.write_freed");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->severity, Severity::Warning);

    Report report;
    analysis::lintTraceFlow(slurp(corpusPath(
                                "capture_write_freed.trace")),
                            report);
    EXPECT_TRUE(report.clean()); // warnings don't fail the audit
    EXPECT_EQ(report.warningCount(), 1u);
}

TEST(CaptureMatrix, LeakDowngradesToNote)
{
    const FlowAnalysis a = flowOf("capture_leak.trace");
    const FlowFinding *f = findRule(a, "flow.leak_at_exit");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->severity, Severity::Note);
}

// --- Damage tolerance -----------------------------------------------

/**
 * Everything both trace linters report about one input, as text: the
 * trace linter's findings and stats, then every field of the flow
 * pass's structured findings and its stats.
 */
std::string
lintRendering(const std::string &data)
{
    Report report;
    const analysis::TraceLintStats ts = analysis::lintTrace(data, report);
    std::ostringstream out;
    out << report.describe() << ts.bytes << ' ' << ts.events << ' '
        << ts.functions << ' ' << ts.segments << ' '
        << ts.captureProvenance << '\n';
    const FlowAnalysis flow = analysis::analyzeTraceFlow(data);
    EXPECT_LE(flow.findings.size(), 4096u);
    for (const FlowFinding &f : flow.findings) {
        out << f.rule << ' ' << static_cast<int>(f.severity) << ' '
            << f.byteOffset << ' ' << f.eventIndex << ' ' << f.addr
            << ' ' << f.base << ' ' << f.size << ' '
            << f.lifetimeEvents << ' ' << f.objects << ' ' << f.bytes
            << ' ' << f.message << '\n';
    }
    const analysis::FlowLintStats &fs = flow.stats;
    out << fs.bytes << ' ' << fs.events << ' ' << fs.functions << ' '
        << fs.liveAtExit << ' ' << fs.leakedBytes << ' '
        << fs.captureProvenance << ' ' << fs.sawFooter << '\n';
    return out.str();
}

/**
 * FlowFuzz's inputs, each handed to @p visit: every prefix and every
 * single-byte corruption of five corpus seeds, ~256 prefixes of a
 * recorded app trace, and whole recordings with and without seeded
 * faults.
 */
void
forEachFuzzInput(const std::function<void(const std::string &)> &visit)
{
    const char *kSeeds[] = {
        "clean.trace",          "flow_dangling_reuse.trace",
        "capture_addr_reuse.trace", "write_after_free.trace",
        "flow_leak_at_exit.trace",
    };
    for (const char *name : kSeeds) {
        const std::string data = slurp(corpusPath(name));
        ASSERT_FALSE(data.empty()) << name;
        // Every prefix, as a kill mid-write would leave it.
        for (std::size_t len = 0; len <= data.size(); ++len)
            visit(data.substr(0, len));
        // Every single-byte corruption.
        for (std::size_t i = 0; i < data.size(); ++i) {
            std::string bent = data;
            bent[i] = static_cast<char>(bent[i] ^ 0xFF);
            visit(bent);
        }
    }

    // A real recorded trace, cut at ~256 points along its length.
    const std::string recorded = recordApp("gzip", nullptr);
    ASSERT_GT(recorded.size(), 512u);
    const std::size_t stride = recorded.size() / 256 + 1;
    for (std::size_t len = 0; len < recorded.size(); len += stride)
        visit(recorded.substr(0, len));
    // Whole recordings, clean and with seeded leaks and double frees:
    // leak ranking and sweeps over many live objects.
    visit(recorded);
    visit(recordApp("gzip", "small-leak"));
    visit(recordApp("Multimedia", "shared-state-free"));
}

/**
 * Both linters over every FlowFuzz input.  None may crash, and every
 * report is folded into one FNV-1a digest: the linters' output on
 * damaged input is pinned byte for byte, so a rewrite of their shadow
 * heaps cannot change a single finding.
 */
TEST(FlowFuzz, TruncationAndCorruptionNeverCrash)
{
    std::string digests;
    forEachFuzzInput([&](const std::string &data) {
        digests += hashFingerprint(fnv1a64(lintRendering(data)));
    });
    EXPECT_EQ(hashFingerprint(fnv1a64(digests)), kFuzzDigest);
}

// --- The ordering rules with and without a flow pass ----------------

/**
 * The trace.* findings and the stats of one lint pass over @p data,
 * as text: a lint-only pass, or a deep one (a flow pass beside it).
 */
std::string
orderingRendering(const std::string &data, bool deep)
{
    Report report;
    FlowAnalysis flow;
    const analysis::TraceLintStats ts =
        analysis::lintTrace(data, report, {}, deep ? &flow : nullptr);
    std::ostringstream out;
    for (const analysis::Finding &f : report.findings()) {
        if (f.rule.rfind("trace.", 0) == 0)
            out << f.describe() << '\n';
    }
    out << ts.bytes << ' ' << ts.events << ' ' << ts.functions << ' '
        << ts.segments << ' ' << ts.captureProvenance << ' '
        << ts.malformed << '\n';
    return out.str();
}

/** Version-2 header with the live-capture provenance flag. */
std::string
captureHeader()
{
    return std::string("HMDT") + std::string("\x02\x00\x00\x00", 4) +
           std::string("\x01\x00\x00\x00", 4);
}

/**
 * Events at which the ordering rules' extent model and the flow
 * pass's shadow heap update differently (and two that come close),
 * each with the addresses it leaves in question.
 */
struct Divergence
{
    const char *name;
    std::string events;
    std::vector<Addr> addrs;
};

std::vector<Divergence>
divergences()
{
    constexpr std::uint64_t kNegative = std::uint64_t{1} << 63;
    const std::string a32 = ev(EventKind::Alloc, {0x1000, 32});
    const std::string b32 = ev(EventKind::Alloc, {0x2000, 32});
    return {
        {"zero-size alloc", ev(EventKind::Alloc, {0x1000, 0}), {0x1000}},
        {"zero-size alloc over a freed extent",
         a32 + ev(EventKind::Free, {0x1000}) +
             ev(EventKind::Alloc, {0x1008, 0}),
         {0x1000, 0x1008}},
        {"negative-size alloc over a live extent",
         a32 + ev(EventKind::Alloc, {0x800, kNegative}), {0x800, 0x1000}},
        {"negative-size alloc over a freed extent",
         a32 + ev(EventKind::Free, {0x1000}) +
             ev(EventKind::Alloc, {0x800, kNegative}),
         {0x800, 0x1000}},
        {"alloc over a live extent",
         ev(EventKind::Alloc, {0x1000, 64}) +
             ev(EventKind::Alloc, {0x1010, 16}),
         {0x1000, 0x1010}},
        {"alloc over a live and a freed extent",
         a32 + b32 + ev(EventKind::Free, {0x2000}) +
             ev(EventKind::Alloc, {0x1010, 0x1000}),
         {0x1000, 0x1010, 0x2000}},
        {"in-place realloc growing over a live extent",
         a32 + ev(EventKind::Alloc, {0x1020, 32}) +
             ev(EventKind::Realloc, {0x1000, 0x1000, 64}),
         {0x1000, 0x1020}},
        {"in-place realloc growing past the top of the address space",
         ev(EventKind::Alloc, {0, 16}) + ev(EventKind::Free, {0}) +
             ev(EventKind::Alloc, {~std::uint64_t{15}, 16}) +
             ev(EventKind::Realloc,
                {~std::uint64_t{15}, ~std::uint64_t{15}, 32}),
         {0, ~std::uint64_t{15}}},
        {"in-place realloc to size 0",
         a32 + ev(EventKind::Realloc, {0x1000, 0x1000, 0}), {0x1000}},
        {"in-place realloc of an interior pointer over its object",
         ev(EventKind::Alloc, {0x1000, 64}) +
             ev(EventKind::Realloc, {0x1010, 0x1010, 8}),
         {0x1000, 0x1010}},
        {"realloc to a null target",
         a32 + ev(EventKind::Realloc, {0x1000, 0, 16}), {0x1000, 0}},
        {"realloc to a negative size",
         a32 + b32 + ev(EventKind::Realloc, {0x1000, 0x3000, kNegative}),
         {0x1000, 0x2000, 0x3000}},
        {"realloc moving over a live extent",
         a32 + b32 + ev(EventKind::Realloc, {0x1000, 0x2008, 16}),
         {0x1000, 0x2000, 0x2008}},
        {"realloc moving into its own extent",
         ev(EventKind::Alloc, {0x1000, 64}) +
             ev(EventKind::Realloc, {0x1000, 0x1008, 128}),
         {0x1000, 0x1008}},
        {"realloc from null with a live extent at 0",
         ev(EventKind::Alloc, {0, 16}) +
             ev(EventKind::Realloc, {0, 0x2000, 16}),
         {0, 0x2000}},
        {"realloc from null to null",
         ev(EventKind::Realloc, {0, 0, 16}), {0}},
    };
}

/**
 * The trace.* findings and stats of a deep pass equal those of a
 * lint-only pass: over every FlowFuzz input, and over each event at
 * which the two extent models update differently, followed by a
 * Free, a Write and a Realloc of each address it leaves in question,
 * in offline and in capture provenance.
 */
TEST(FlowOrdering, DeepPassReportsWhatTheLintAloneReports)
{
    std::size_t inputs = 0;
    const auto same = [&](const std::string &data) {
        ++inputs;
        EXPECT_EQ(orderingRendering(data, true),
                  orderingRendering(data, false))
            << "input #" << inputs;
    };
    forEachFuzzInput(same);

    for (const Divergence &d : divergences()) {
        SCOPED_TRACE(d.name);
        std::vector<std::string> epilogues;
        std::string free_all;
        for (Addr addr : d.addrs) {
            epilogues.push_back(ev(EventKind::Free, {addr}));
            epilogues.push_back(ev(EventKind::Write, {addr, 0x1000}));
            epilogues.push_back(ev(EventKind::Write, {addr + 8, 0}));
            epilogues.push_back(ev(EventKind::Realloc, {addr, addr, 8}));
            epilogues.push_back(
                ev(EventKind::Realloc, {addr, 0x9000, 8}));
            epilogues.push_back(ev(EventKind::Alloc, {addr, 8}));
            free_all += ev(EventKind::Free, {addr});
        }
        epilogues.push_back(free_all);
        epilogues.push_back(free_all + free_all);
        for (const std::string &header : {traceHeader(), captureHeader()}) {
            same(header + d.events + traceFooter());
            for (const std::string &epilogue : epilogues) {
                same(header + d.events + epilogue + traceFooter());
                // A second divergence past the first.
                same(header + d.events + epilogue + d.events +
                     epilogue + traceFooter());
            }
        }
    }
}

TEST(FlowShadowHeap, OverlapSweepReportsVictimsInAddressOrder)
{
    // Victims allocated out of order, one of them wider than an index
    // leaf: the sweep still reports them by ascending base.
    const std::string trace =
        traceHeader() + ev(EventKind::Alloc, {0x60000000, 16}) +
        ev(EventKind::Alloc, {0x10000000, 0x40000000}) +
        ev(EventKind::Alloc, {0x1000, 16}) +
        ev(EventKind::Alloc, {0x2000, 16}) +
        ev(EventKind::Alloc, {0x800, 0x70000000}) + traceFooter();
    const FlowAnalysis a = analysis::analyzeTraceFlow(trace);
    std::vector<Addr> bases;
    for (const FlowFinding &f : a.findings) {
        if (f.rule == "flow.overlap_alloc")
            bases.push_back(f.base);
    }
    EXPECT_EQ(bases, (std::vector<Addr>{0x1000, 0x2000, 0x10000000,
                                        0x60000000}));
}

// --- End-to-end: fault injections surface under exact rule ids ------

TEST(FlowFaultE2E, SeededFaultsMapToTheirRules)
{
    // shared-state-free double-frees payloads both a hash table and
    // a list believe they own.
    const FlowAnalysis shared =
        analysis::analyzeTraceFlow(
            recordApp("Multimedia", "shared-state-free"));
    EXPECT_NE(findRule(shared, "flow.double_free"), nullptr);

    // circular-dangling-tail writes through a next pointer into a
    // freed, not-yet-reused tail node.
    const FlowAnalysis dangling =
        analysis::analyzeTraceFlow(
            recordApp("Multimedia", "circular-dangling-tail"));
    EXPECT_NE(findRule(dangling, "flow.write_freed"), nullptr);

    // small-leak drops objects on the floor.
    const FlowAnalysis leak =
        analysis::analyzeTraceFlow(recordApp("gzip", "small-leak"));
    EXPECT_NE(findRule(leak, "flow.leak_at_exit"), nullptr);
}

TEST(FlowFaultE2E, FaultFreeRecordingsAreSilent)
{
    EXPECT_TRUE(analysis::analyzeTraceFlow(
                    recordApp("Multimedia", nullptr))
                    .findings.empty());
    EXPECT_TRUE(analysis::analyzeTraceFlow(recordApp("gzip", nullptr))
                    .findings.empty());
}

// --- Flow incidents: export, round trip, diag lint ------------------

TEST(FlowIncidentTest, RoundTripsByteForByte)
{
    const FlowAnalysis a = flowOf("flow_double_free.trace");
    ASSERT_FALSE(a.findings.empty());
    const diag::FlowIncident incident = diag::makeFlowIncident(
        a, a.findings[0], "flow_double_free.trace");
    const std::string json = diag::flowIncidentToJson(incident);

    diag::FlowIncident loaded;
    std::string error;
    ASSERT_TRUE(diag::loadFlowIncident(json, loaded, &error))
        << error;
    EXPECT_EQ(diag::flowIncidentToJson(loaded), json);
    EXPECT_EQ(loaded.rule, "flow.double_free");
    EXPECT_EQ(loaded.severity, "error");
    EXPECT_EQ(loaded.base, 0x1000u);
    EXPECT_EQ(loaded.size, 64u);
    EXPECT_EQ(loaded.allocSite.name, "main");
    EXPECT_TRUE(loaded.freeSite.known);
}

TEST(FlowIncidentTest, BundleLintAcceptsFlowDocuments)
{
    const FlowAnalysis a = flowOf("flow_dangling_reuse.trace");
    ASSERT_FALSE(a.findings.empty());
    const std::string json = diag::flowIncidentToJson(
        diag::makeFlowIncident(a, a.findings[0], "t.trace"));
    Report report;
    analysis::lintBundleText(json, report);
    EXPECT_TRUE(report.clean()) << report.describe();
    EXPECT_EQ(report.warningCount(), 0u);
}

TEST(FlowIncidentTest, BundleLintCatchesDefects)
{
    const FlowAnalysis a = flowOf("write_after_free.trace");
    const FlowFinding *f = findRule(a, "flow.write_freed");
    ASSERT_NE(f, nullptr);
    const diag::FlowIncident good =
        diag::makeFlowIncident(a, *f, "t.trace");

    diag::FlowIncident bad_rule = good;
    bad_rule.rule = "flow.bogus";
    Report r1;
    analysis::lintBundleText(diag::flowIncidentToJson(bad_rule), r1);
    EXPECT_TRUE(r1.has("diag.bad-rule"));

    diag::FlowIncident bad_severity = good;
    bad_severity.severity = "fatal";
    Report r2;
    analysis::lintBundleText(diag::flowIncidentToJson(bad_severity),
                             r2);
    EXPECT_TRUE(r2.has("diag.bad-severity"));

    diag::FlowIncident outside = good;
    outside.addr = outside.base + outside.size + 8;
    Report r3;
    analysis::lintBundleText(diag::flowIncidentToJson(outside), r3);
    EXPECT_TRUE(r3.has("diag.addr-outside"));
}

} // namespace

} // namespace heapmd
