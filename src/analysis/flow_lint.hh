/**
 * @file
 * Shadow-heap dataflow analyzer for HMDT traces (`audit --deep`).
 *
 * A single forward pass over the decoded event stream maintains a
 * *shadow heap*: the live and freed extents in one page-indexed
 * arena (heapgraph/extent_arena.hh), each extent carrying its
 * allocation-site provenance (innermost function, event index, byte
 * offset), the pointer slots written into it, and the incoming edges
 * from other objects.  Unlike the trace
 * linter -- which checks that the artifact obeys the format spec --
 * this pass decides *program* properties that are statically evident
 * from the trace alone: no model, no replay, no detector thresholds.
 *
 * Rule catalog (stable ids, documented in DESIGN.md section 12):
 *   flow.double_free      free/realloc of an extent already freed and
 *                         not since reused; names the alloc site, the
 *                         first free site, and the object lifetime
 *   flow.free_unallocated free/realloc of an address that was never
 *                         the start of any known extent
 *   flow.size_mismatch    free/realloc of an interior pointer of a
 *                         live extent (base + nonzero offset)
 *   flow.negative_size    alloc/realloc whose size has bit 63 set --
 *                         a negative ssize_t passed to an allocator
 *   flow.write_freed      pointer write landing inside a freed,
 *                         not-yet-reused extent (a UAF write); names
 *                         the victim's alloc/free site pair
 *   flow.write_unmapped   pointer write at an address no extent ever
 *                         covered
 *   flow.overlap_alloc    allocation overlapping a live extent
 *   flow.dangling_edge    a pointer slot whose target was freed and
 *                         recycled is loaded, and the very next
 *                         memory event writes inside the old target:
 *                         a UAF write through a dangling edge that
 *                         corrupts whatever recycled the extent (the
 *                         reused-memory dual of flow.write_freed).
 *                         Merely holding the stale address, probing
 *                         it as a key, or reading through a borrowed
 *                         pointer does not fire -- clean workloads
 *                         do all three routinely
 *   flow.leak_at_exit     extents still live at the footer, grouped
 *                         by allocation site and ranked by bytes
 *
 * Capture provenance (version-2 header, live-capture flag) relaxes
 * the matrix: the shim samples pointer writes only every `frq`
 * allocations and repairs missed frees by synthesizing Free events,
 * so address reuse is legal and edge knowledge is approximate.
 * Under capture, flow.overlap_alloc is suppressed entirely (the
 * overlapped extents are implicitly freed, mirroring replay),
 * flow.write_freed / flow.write_unmapped / flow.dangling_edge are
 * downgraded to warnings, and flow.leak_at_exit to notes (a real
 * process may exit without tearing its heap down).  flow.double_free,
 * flow.free_unallocated, flow.size_mismatch and flow.negative_size
 * stay errors: the shim observes every free directly, so those are
 * real bugs in any provenance.  A truncated trace (no footer) skips
 * leak analysis -- liveness at the cut point proves nothing.
 *
 * Framing: the pass does not decode.  The trace linter's loop
 * (trace_lint.hh) hands it each event after the lint rules, so
 * `audit --deep` decodes a trace once and the linter owns every decode
 * finding.  An overlong event varint still yields a value, so the pass
 * sees the events past it; any other fault, and the first fault in the
 * function table, ends the pass with the names decoded so far.
 */

#ifndef HEAPMD_ANALYSIS_FLOW_LINT_HH
#define HEAPMD_ANALYSIS_FLOW_LINT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/report.hh"
#include "runtime/events.hh"
#include "support/types.hh"

namespace heapmd
{

class TraceReader;

namespace analysis
{

/** Where in the trace an object was allocated or freed. */
struct FlowSite
{
    FnId fn = kNoFunction;        //!< innermost function at the event
    std::uint64_t eventIndex = 0; //!< 0-based index into the stream
    std::uint64_t byteOffset = 0; //!< offset of the event's tag byte
    bool known = false;           //!< site was actually observed
};

/** One defect found by the flow pass, in structured form. */
struct FlowFinding
{
    std::string rule;             //!< stable id, e.g. "flow.double_free"
    Severity severity = Severity::Error;
    std::uint64_t byteOffset = 0; //!< where the finding fired
    std::uint64_t eventIndex = 0; //!< event that fired it
    Addr addr = kNullAddr;        //!< faulting address
    Addr base = kNullAddr;        //!< extent base when one is involved
    std::uint64_t size = 0;       //!< extent size when known
    FlowSite allocSite;           //!< where the extent was allocated
    FlowSite freeSite;            //!< where the extent was freed
    std::uint64_t lifetimeEvents = 0; //!< events between alloc and free
    std::uint64_t objects = 0;    //!< leak: extents at this site
    std::uint64_t bytes = 0;      //!< leak: total bytes at this site
    std::string message;          //!< rendered, names resolved
};

/** Scan statistics of one flow pass. */
struct FlowLintStats
{
    std::uint64_t bytes = 0;      //!< total bytes scanned
    std::uint64_t events = 0;     //!< events decoded
    std::uint64_t functions = 0;  //!< names in the function table
    std::uint64_t liveAtExit = 0; //!< extents live at the footer
    std::uint64_t leakedBytes = 0; //!< bytes live at the footer
    bool captureProvenance = false; //!< header's live-capture flag
    bool sawFooter = false;       //!< 0xFF marker was reached
};

/** Full result of one flow pass over a trace. */
struct FlowAnalysis
{
    std::vector<FlowFinding> findings;
    std::vector<std::string> functionNames; //!< from the footer table
    FlowLintStats stats;

    /** Resolve a function id against the footer table. */
    std::string fnName(FnId fn) const;

    /** Render a site as "event N (byte B) in <fn>". */
    std::string describeSite(const FlowSite &site) const;
};

/**
 * The shadow-heap pass, fed each event by the trace linter's decode
 * loop (lintTrace with a flow result).
 */
class FlowPass
{
  public:
    /** A pass into @p out over the @p bytes -byte trace @p reader
     *  has opened. */
    static std::unique_ptr<FlowPass> start(const TraceReader &reader,
                                           std::uint64_t bytes,
                                           FlowAnalysis &out);
    virtual ~FlowPass() = default;

    virtual void onEvent(const Event &event, std::uint64_t offset) = 0;

    /** End where @p reader stopped, rendering the findings' sites. */
    virtual void finish(const TraceReader &reader) = 0;
};

/**
 * Run the shadow-heap flow pass over an in-memory trace.  Framing
 * defects (bad header, truncated varints, unknown tags) silently end
 * the scan -- the trace linter owns reporting those; lintTrace with a
 * flow result gets both from one decode.  Never throws on malformed
 * input.
 */
FlowAnalysis analyzeTraceFlow(std::string_view data);

/**
 * Flow-lint an in-memory trace into @p report.  When @p analysis is
 * non-null the structured findings are copied out for export (e.g.
 * into diag flow-incident documents).
 */
FlowLintStats lintTraceFlow(std::string_view data, Report &report,
                            FlowAnalysis *analysis = nullptr);

} // namespace analysis

} // namespace heapmd

#endif // HEAPMD_ANALYSIS_FLOW_LINT_HH
