/**
 * @file
 * Static linter for HMDT trace files.
 *
 * Validates a recorded trace against the format spec in
 * trace/trace_format.hh without replaying it into a Process: header
 * magic and version, LEB128 well-formedness (truncation and overlong
 * >10-byte encodings), event-tag validity, footer presence, function
 * table id continuity, and event-ordering invariants (no
 * free-before-alloc, no pointer-write into a freed object, no
 * overlapping live extents).  Findings carry byte offsets into the
 * trace.
 *
 * Framing: the linter decodes through TraceReader (Mode::Audit), the
 * same decoder replay uses, and renders each trace::Fault it stops at
 * as a finding.  An overlong varint keeps its value, so the linter
 * resumes past it; any other fault ends the scan.  The rules that need
 * the whole byte count (trailing bytes, bytes left after an unknown
 * tag) and the event-level rules are the linter's own.
 *
 * The linter's loop is the one decode of a trace or a segment set:
 * each event goes to the lint rules, then to a replay (TraceFold) and,
 * for a monolithic trace, to the flow pass (flow_lint.hh).
 *
 * Rule catalog (see DESIGN.md, "The audit subsystem"):
 *   trace.io                unreadable input file
 *   trace.bad-magic         first 4 bytes are not "HMDT"
 *   trace.bad-version       version word not a known version (1 or 2)
 *   trace.unknown-tag       event tag outside the EventKind range
 *   trace.varint-truncated  stream ends inside a LEB128 varint
 *   trace.varint-overlong   LEB128 varint longer than 10 bytes
 *   trace.no-footer         stream ends before the 0xFF footer marker
 *   trace.footer-truncated  stream ends inside the function table
 *   trace.fn-id-range       FnEnter/FnExit id >= function table size
 *   trace.zero-alloc        allocation event with size 0
 *   trace.alloc-overlap     allocation overlapping a live extent
 *   trace.free-before-alloc free/realloc of a non-live address
 *   trace.write-after-free  pointer-write into a freed extent
 *   trace.trailing-bytes    bytes after the function table (warning)
 *   trace.segment-gap       rotating segment set has a missing or
 *                           out-of-order segment index
 *
 * Capture provenance: when the version-2 header carries the
 * live-capture flag, the truncation family (trace.no-footer,
 * trace.footer-truncated, and a trace.varint-truncated that ends the
 * stream) is downgraded to warnings -- a preloaded child killed by
 * SIGKILL or _exit() legitimately leaves a truncated-but-lintable
 * trace.  Structural rules (overlaps, double frees, unknown tags)
 * stay errors regardless of provenance.
 */

#ifndef HEAPMD_ANALYSIS_TRACE_LINT_HH
#define HEAPMD_ANALYSIS_TRACE_LINT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "analysis/report.hh"
#include "trace/trace_source.hh"

namespace heapmd
{

class Process;

namespace analysis
{

struct FlowAnalysis;

/** Scan statistics of one trace lint pass. */
struct TraceLintStats
{
    std::uint64_t bytes = 0;     //!< total bytes scanned
    std::uint64_t events = 0;    //!< events decoded (well-formed ones)
    std::uint64_t functions = 0; //!< names in the function table
    std::uint64_t segments = 0;  //!< files linted (1 for a monolith)
    bool captureProvenance = false; //!< header's live-capture flag
    std::string malformed; //!< TraceReader::error() of a cut-short decode
};

/**
 * A replay fed by a lint pass: called once the header decodes, it
 * returns the Process for the header's capture provenance, which then
 * gets each event while the report has no error.  It counts as one
 * replay (trace.replays, phase.decode).
 */
using TraceFold = std::function<Process &(bool captureProvenance)>;

/**
 * Lint one trace from an in-memory buffer (zero-copy: the view is
 * only read, never retained past the call).  The same decode feeds
 * @p fold and, when @p flow is non-null, the flow pass.
 *
 * Keeps scanning after recoverable findings (event-ordering
 * violations, overlong varints) and stops only when framing is lost
 * (unknown tag) or the stream ends.
 */
TraceLintStats lintTrace(std::string_view data, Report &report,
                         const TraceFold &fold = {},
                         FlowAnalysis *flow = nullptr);

/**
 * Lint a trace file loaded once by trace::LoadedTrace, in place (a
 * mapped plain file costs no buffering copy; a gzip trace was
 * inflated by the loader); the pass releases a mapped file's pages
 * behind its cursor once per MiB (LoadedTrace::releaseBefore), so
 * the process keeps about a MiB of the file resident, not all of it.
 * Counts as one audit: the audit.trace span and the
 * audit.trace_lints / audit.findings counters.  A file that
 * failed to load is one trace.io finding and feeds nothing.  With
 * @p flow it is also one deep audit (phase.deep_audit), and the flow
 * findings follow the lint's in @p report.
 */
TraceLintStats lintTraceFile(const trace::LoadedTrace &trace,
                             Report &report,
                             const TraceFold &fold = {},
                             FlowAnalysis *flow = nullptr);

/**
 * Lint a rotating segment set (trace::segmentPath naming) rooted at
 * @p base as one logical trace.
 *
 * Each segment is linted with full per-file framing checks (its own
 * header, footer, and function table), while the live/freed extent
 * state carries *across* segments -- an object allocated in segment 0
 * and freed in segment 2 lints clean, exactly as it would in the
 * concatenated event stream.  Segment-set-specific rules:
 *
 *  - trace.segment-gap: a missing or out-of-order index (the extent
 *    state is reset at the gap so later segments are still checked
 *    for framing without cascading false ordering findings);
 *  - truncation in a non-final segment is always an error, capture
 *    provenance or not: the rotation protocol finalizes a segment
 *    before creating its successor, so only the newest file may be
 *    legitimately cut short.
 *
 * @p fold is called at the first segment whose header decodes; its
 * Process gets the events of every later segment too, and each
 * segment's footer names, as trace::SegmentChain does.  One replay.
 */
TraceLintStats lintSegmentSet(const std::string &base,
                              Report &report,
                              const TraceFold &fold = {});

} // namespace analysis

} // namespace heapmd

#endif // HEAPMD_ANALYSIS_TRACE_LINT_HH
