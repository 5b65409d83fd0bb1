#include "analysis/trace_lint.hh"

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "analysis/flow_lint.hh"
#include "heapgraph/extent_arena.hh"
#include "runtime/events.hh"
#include "runtime/process.hh"
#include "telemetry/telemetry.hh"
#include "trace/segment_set.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_source.hh"

namespace heapmd
{

namespace analysis
{

namespace
{

/** Decoded bytes between two releases of a loaded trace's pages. */
constexpr std::uint64_t kReleaseStride = std::uint64_t{1} << 20;

/** Event kind names as the findings spell them, indexed by tag. */
constexpr const char *kKindNames[] = {
    "Alloc", "Free", "Realloc", "Write", "Read", "FnEnter", "FnExit",
};

/**
 * Live and freed extents, for the event-ordering rules.  The two are
 * disjoint -- an allocation sweeps the freed extents it overlaps and
 * is rejected if it overlaps a live one, and a free turns a live
 * extent into a freed one -- so both share one page-indexed arena.
 * A deep pass builds one only where the flow pass stops answering.
 */
class ExtentTracker
{
  public:
    /** Take over an extent of a model that agrees with this one. */
    void
    restore(Addr addr, std::uint64_t size, bool freed)
    {
        extents_.insert(Extent{addr, size, freed});
    }

    /** @return false when [addr, addr+size) overlaps a live extent. */
    bool
    allocate(Addr addr, std::uint64_t size)
    {
        // Address reuse resurrects freed ranges as live again.
        bool clash = false;
        extents_.overlapping(addr, size, hits_);
        for (std::uint32_t slot : hits_) {
            if (extents_[slot].freed)
                extents_.erase(slot);
            else
                clash = true;
        }
        if (!clash)
            extents_.insert(Extent{addr, size, false});
        return !clash;
    }

    /** @return false when @p addr is not the start of a live extent. */
    bool
    free(Addr addr)
    {
        const std::uint32_t slot = extents_.startAt(addr);
        if (slot == ExtentArena<Extent>::kNone || extents_[slot].freed)
            return false;
        extents_[slot].freed = true;
        return true;
    }

    /** True when @p addr falls inside a freed (not reused) extent. */
    bool
    insideFreed(Addr addr) const
    {
        const std::uint32_t slot = extents_.owner(addr);
        return slot != ExtentArena<Extent>::kNone && extents_[slot].freed;
    }

    void clear() { extents_.clear(); }

  private:
    struct Extent
    {
        Addr base = 0;
        std::uint64_t size = 0;
        bool freed = false;
    };

    ExtentArena<Extent> extents_;
    std::vector<std::uint32_t> hits_; //!< overlapping() scratch
};

/**
 * The replay of one lint pass: the fold is called at the first header
 * that decodes, and its Process then gets every later segment's events.
 */
struct Replay
{
    const TraceFold &fold;
    Process *process = nullptr;
    std::uint64_t bytes = 0; //!< decoded into process
};

/** Shared state of one lint pass. */
struct Linter
{
    Report &report;
    TraceLintStats stats;
    /**
     * The ordering rules' extents.  Null in a deep pass until the
     * flow pass first refuses to answer them (feedFlow).
     */
    ExtentTracker *extents = nullptr;
    /** The extents when this pass holds its own. */
    std::unique_ptr<ExtentTracker> own_extents;
    /** The flow pass's answer for the current event. */
    FlowPass::Ordering answer;
    /** First offset each function id was referenced at. */
    std::map<FnId, std::uint64_t> fn_uses;
    /** Header declared live-capture provenance. */
    bool capture = false;
    /**
     * Force truncation findings to errors even under capture
     * provenance.  Set for non-final segments of a rotating set:
     * rotation finalizes a segment before creating its successor, so
     * a cut-short mid-chain segment is corruption, not a kill
     * artifact.
     */
    bool truncation_is_error = false;
    /** The replay's Process: gets each event while the report is
     *  clean. */
    Process *process = nullptr;
    /** The flow pass, until it stops. */
    std::unique_ptr<FlowPass> flow;
    /** The file being linted, whose decoded pages are released. */
    const trace::LoadedTrace *loaded = nullptr;

    Linter(Report &rep, ExtentTracker *ext) : report(rep), extents(ext) {}

    /** Give the pass an empty tracker of its own. */
    ExtentTracker &
    ownExtents()
    {
        own_extents = std::make_unique<ExtentTracker>();
        extents = own_extents.get();
        return *own_extents;
    }

    /**
     * Report a truncation finding: an error for offline-recorded
     * traces, a warning for capture-provenance ones (the preloaded
     * child may have been killed mid-run; the flushed prefix is the
     * expected artifact, not a corrupt one).
     */
    void
    truncation(const char *rule, std::uint64_t offset,
               std::string message)
    {
        if (capture && !truncation_is_error) {
            report.warningAtByte(rule, offset,
                                 message + " (expected for a killed "
                                           "live-capture child)");
        } else {
            report.errorAtByte(rule, offset, std::move(message));
        }
    }

    const FlowPass::Ordering *feedFlow(const Event &event,
                                       std::uint64_t offset);
    void lintEvent(std::uint64_t offset, const Event &event,
                   const FlowPass::Ordering *answered);
    void lintFault(const trace::Fault &fault, std::uint64_t size);
    void lintBody(TraceReader &reader, std::uint64_t size);
    void run(std::string_view data, Replay *replay = nullptr,
             FlowAnalysis *flow_result = nullptr);
};

/**
 * Hand @p event to the flow pass.  While the ordering rules have no
 * extents of their own, the pass answers them; at the first event it
 * refuses, the rules take over its extents as they stand and keep
 * their own from then on.
 *
 * @return the pass's answer, or nullptr once the rules keep their own.
 */
const FlowPass::Ordering *
Linter::feedFlow(const Event &event, std::uint64_t offset)
{
    if (extents == nullptr) {
        answer = FlowPass::Ordering();
        if (flow->answer(event, offset, answer))
            return &answer;
        ExtentTracker &mine = ownExtents();
        flow->forEachExtent(
            [&](Addr addr, std::uint64_t size, bool freed) {
                mine.restore(addr, size, freed);
            });
    }
    flow->onEvent(event, offset);
    return nullptr;
}

/** Apply the rules to @p event, asking @p answered if it is set and
 *  the extents otherwise. */
void
Linter::lintEvent(std::uint64_t offset, const Event &event,
                  const FlowPass::Ordering *answered)
{
    switch (event.kind) {
      case EventKind::Alloc:
        if (event.size == 0) {
            report.errorAtByte("trace.zero-alloc", offset,
                               "allocation of size 0 at address " +
                                   std::to_string(event.addr));
        } else if (answered == nullptr &&
                   !extents->allocate(event.addr, event.size)) {
            report.errorAtByte(
                "trace.alloc-overlap", offset,
                "allocation [" + std::to_string(event.addr) + ", " +
                    std::to_string(event.addr + event.size) +
                    ") overlaps a live object");
        }
        break;
      case EventKind::Free:
        if (answered != nullptr ? !answered->liveStart
                                : !extents->free(event.addr)) {
            report.errorAtByte(
                "trace.free-before-alloc", offset,
                "free of address " + std::to_string(event.addr) +
                    " which is not the start of a live object "
                    "(never allocated, already freed, or interior)");
        }
        break;
      case EventKind::Realloc:
        if (answered != nullptr ? !answered->liveStart
                                : !extents->free(event.addr)) {
            report.errorAtByte(
                "trace.free-before-alloc", offset,
                "realloc of address " + std::to_string(event.addr) +
                    " which is not the start of a live object");
        }
        if (event.size != 0 && answered == nullptr &&
            !extents->allocate(event.value, event.size)) {
            report.errorAtByte(
                "trace.alloc-overlap", offset,
                "realloc target [" + std::to_string(event.value) +
                    ", " + std::to_string(event.value + event.size) +
                    ") overlaps a live object");
        }
        break;
      case EventKind::Write:
        if (answered != nullptr ? answered->insideFreed
                                : extents->insideFreed(event.addr)) {
            report.errorAtByte(
                "trace.write-after-free", offset,
                "pointer-write at address " +
                    std::to_string(event.addr) +
                    " lands inside a freed object");
        }
        break;
      case EventKind::Read:
        break;
      case EventKind::FnEnter:
      case EventKind::FnExit:
        fn_uses.try_emplace(event.fn, offset);
        break;
    }
    ++stats.events;
}

/** Render a decode fault of a @p size -byte trace as its finding. */
void
Linter::lintFault(const trace::Fault &fault, std::uint64_t size)
{
    using Site = trace::Fault::Site;
    const bool overlong = fault.recoverable();
    const bool unknown_tag =
        fault.site == Site::Event &&
        fault.tag > static_cast<int>(EventKind::FnExit);
    std::string message;
    switch (fault.site) {
      case Site::None:
        return;
      case Site::ShortHeader:
      case Site::Magic:
      case Site::Version:
      case Site::Flags:
        message = fault.headerText();
        break;
      case Site::NoFooter:
        message = "stream ends without the 0xFF footer marker (" +
                  std::to_string(stats.events) + " events decoded)";
        break;
      case Site::Event:
        if (unknown_tag) {
            // Framing is lost: varint boundaries downstream of an
            // unknown tag cannot be trusted, so the scan stops here.
            message = "unknown event tag " + std::to_string(fault.tag) +
                      "; cannot resynchronize, " +
                      std::to_string(size - fault.offset - 1) +
                      " byte(s) left unscanned";
        } else if (overlong) {
            message = std::string("LEB128 varint longer than 10 bytes "
                                  "in ") +
                      kKindNames[fault.tag] + " event";
        } else {
            message = std::string("stream ends inside a LEB128 varint "
                                  "of ") +
                      kKindNames[fault.tag] + " event at byte " +
                      std::to_string(fault.eventOffset);
        }
        break;
      case Site::FooterCount:
        message = overlong
                      ? "overlong function-table count varint"
                      : "stream ends inside the function-table count";
        break;
      case Site::NameLength:
        message = overlong
                      ? "overlong name-length varint for function " +
                            std::to_string(fault.index)
                      : "stream ends inside the function table after " +
                            std::to_string(fault.index) + " of " +
                            std::to_string(fault.count) + " names";
        break;
      case Site::Name:
        message = "function name " + std::to_string(fault.index) +
                  " declares " + std::to_string(fault.length) +
                  " bytes but only " +
                  std::to_string(size - fault.offset) + " remain";
        break;
    }
    // Only running out of bytes can be a killed capture's artifact.
    if (fault.inHeader() || overlong || unknown_tag)
        report.errorAtByte(fault.rule, fault.offset, std::move(message));
    else
        truncation(fault.rule, fault.offset, std::move(message));
}

/** Lint, and feed to the consumers, everything after a good header. */
void
Linter::lintBody(TraceReader &reader, std::uint64_t size)
{
    capture = reader.captureProvenance();
    stats.captureProvenance = capture;

    // Each event goes to the flow pass, then to the rules, then to the
    // replay.  Overlong varints are findings the scan continues past;
    // every other fault ends it, and the flow pass stops at the first
    // footer fault (no event follows one).
    // The pass never reads a byte twice, so every kReleaseStride
    // bytes a loaded file gives back the pages behind the cursor: a
    // worker then holds its heap graph, not its whole trace.
    Event event;
    std::uint64_t release_at =
        loaded != nullptr ? kReleaseStride : UINT64_MAX;
    for (;;) {
        while (reader.next(event)) {
            const std::uint64_t offset = reader.eventOffset();
            lintEvent(offset, event,
                      flow ? feedFlow(event, offset) : nullptr);
            if (process != nullptr && report.clean())
                process->onEvent(event);
            if (offset >= release_at) {
                loaded->releaseBefore(offset);
                release_at = offset + kReleaseStride;
            }
        }
        if (!reader.malformed())
            break;
        lintFault(reader.fault(), size);
        if (flow && reader.fault().inFooter()) {
            flow->finish(reader);
            flow.reset();
        }
        if (!reader.resume()) {
            stats.functions = reader.functionNames().size();
            return;
        }
    }

    // Function-table id continuity: every id referenced by an
    // FnEnter/FnExit event must have a name in the table.
    const std::uint64_t count = reader.functionNames().size();
    stats.functions = count;
    for (const auto &[fn, first_offset] : fn_uses) {
        if (fn >= count) {
            report.errorAtByte(
                "trace.fn-id-range", first_offset,
                "event references function id " + std::to_string(fn) +
                    " but the footer table has only " +
                    std::to_string(count) + " names");
        }
    }

    if (reader.offset() < size) {
        report.warningAtByte(
            "trace.trailing-bytes", reader.offset(),
            std::to_string(size - reader.offset()) +
                " byte(s) after the function table (footer at byte " +
                std::to_string(reader.eventOffset()) + ")");
    }
}

void
Linter::run(std::string_view data, Replay *replay,
            FlowAnalysis *flow_result)
{
    trace::MemorySource source(
        reinterpret_cast<const unsigned char *>(data.data()),
        data.size());
    TraceReader reader(source, TraceReader::Mode::Audit);
    if (replay != nullptr && !reader.fault().inHeader()) {
        if (replay->process == nullptr) {
            HEAPMD_COUNTER_INC("trace.replays");
            replay->process = &replay->fold(reader.captureProvenance());
        }
        reader.countAsReplay();
        process = replay->process;
    }
    if (flow_result != nullptr)
        flow = FlowPass::start(reader, data.size(), *flow_result);
    if (reader.fault().inHeader())
        lintFault(reader.fault(), data.size());
    else
        lintBody(reader, data.size());
    if (process != nullptr) {
        replay->bytes += reader.offset();
        // Rebuild the registry so reports symbolize correctly.
        for (const std::string &name : reader.functionNames())
            process->registry().intern(name);
    }
    if (reader.malformed())
        stats.malformed = reader.error();
    if (flow)
        flow->finish(reader);
}

/** Lint one monolithic trace; @p loaded, if set, holds @p data. */
TraceLintStats
lintOne(std::string_view data, Report &report, const TraceFold &fold,
        FlowAnalysis *flow, const trace::LoadedTrace *loaded)
{
    // A deep pass's ordering rules start out on the flow pass's
    // shadow heap (feedFlow).
    Linter linter(report, nullptr);
    if (flow == nullptr)
        linter.ownExtents();
    linter.stats.bytes = data.size();
    linter.stats.segments = 1;
    linter.loaded = loaded;
    if (!fold) {
        linter.run(data, nullptr, flow);
        return linter.stats;
    }
    HEAPMD_TRACE_SPAN("trace.replay");
    HEAPMD_PHASE_SPAN_NAMED(phase, "phase.decode");
    Replay replay{fold};
    linter.run(data, &replay, flow);
    phase.addBytes(replay.bytes);
    return linter.stats;
}

/** lintSegmentSet's loop: lint each segment, feeding @p replay. */
TraceLintStats
lintSegments(const std::string &base, Report &report, Replay *replay)
{
    TraceLintStats total;
    const std::vector<std::uint64_t> indices =
        trace::listSegmentIndices(base);
    if (indices.empty()) {
        report.error("trace.io",
                     "no trace segments found for '" + base + "'");
        return total;
    }

    // Live/freed extent state survives segment boundaries: the set is
    // one logical trace and cross-segment alloc/free pairing must
    // lint exactly as the concatenated stream would.
    ExtentTracker extents;
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < indices.size(); ++i) {
        const std::uint64_t index = indices[i];
        if (index != expected) {
            report.error(
                "trace.segment-gap",
                "segment " + std::to_string(expected) +
                    " of '" + base + "' is missing (next on disk is " +
                    std::to_string(index) +
                    "); extent state resets at the gap");
            // Ordering checks across the hole would be noise; framing
            // checks on the remaining segments are still worth it.
            extents.clear();
        }
        expected = index + 1;

        const std::string path =
            trace::resolveSegmentPath(base, index);
        if (path.empty()) {
            report.error("trace.io", "cannot open trace segment " +
                                         std::to_string(index) +
                                         " of '" + base + "'");
            continue;
        }
        // Compressed segments are inflated up front; the lint then
        // sees the same raw bytes either way (stats.bytes counts raw
        // trace bytes, not on-disk bytes).
        const trace::LoadedTrace segment(path);
        if (!segment.ok()) {
            report.error("trace.io",
                         segment.compressed()
                             ? "cannot read gzip segment '" + path +
                                   "': " + segment.error()
                             : "cannot open trace segment '" + path +
                                   "'");
            continue;
        }
        Linter linter(report, &extents);
        linter.stats.bytes = segment.bytes().size();
        linter.truncation_is_error = i + 1 < indices.size();
        linter.loaded = &segment;
        linter.run(segment.bytes(), replay);

        total.bytes += linter.stats.bytes;
        total.events += linter.stats.events;
        // The shim's registry persists across rotations, so the
        // newest footer's table is a superset of its predecessors.
        if (linter.stats.functions > total.functions)
            total.functions = linter.stats.functions;
        total.captureProvenance |= linter.stats.captureProvenance;
        // The first cut-short segment is where the set's replay
        // stopped (a truncated segment that is not the newest fails
        // the audit, which stops it too).  Its byte offset is within
        // that segment, so a later segment is named; a set cut in its
        // first segment reads like the monolithic trace.
        if (total.malformed.empty() && !linter.stats.malformed.empty())
            total.malformed =
                i == 0 ? linter.stats.malformed
                       : std::filesystem::path(path).filename().string() +
                             ": " + linter.stats.malformed;
        ++total.segments;
    }
    return total;
}

} // namespace

TraceLintStats
lintTrace(std::string_view data, Report &report,
          const TraceFold &fold, FlowAnalysis *flow)
{
    return lintOne(data, report, fold, flow, nullptr);
}

TraceLintStats
lintTraceFile(const trace::LoadedTrace &trace, Report &report,
              const TraceFold &fold, FlowAnalysis *flow)
{
    HEAPMD_TRACE_SPAN("audit.trace");
    HEAPMD_COUNTER_INC("audit.trace_lints");
    const std::size_t before = report.findings().size();
    if (!trace.ok()) {
        report.error("trace.io",
                     trace.compressed()
                         ? "cannot read gzip trace '" + trace.path() +
                               "': " + trace.error()
                         : "cannot open trace file '" + trace.path() +
                               "'");
        HEAPMD_COUNTER_INC("audit.findings");
        return {};
    }
    TraceLintStats stats;
    if (flow == nullptr) {
        stats = lintOne(trace.bytes(), report, fold, nullptr, &trace);
    } else {
        HEAPMD_PHASE_SPAN_NAMED(phase, "phase.deep_audit");
        HEAPMD_COUNTER_INC("audit.flow_lints");
        stats = lintOne(trace.bytes(), report, fold, flow, &trace);
        for (const FlowFinding &f : flow->findings)
            report.atByte(f.severity, f.rule, f.byteOffset, f.message);
        phase.addBytes(trace.bytes().size());
    }
    HEAPMD_COUNTER_ADD("audit.findings",
                       report.findings().size() - before);
    return stats;
}

TraceLintStats
lintSegmentSet(const std::string &base, Report &report,
               const TraceFold &fold)
{
    HEAPMD_TRACE_SPAN("audit.segments");
    HEAPMD_COUNTER_INC("audit.trace_lints");
    const std::size_t before = report.findings().size();
    TraceLintStats total;
    if (!fold) {
        total = lintSegments(base, report, nullptr);
    } else {
        HEAPMD_TRACE_SPAN("trace.replay");
        HEAPMD_PHASE_SPAN_NAMED(phase, "phase.decode");
        Replay replay{fold};
        total = lintSegments(base, report, &replay);
        phase.addBytes(replay.bytes);
    }
    HEAPMD_COUNTER_ADD("audit.findings",
                       report.findings().size() - before);
    return total;
}

} // namespace analysis

} // namespace heapmd
