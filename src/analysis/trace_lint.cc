#include "analysis/trace_lint.hh"

#include <map>
#include <string_view>
#include <vector>

#include "analysis/trace_scan.hh"
#include "heapgraph/extent_arena.hh"
#include "runtime/events.hh"
#include "telemetry/telemetry.hh"
#include "trace/segment_set.hh"
#include "trace/trace_format.hh"
#include "trace/trace_source.hh"

namespace heapmd
{

namespace analysis
{

namespace
{

using Cursor = ScanCursor;

VarintStatus
readVarint(Cursor &cursor, std::uint64_t &value)
{
    return scanVarint(cursor, value);
}

/**
 * Live and freed extents, for the event-ordering rules.  The two are
 * disjoint -- an allocation sweeps the freed extents it overlaps and
 * is rejected if it overlaps a live one, and a free turns a live
 * extent into a freed one -- so both share one page-indexed arena.
 */
class ExtentTracker
{
  public:
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

/** Shared state of one lint pass. */
struct Linter
{
    Cursor cursor;
    Report &report;
    TraceLintStats stats;
    ExtentTracker &extents;
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

    Linter(std::string_view data, Report &rep, ExtentTracker &ext)
        : cursor(data), report(rep), extents(ext)
    {
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

    /**
     * Read the varints of one event, reporting ill-formed encodings.
     * @return false when the stream ended inside the event.
     */
    bool
    readFields(std::uint64_t event_offset, const char *kind_name,
               std::uint64_t *fields, int count)
    {
        for (int i = 0; i < count; ++i) {
            const std::uint64_t field_offset = cursor.offset();
            switch (readVarint(cursor, fields[i])) {
              case VarintStatus::Ok:
                break;
              case VarintStatus::Overlong:
                report.errorAtByte(
                    "trace.varint-overlong", field_offset,
                    std::string("LEB128 varint longer than 10 bytes "
                                "in ") +
                        kind_name + " event");
                break;
              case VarintStatus::Truncated:
                truncation(
                    "trace.varint-truncated", field_offset,
                    std::string("stream ends inside a LEB128 varint "
                                "of ") +
                        kind_name + " event at byte " +
                        std::to_string(event_offset));
                return false;
            }
        }
        return true;
    }

    void checkHeader(bool &usable);
    bool lintEvent(std::uint64_t offset, EventKind kind);
    void lintFooter(std::uint64_t marker_offset);
    void run();
};

void
Linter::checkHeader(bool &usable)
{
    const ScannedHeader header = scanTraceHeader(cursor);
    usable = header.usable;
    if (!header.usable) {
        report.errorAtByte(header.rule, header.offset,
                           header.message);
        return;
    }
    capture = header.capture;
    stats.captureProvenance = capture;
}

bool
Linter::lintEvent(std::uint64_t offset, EventKind kind)
{
    std::uint64_t f[3] = {0, 0, 0};
    switch (kind) {
      case EventKind::Alloc: {
        if (!readFields(offset, "Alloc", f, 2))
            return false;
        const Addr addr = f[0];
        const std::uint64_t size = f[1];
        if (size == 0) {
            report.errorAtByte("trace.zero-alloc", offset,
                               "allocation of size 0 at address " +
                                   std::to_string(addr));
        } else if (!extents.allocate(addr, size)) {
            report.errorAtByte(
                "trace.alloc-overlap", offset,
                "allocation [" + std::to_string(addr) + ", " +
                    std::to_string(addr + size) +
                    ") overlaps a live object");
        }
        break;
      }
      case EventKind::Free: {
        if (!readFields(offset, "Free", f, 1))
            return false;
        if (!extents.free(f[0])) {
            report.errorAtByte(
                "trace.free-before-alloc", offset,
                "free of address " + std::to_string(f[0]) +
                    " which is not the start of a live object "
                    "(never allocated, already freed, or interior)");
        }
        break;
      }
      case EventKind::Realloc: {
        if (!readFields(offset, "Realloc", f, 3))
            return false;
        const Addr old_addr = f[0];
        const Addr new_addr = f[1];
        const std::uint64_t size = f[2];
        if (!extents.free(old_addr)) {
            report.errorAtByte(
                "trace.free-before-alloc", offset,
                "realloc of address " + std::to_string(old_addr) +
                    " which is not the start of a live object");
        }
        if (size != 0 && !extents.allocate(new_addr, size)) {
            report.errorAtByte(
                "trace.alloc-overlap", offset,
                "realloc target [" + std::to_string(new_addr) +
                    ", " + std::to_string(new_addr + size) +
                    ") overlaps a live object");
        }
        break;
      }
      case EventKind::Write: {
        if (!readFields(offset, "Write", f, 2))
            return false;
        const Addr addr = f[0];
        if (extents.insideFreed(addr)) {
            report.errorAtByte(
                "trace.write-after-free", offset,
                "pointer-write at address " + std::to_string(addr) +
                    " lands inside a freed object");
        }
        break;
      }
      case EventKind::Read:
        if (!readFields(offset, "Read", f, 1))
            return false;
        break;
      case EventKind::FnEnter:
      case EventKind::FnExit: {
        const char *name =
            kind == EventKind::FnEnter ? "FnEnter" : "FnExit";
        if (!readFields(offset, name, f, 1))
            return false;
        fn_uses.emplace(static_cast<FnId>(f[0]), offset);
        break;
      }
    }
    ++stats.events;
    return true;
}

void
Linter::lintFooter(std::uint64_t marker_offset)
{
    std::uint64_t count = 0;
    std::uint64_t offset = cursor.offset();
    switch (readVarint(cursor, count)) {
      case VarintStatus::Ok:
        break;
      case VarintStatus::Overlong:
        report.errorAtByte("trace.varint-overlong", offset,
                           "overlong function-table count varint");
        break;
      case VarintStatus::Truncated:
        truncation("trace.footer-truncated", offset,
                   "stream ends inside the function-table count");
        return;
    }

    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t len = 0;
        offset = cursor.offset();
        switch (readVarint(cursor, len)) {
          case VarintStatus::Ok:
            break;
          case VarintStatus::Overlong:
            report.errorAtByte("trace.varint-overlong", offset,
                               "overlong name-length varint for "
                               "function " +
                                   std::to_string(i));
            break;
          case VarintStatus::Truncated:
            truncation(
                "trace.footer-truncated", offset,
                "stream ends inside the function table after " +
                    std::to_string(i) + " of " +
                    std::to_string(count) + " names");
            return;
        }
        if (len > cursor.remaining()) {
            truncation(
                "trace.footer-truncated", cursor.offset(),
                "function name " + std::to_string(i) + " declares " +
                    std::to_string(len) + " bytes but only " +
                    std::to_string(cursor.remaining()) + " remain");
            return;
        }
        cursor.skip(len);
        ++stats.functions;
    }

    // Function-table id continuity: every id referenced by an
    // FnEnter/FnExit event must have a name in the table.
    for (const auto &[fn, first_offset] : fn_uses) {
        if (fn >= count) {
            report.errorAtByte(
                "trace.fn-id-range", first_offset,
                "event references function id " + std::to_string(fn) +
                    " but the footer table has only " +
                    std::to_string(count) + " names");
        }
    }

    if (!cursor.atEnd()) {
        report.warningAtByte(
            "trace.trailing-bytes", cursor.offset(),
            std::to_string(cursor.remaining()) +
                " byte(s) after the function table (footer at byte " +
                std::to_string(marker_offset) + ")");
    }
}

void
Linter::run()
{
    bool header_ok = false;
    checkHeader(header_ok);
    if (!header_ok)
        return;

    for (;;) {
        const std::uint64_t offset = cursor.offset();
        const int tag = cursor.get();
        if (tag < 0) {
            truncation("trace.no-footer", offset,
                       "stream ends without the 0xFF footer marker (" +
                           std::to_string(stats.events) +
                           " events decoded)");
            return;
        }
        if (tag == trace::kFooterMarker) {
            lintFooter(offset);
            return;
        }
        if (tag > static_cast<int>(EventKind::FnExit)) {
            // Framing is lost: varint boundaries downstream of an
            // unknown tag cannot be trusted, so stop here.
            report.errorAtByte(
                "trace.unknown-tag", offset,
                "unknown event tag " + std::to_string(tag) +
                    "; cannot resynchronize, " +
                    std::to_string(cursor.remaining()) +
                    " byte(s) left unscanned");
            return;
        }
        if (!lintEvent(offset, static_cast<EventKind>(tag)))
            return;
    }
}

} // namespace

TraceLintStats
lintTrace(std::string_view data, Report &report)
{
    ExtentTracker extents;
    Linter linter(data, report, extents);
    linter.stats.bytes = data.size();
    linter.stats.segments = 1;
    linter.run();
    return linter.stats;
}

TraceLintStats
lintTraceFile(const trace::LoadedTrace &trace, Report &report)
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
    const TraceLintStats stats = lintTrace(trace.bytes(), report);
    HEAPMD_COUNTER_ADD("audit.findings",
                       report.findings().size() - before);
    return stats;
}

TraceLintStats
lintSegmentSet(const std::string &base, Report &report)
{
    HEAPMD_TRACE_SPAN("audit.segments");
    HEAPMD_COUNTER_INC("audit.trace_lints");
    const std::size_t before = report.findings().size();

    TraceLintStats total;
    const std::vector<std::uint64_t> indices =
        trace::listSegmentIndices(base);
    if (indices.empty()) {
        report.error("trace.io",
                     "no trace segments found for '" + base + "'");
        HEAPMD_COUNTER_INC("audit.findings");
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
        Linter linter(segment.bytes(), report, extents);
        linter.stats.bytes = segment.bytes().size();
        linter.truncation_is_error = i + 1 < indices.size();
        linter.run();

        total.bytes += linter.stats.bytes;
        total.events += linter.stats.events;
        // The shim's registry persists across rotations, so the
        // newest footer's table is a superset of its predecessors.
        if (linter.stats.functions > total.functions)
            total.functions = linter.stats.functions;
        total.captureProvenance |= linter.stats.captureProvenance;
        ++total.segments;
    }

    HEAPMD_COUNTER_ADD("audit.findings",
                       report.findings().size() - before);
    return total;
}

} // namespace analysis

} // namespace heapmd
