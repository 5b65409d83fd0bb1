#include "analysis/flow_lint.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "analysis/trace_lint.hh"
#include "heapgraph/extent_arena.hh"
#include "runtime/events.hh"
#include "support/small_map.hh"
#include "trace/trace_reader.hh"

namespace heapmd
{

namespace analysis
{

namespace
{

/**
 * Cap on structured findings kept per pass.  A systematically-corrupt
 * trace (every event a double free) must not allocate without bound;
 * the scan keeps running for stats, further findings are dropped.
 */
constexpr std::size_t kMaxFlowFindings = 4096;

std::string
hex(std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::string
extent(Addr base, std::uint64_t size)
{
    return "[" + hex(base) + ", " + hex(base + size) + ")";
}

/** Inline capacity of a shadow object's edge maps (typical degree is
 *  0-2) before they spill to a hash map. */
constexpr std::size_t kInlineEdges = 2;

/**
 * One tracked heap object, live or freed-awaiting-reuse.  Objects are
 * named by their ExtentArena slot; edges are keyed by the absolute
 * address of the pointer slot, which is fixed while the source object
 * lives (an in-place realloc keeps its base).
 */
struct ShadowObject
{
    Addr base = kNullAddr;
    std::uint64_t size = 0;
    FlowSite alloc;
    FlowSite freed; //!< valid once is_freed
    bool is_freed = false;
    /** Pointer slots written into this object: slot address ->
     *  target object. */
    SmallMap<Addr, std::uint32_t, kInlineEdges> slots;
    /** Edges aimed at this object: slot address -> source object.
     *  Mirrors the sources' @c slots entries. */
    SmallMap<Addr, std::uint32_t, kInlineEdges> incoming;
};

using ShadowHeap = ExtentArena<ShadowObject>;
constexpr std::uint32_t kNoObject = ShadowHeap::kNone;

/**
 * A live pointer slot whose target was freed and then recycled.  The
 * slot still holds the old address, which now aliases an unrelated
 * object -- merely holding it is common in clean programs (registries
 * keep keys to erased entries), so flow.dangling_edge fires only if
 * the program later *loads* the slot, materializing the stale value.
 */
struct StaleSlot
{
    Addr victim_base = kNullAddr;
    std::uint64_t victim_size = 0;
    FlowSite victim_alloc;
    FlowSite victim_freed;
    /** The allocation that recycled the victim's extent. */
    Addr recycle_addr = kNullAddr;
    std::uint64_t recycle_event = 0;
};

/**
 * A just-loaded stale pointer, armed for one memory event.  Programs
 * load stale addresses for harmless reasons -- hash-table key probes
 * compare them, shared-payload traversals read through borrowed
 * pointers the owner already released -- so neither the load nor a
 * read through it is damning.  A *write* is: it lands inside
 * whatever object recycled the freed extent and corrupts it.  That
 * correlation -- load of a tainted slot, then the very next memory
 * event a write inside the old target -- fires flow.dangling_edge,
 * the recycled-memory dual of flow.write_freed.
 */
struct PendingDeref
{
    bool armed = false;
    Addr slot_addr = kNullAddr;
    std::uint64_t load_event = 0;
    StaleSlot taint;
};

/** The flow pass: shadow heap and finding emission. */
class ShadowPass final : public FlowPass
{
  public:
    ShadowPass(bool capture, std::uint64_t bytes, FlowAnalysis &out)
        : result_(out), capture_(capture)
    {
        result_ = FlowAnalysis();
        result_.stats.bytes = bytes;
        result_.stats.captureProvenance = capture;
    }

    void onEvent(const Event &event, std::uint64_t offset) override;
    void finish(const TraceReader &reader) override;

  private:
    FlowAnalysis &result_;
    bool capture_ = false;
    std::uint64_t event_index_ = 0;
    std::vector<FnId> fn_stack_;
    /**
     * The shadow heap: live and freed objects in one page-indexed
     * arena.  Their extents are disjoint -- an allocation sweeps every
     * object it overlaps before it is inserted -- so one owner lookup
     * answers both "live?" and "freed?".
     */
    ShadowHeap objects_;
    /** Slot address -> evidence of the recycled target it points at. */
    std::map<Addr, StaleSlot> stale_;
    PendingDeref pending_;
    /** Scratch for sweeps: overlapping objects, doomed slot keys. */
    std::vector<std::uint32_t> hits_;
    std::vector<Addr> doomed_;

    FnId currentFn() const
    {
        return fn_stack_.empty() ? kNoFunction : fn_stack_.back();
    }

    FlowSite here(std::uint64_t offset) const
    {
        FlowSite site;
        site.fn = currentFn();
        site.eventIndex = event_index_;
        site.byteOffset = offset;
        site.known = true;
        return site;
    }

    /** Severity of a rule given the trace's provenance. */
    Severity relaxed(Severity strict) const
    {
        if (!capture_)
            return strict;
        return strict == Severity::Error ? Severity::Warning
                                         : Severity::Note;
    }

    FlowFinding &emit(const char *rule, Severity severity,
                      std::uint64_t offset);

    void setSlot(std::uint32_t source, Addr slot_addr, Addr value);
    void clearSlot(std::uint32_t source, Addr slot_addr);
    void dropOutgoing(std::uint32_t obj, std::uint64_t from_offset);
    void eraseObject(std::uint32_t obj);
    void clearStaleRange(Addr base, std::uint64_t size);

    /** Sink for findings emitted past the retention cap. */
    FlowFinding overflow_;

    void sweep(Addr addr, std::uint64_t span, std::uint64_t offset);
    void handleAlloc(Addr addr, std::uint64_t size,
                     std::uint64_t offset);
    void handleFree(Addr addr, std::uint64_t offset, bool realloc);
    void handleRealloc(Addr old_addr, Addr new_addr,
                       std::uint64_t size, std::uint64_t offset);
    void handleWrite(Addr addr, Addr value, std::uint64_t offset);
    void handleRead(Addr addr, std::uint64_t offset);
    void checkPendingDeref(Addr addr, std::uint64_t offset,
                           bool is_write);
    void reportLeaks(std::uint64_t footer_offset);
};

FlowFinding &
ShadowPass::emit(const char *rule, Severity severity,
                 std::uint64_t offset)
{
    if (result_.findings.size() >= kMaxFlowFindings) {
        overflow_ = FlowFinding();
        return overflow_;
    }
    FlowFinding f;
    f.rule = rule;
    f.severity = severity;
    f.byteOffset = offset;
    f.eventIndex = event_index_;
    result_.findings.push_back(std::move(f));
    return result_.findings.back();
}

void
ShadowPass::clearSlot(std::uint32_t source, Addr slot_addr)
{
    ShadowObject &obj = objects_[source];
    auto slot = obj.slots.find(slot_addr);
    if (slot == obj.slots.end())
        return;
    objects_[slot->second].incoming.erase(slot_addr);
    obj.slots.erase(slot);
}

void
ShadowPass::setSlot(std::uint32_t source, Addr slot_addr, Addr value)
{
    clearSlot(source, slot_addr);
    // The target may be live or freed: a stale pointer still names
    // its old object until the extent is recycled.
    const std::uint32_t target = objects_.owner(value);
    if (target == kNoObject)
        return;
    objects_[source].slots.emplace(slot_addr, target);
    objects_[target].incoming.emplace(slot_addr, source);
}

/** Drop object @p obj's outgoing edges at offsets >= @p from_offset. */
void
ShadowPass::dropOutgoing(std::uint32_t obj, std::uint64_t from_offset)
{
    ShadowObject &rec = objects_[obj];
    doomed_.clear();
    for (const auto &[slot_addr, target] : rec.slots) {
        if (slot_addr - rec.base >= from_offset)
            doomed_.push_back(slot_addr);
    }
    for (Addr slot_addr : doomed_)
        clearSlot(obj, slot_addr);
}

/** Remove every trace of object @p obj from the shadow heap. */
void
ShadowPass::eraseObject(std::uint32_t obj)
{
    dropOutgoing(obj, 0);
    const ShadowObject &rec = objects_[obj];
    for (const auto &[slot_addr, source] : rec.incoming)
        objects_[source].slots.erase(slot_addr);
    clearStaleRange(rec.base, rec.size);
    objects_.erase(obj);
}

/**
 * Forget tainted slots inside [base, base+size): the memory stopped
 * belonging to the live object the taint was recorded against, so a
 * later access there is some other rule's business.
 */
void
ShadowPass::clearStaleRange(Addr base, std::uint64_t size)
{
    auto it = stale_.lower_bound(base);
    while (it != stale_.end() && it->first < base + size)
        it = stale_.erase(it);
}

/**
 * Sweep every object overlapping [addr, addr+span) out of the shadow
 * heap before an allocation claims the range: the freed ones first,
 * then the live ones, each in ascending address order.
 *
 * Freed objects: the allocator just recycled their space.  Live edges
 * still aimed at a recycled extent are the dangerous half of a
 * dangling pointer -- the slots now alias an unrelated object -- but
 * clean programs routinely keep such addresses around as inert keys,
 * so instead of firing here each stale slot is tainted; a later load
 * of the slot fires flow.dangling_edge (see handleRead).
 *
 * Live objects: a structural bug on replay traces
 * (flow.overlap_alloc); on capture traces the shim's missed-free
 * address reuse, so the overlapped objects are implicitly freed
 * instead.
 */
void
ShadowPass::sweep(Addr addr, std::uint64_t span, std::uint64_t offset)
{
    objects_.overlapping(addr, span, hits_);
    const auto live = std::stable_partition(
        hits_.begin(), hits_.end(),
        [&](std::uint32_t obj) { return objects_[obj].is_freed; });

    for (auto it = hits_.begin(); it != live; ++it) {
        const ShadowObject &victim = objects_[*it];
        for (const auto &[slot_addr, source] : victim.incoming) {
            if (objects_[source].is_freed)
                continue;
            StaleSlot &taint = stale_[slot_addr];
            taint.victim_base = victim.base;
            taint.victim_size = victim.size;
            taint.victim_alloc = victim.alloc;
            taint.victim_freed = victim.freed;
            taint.recycle_addr = addr;
            taint.recycle_event = event_index_;
        }
        eraseObject(*it);
    }

    for (auto it = live; it != hits_.end(); ++it) {
        const ShadowObject &victim = objects_[*it];
        if (!capture_) {
            FlowFinding &f = emit("flow.overlap_alloc",
                                  Severity::Error, offset);
            f.addr = addr;
            f.base = victim.base;
            f.size = victim.size;
            f.allocSite = victim.alloc;
            f.message = "allocation " + extent(addr, span) +
                        " overlaps live object " +
                        extent(victim.base, victim.size);
        }
        eraseObject(*it);
    }
}

void
ShadowPass::handleAlloc(Addr addr, std::uint64_t size,
                        std::uint64_t offset)
{
    if (size >> 63) {
        FlowFinding &f =
            emit("flow.negative_size", Severity::Error, offset);
        f.addr = addr;
        f.size = size;
        f.message = "allocation of " + hex(size) +
                    " bytes at " + hex(addr) +
                    " (negative when interpreted as ssize_t)";
        return;
    }
    const std::uint64_t span = size == 0 ? 1 : size;
    sweep(addr, span, offset);

    ShadowObject obj;
    obj.base = addr;
    obj.size = span;
    obj.alloc = here(offset);
    objects_.insert(std::move(obj));
}

void
ShadowPass::handleFree(Addr addr, std::uint64_t offset, bool realloc)
{
    const char *verb = realloc ? "realloc" : "free";
    const std::uint32_t owner = objects_.owner(addr);
    if (owner != kNoObject && !objects_[owner].is_freed) {
        ShadowObject &obj = objects_[owner];
        if (addr == obj.base) {
            dropOutgoing(owner, 0);
            obj.is_freed = true;
            obj.freed = here(offset);
            clearStaleRange(obj.base, obj.size);
            return;
        }
        FlowFinding &f =
            emit("flow.size_mismatch", Severity::Error, offset);
        f.addr = addr;
        f.base = obj.base;
        f.size = obj.size;
        f.allocSite = obj.alloc;
        f.message = std::string(verb) + " of interior pointer " +
                    hex(addr) + ": offset " +
                    std::to_string(addr - obj.base) +
                    " into live object " + extent(obj.base, obj.size);
        return;
    }

    if (owner != kNoObject) {
        const ShadowObject &obj = objects_[owner];
        FlowFinding &f =
            emit("flow.double_free", Severity::Error, offset);
        f.addr = addr;
        f.base = obj.base;
        f.size = obj.size;
        f.allocSite = obj.alloc;
        f.freeSite = obj.freed;
        f.lifetimeEvents =
            obj.freed.eventIndex - obj.alloc.eventIndex;
        f.message = "double " + std::string(verb) + " of " +
                    hex(addr) + ": object " +
                    extent(obj.base, obj.size) + " lived " +
                    std::to_string(f.lifetimeEvents) + " event(s)";
        if (addr != obj.base)
            f.message += " (interior pointer, offset " +
                         std::to_string(addr - obj.base) + ")";
        return;
    }

    FlowFinding &f =
        emit("flow.free_unallocated", Severity::Error, offset);
    f.addr = addr;
    f.message = std::string(verb) + " of " + hex(addr) +
                " which no live or freed heap extent covers";
}

void
ShadowPass::handleRealloc(Addr old_addr, Addr new_addr,
                          std::uint64_t size, std::uint64_t offset)
{
    if (size >> 63) {
        FlowFinding &f =
            emit("flow.negative_size", Severity::Error, offset);
        f.addr = new_addr;
        f.size = size;
        f.message = "realloc to " + hex(size) +
                    " bytes (negative when interpreted as ssize_t)";
        if (old_addr != kNullAddr)
            handleFree(old_addr, offset, true);
        return;
    }
    if (old_addr != kNullAddr && old_addr == new_addr) {
        // In-place resize: keep the object's identity and alloc
        // site, adjust the span, drop slots beyond the new end.
        const std::uint32_t obj = objects_.startAt(old_addr);
        if (obj != kNoObject && !objects_[obj].is_freed) {
            const std::uint64_t span = size == 0 ? 1 : size;
            const std::uint64_t old_span = objects_[obj].size;
            if (span < old_span) {
                dropOutgoing(obj, span);
                clearStaleRange(old_addr + span, old_span - span);
            } else if (span > old_span) {
                // The grown tail recycles whatever sat there.
                sweep(old_addr + old_span, span - old_span, offset);
            }
            if (span != old_span)
                objects_.resize(obj, span);
            return;
        }
        // Resizing something that is not a live base: same taxonomy
        // as freeing it, then the extent materializes anyway.
        handleFree(old_addr, offset, true);
        if (size != 0)
            handleAlloc(new_addr, size, offset);
        return;
    }
    if (old_addr != kNullAddr)
        handleFree(old_addr, offset, true);
    if (new_addr != kNullAddr && size != 0)
        handleAlloc(new_addr, size, offset);
}

void
ShadowPass::handleWrite(Addr addr, Addr value, std::uint64_t offset)
{
    checkPendingDeref(addr, offset, true);
    stale_.erase(addr); // overwriting the slot retires the taint
    const std::uint32_t owner = objects_.owner(addr);
    if (owner != kNoObject && !objects_[owner].is_freed) {
        setSlot(owner, addr, value);
        return;
    }

    if (owner != kNoObject) {
        const ShadowObject &obj = objects_[owner];
        FlowFinding &f = emit("flow.write_freed",
                              relaxed(Severity::Error), offset);
        f.addr = addr;
        f.base = obj.base;
        f.size = obj.size;
        f.allocSite = obj.alloc;
        f.freeSite = obj.freed;
        f.lifetimeEvents =
            obj.freed.eventIndex - obj.alloc.eventIndex;
        f.message = "pointer write at " + hex(addr) + " lands " +
                    std::to_string(addr - obj.base) +
                    " byte(s) into freed object " +
                    extent(obj.base, obj.size) +
                    " (use-after-free write; object lived " +
                    std::to_string(f.lifetimeEvents) + " event(s))";
        return;
    }

    FlowFinding &f = emit("flow.write_unmapped",
                          relaxed(Severity::Error), offset);
    f.addr = addr;
    f.message = "pointer write at " + hex(addr) +
                " which no heap extent ever covered";
}

/**
 * If the previous memory event loaded a tainted slot and this event
 * is a write landing inside the loaded pointer's old target, the
 * program just wrote through a dangling pointer into recycled
 * memory: fire flow.dangling_edge and retire the slot's taint.
 * Reads through the stale pointer stay silent (shared-payload
 * borrows make them routine).  Armed or not, the window closes --
 * it spans exactly one memory event.
 */
void
ShadowPass::checkPendingDeref(Addr addr, std::uint64_t offset,
                              bool is_write)
{
    if (!pending_.armed)
        return;
    const PendingDeref pending = pending_;
    pending_.armed = false;
    const StaleSlot &taint = pending.taint;
    if (!is_write || addr - taint.victim_base >= taint.victim_size)
        return;
    stale_.erase(pending.slot_addr);

    FlowFinding &f =
        emit("flow.dangling_edge", relaxed(Severity::Error), offset);
    f.addr = addr;
    f.base = taint.victim_base;
    f.size = taint.victim_size;
    f.allocSite = taint.victim_alloc;
    f.freeSite = taint.victim_freed;
    f.objects = 1;
    f.message =
        "write at " + hex(addr) + " through stale pointer loaded "
        "from slot " + hex(pending.slot_addr) + " at event " +
        std::to_string(pending.load_event) + ": target object " +
        extent(taint.victim_base, taint.victim_size) +
        " was freed and its extent recycled by allocation " +
        hex(taint.recycle_addr) + " at event " +
        std::to_string(taint.recycle_event);
}

/** A load of a tainted slot arms the one-event dereference window. */
void
ShadowPass::handleRead(Addr addr, std::uint64_t offset)
{
    checkPendingDeref(addr, offset, false);
    auto it = stale_.find(addr);
    if (it == stale_.end())
        return;
    pending_.armed = true;
    pending_.slot_addr = addr;
    pending_.load_event = event_index_;
    pending_.taint = it->second;
}

void
ShadowPass::reportLeaks(std::uint64_t footer_offset)
{
    struct SiteLeak
    {
        std::uint64_t objects = 0;
        std::uint64_t bytes = 0;
        FlowSite first;
        Addr first_base = kNullAddr;
    };
    std::map<FnId, SiteLeak> sites;
    objects_.forEach([&](std::uint32_t, const ShadowObject &obj) {
        if (obj.is_freed)
            return;
        // Each site names its lowest-addressed live object.
        SiteLeak &leak = sites[obj.alloc.fn];
        if (leak.objects == 0 || obj.base < leak.first_base) {
            leak.first = obj.alloc;
            leak.first_base = obj.base;
        }
        ++leak.objects;
        leak.bytes += obj.size;
        ++result_.stats.liveAtExit;
        result_.stats.leakedBytes += obj.size;
    });
    if (sites.empty())
        return;

    // Rank sites by leaked bytes (ties: function id) so the heaviest
    // leak leads the report.
    std::vector<std::pair<FnId, SiteLeak>> ranked(sites.begin(),
                                                  sites.end());
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto &a, const auto &b) {
                         return a.second.bytes > b.second.bytes;
                     });
    for (const auto &[fn, leak] : ranked) {
        FlowFinding &f =
            emit("flow.leak_at_exit",
                 capture_ ? Severity::Note : Severity::Error,
                 footer_offset);
        f.addr = leak.first_base;
        f.base = leak.first_base;
        f.allocSite = leak.first;
        f.objects = leak.objects;
        f.bytes = leak.bytes;
        f.message = std::to_string(leak.objects) +
                    " object(s) totalling " +
                    std::to_string(leak.bytes) +
                    " byte(s) still live at exit, first at " +
                    hex(leak.first_base);
    }
}

void
ShadowPass::onEvent(const Event &event, std::uint64_t offset)
{
    switch (event.kind) {
      case EventKind::Alloc:
        pending_.armed = false; // allocator call, not a deref
        handleAlloc(event.addr, event.size, offset);
        break;
      case EventKind::Free:
        pending_.armed = false;
        handleFree(event.addr, offset, false);
        break;
      case EventKind::Realloc:
        pending_.armed = false;
        handleRealloc(event.addr, event.value, event.size, offset);
        break;
      case EventKind::Write:
        handleWrite(event.addr, event.value, offset);
        break;
      case EventKind::Read:
        handleRead(event.addr, offset);
        break;
      case EventKind::FnEnter:
        fn_stack_.push_back(event.fn);
        break;
      case EventKind::FnExit:
        if (!fn_stack_.empty())
            fn_stack_.pop_back();
        break;
    }
    ++event_index_;
    ++result_.stats.events;
}

void
ShadowPass::finish(const TraceReader &reader)
{
    if (reader.sawFooter()) {
        result_.stats.sawFooter = true;
        reportLeaks(reader.eventOffset());
        result_.functionNames = reader.functionNames();
        result_.stats.functions = result_.functionNames.size();
    }
    // Site names live in the footer, so findings are rendered only
    // now: append the alloc/free provenance each rule promised.
    for (FlowFinding &f : result_.findings) {
        if (f.allocSite.known)
            f.message += "; allocated at " +
                         result_.describeSite(f.allocSite);
        if (f.freeSite.known)
            f.message +=
                "; freed at " + result_.describeSite(f.freeSite);
    }
}

} // namespace

std::unique_ptr<FlowPass>
FlowPass::start(const TraceReader &reader, std::uint64_t bytes,
                FlowAnalysis &out)
{
    return std::make_unique<ShadowPass>(reader.captureProvenance(),
                                        bytes, out);
}

std::string
FlowAnalysis::fnName(FnId fn) const
{
    if (fn == kNoFunction)
        return "(no function)";
    if (fn < functionNames.size())
        return functionNames[fn];
    return "fn#" + std::to_string(fn);
}

std::string
FlowAnalysis::describeSite(const FlowSite &site) const
{
    if (!site.known)
        return "(unknown site)";
    return "event " + std::to_string(site.eventIndex) + " (byte " +
           std::to_string(site.byteOffset) + ") in " +
           fnName(site.fn);
}

FlowAnalysis
analyzeTraceFlow(std::string_view data)
{
    Report lint;
    FlowAnalysis result;
    lintTrace(data, lint, {}, &result);
    return result;
}

FlowLintStats
lintTraceFlow(std::string_view data, Report &report,
              FlowAnalysis *analysis)
{
    FlowAnalysis result = analyzeTraceFlow(data);
    for (const FlowFinding &f : result.findings)
        report.atByte(f.severity, f.rule, f.byteOffset, f.message);
    const FlowLintStats stats = result.stats;
    if (analysis)
        *analysis = std::move(result);
    return stats;
}

} // namespace analysis

} // namespace heapmd
