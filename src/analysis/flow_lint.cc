#include "analysis/flow_lint.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <utility>

#include "analysis/trace_scan.hh"
#include "runtime/events.hh"
#include "telemetry/telemetry.hh"
#include "trace/trace_format.hh"

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

/** One tracked heap object, live or freed-awaiting-reuse. */
struct ShadowObject
{
    Addr base = kNullAddr;
    std::uint64_t size = 0;
    FlowSite alloc;
    FlowSite freed; //!< valid once is_freed
    bool is_freed = false;
    /** Pointer slots written into this object: offset -> target uid. */
    std::map<std::uint64_t, std::uint64_t> slots;
    /** Edges aimed at this object: (source uid, source offset). */
    std::set<std::pair<std::uint64_t, std::uint64_t>> incoming;
};

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

/** The whole flow pass: shadow heap, decode loop, finding emission. */
class FlowPass
{
  public:
    explicit FlowPass(std::string_view data)
        : cursor_(data)
    {
        result_.stats.bytes = data.size();
    }

    FlowAnalysis run();

  private:
    using ExtentMap = std::map<Addr, std::uint64_t>; // base -> uid

    ScanCursor cursor_;
    FlowAnalysis result_;
    bool capture_ = false;
    std::uint64_t event_index_ = 0;
    std::vector<FnId> fn_stack_;
    std::uint64_t next_uid_ = 0;
    ExtentMap live_;
    ExtentMap freed_;
    std::map<std::uint64_t, ShadowObject> objects_;
    /** Slot address -> evidence of the recycled target it points at. */
    std::map<Addr, StaleSlot> stale_;
    PendingDeref pending_;

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

    /** Extent containing @p addr, or map.end(). */
    ExtentMap::iterator find(ExtentMap &map, Addr addr)
    {
        auto it = map.upper_bound(addr);
        if (it == map.begin())
            return map.end();
        --it;
        const ShadowObject &obj = objects_.at(it->second);
        return addr - obj.base < obj.size ? it : map.end();
    }

    bool readFields(std::uint64_t *fields, int count);
    void setSlot(std::uint64_t source_uid, std::uint64_t offset,
                 Addr value);
    void clearSlot(std::uint64_t source_uid, std::uint64_t offset);
    void dropOutgoing(std::uint64_t uid, std::uint64_t from_offset);
    void eraseObject(std::uint64_t uid);
    void clearStaleRange(Addr base, std::uint64_t size);
    std::uint64_t resolveTarget(Addr value);

    /** Sink for findings emitted past the retention cap. */
    FlowFinding overflow_;

    void recycleFreed(Addr addr, std::uint64_t span,
                      std::uint64_t offset);
    void consumeLive(Addr addr, std::uint64_t span,
                     std::uint64_t offset);
    void handleAlloc(Addr addr, std::uint64_t size,
                     std::uint64_t offset);
    void handleFree(Addr addr, std::uint64_t offset, bool realloc);
    void handleRealloc(Addr old_addr, Addr new_addr,
                       std::uint64_t size, std::uint64_t offset);
    void handleWrite(Addr addr, Addr value, std::uint64_t offset);
    void handleRead(Addr addr, std::uint64_t offset);
    void checkPendingDeref(Addr addr, std::uint64_t offset,
                           bool is_write);
    void parseFooter();
    void reportLeaks(std::uint64_t footer_offset);
};

FlowFinding &
FlowPass::emit(const char *rule, Severity severity,
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

bool
FlowPass::readFields(std::uint64_t *fields, int count)
{
    for (int i = 0; i < count; ++i) {
        if (scanVarint(cursor_, fields[i]) ==
            VarintStatus::Truncated)
            return false;
        // Overlong varints still yield a value; the trace linter
        // owns the encoding finding, the flow pass keeps going.
    }
    return true;
}

/** Target object (live preferred, then freed) containing @p value. */
std::uint64_t
FlowPass::resolveTarget(Addr value)
{
    auto it = find(live_, value);
    if (it != live_.end())
        return it->second;
    it = find(freed_, value);
    if (it != freed_.end())
        return it->second;
    return ~std::uint64_t(0);
}

void
FlowPass::clearSlot(std::uint64_t source_uid, std::uint64_t offset)
{
    auto obj = objects_.find(source_uid);
    if (obj == objects_.end())
        return;
    auto slot = obj->second.slots.find(offset);
    if (slot == obj->second.slots.end())
        return;
    auto target = objects_.find(slot->second);
    if (target != objects_.end())
        target->second.incoming.erase({source_uid, offset});
    obj->second.slots.erase(slot);
}

void
FlowPass::setSlot(std::uint64_t source_uid, std::uint64_t offset,
                  Addr value)
{
    clearSlot(source_uid, offset);
    const std::uint64_t target_uid = resolveTarget(value);
    if (target_uid == ~std::uint64_t(0))
        return;
    objects_.at(source_uid).slots[offset] = target_uid;
    objects_.at(target_uid).incoming.insert({source_uid, offset});
}

/** Drop object @p uid's outgoing edges at offsets >= @p from_offset. */
void
FlowPass::dropOutgoing(std::uint64_t uid, std::uint64_t from_offset)
{
    ShadowObject &obj = objects_.at(uid);
    auto it = obj.slots.lower_bound(from_offset);
    while (it != obj.slots.end()) {
        auto target = objects_.find(it->second);
        if (target != objects_.end())
            target->second.incoming.erase({uid, it->first});
        it = obj.slots.erase(it);
    }
}

/** Remove every trace of object @p uid from the shadow heap. */
void
FlowPass::eraseObject(std::uint64_t uid)
{
    auto it = objects_.find(uid);
    if (it == objects_.end())
        return;
    ShadowObject &obj = it->second;
    dropOutgoing(uid, 0);
    for (const auto &[source, offset] : obj.incoming) {
        auto src = objects_.find(source);
        if (src != objects_.end())
            src->second.slots.erase(offset);
    }
    live_.erase(obj.base);
    freed_.erase(obj.base);
    clearStaleRange(obj.base, obj.size);
    objects_.erase(it);
}

/**
 * Forget tainted slots inside [base, base+size): the memory stopped
 * belonging to the live object the taint was recorded against, so a
 * later access there is some other rule's business.
 */
void
FlowPass::clearStaleRange(Addr base, std::uint64_t size)
{
    auto it = stale_.lower_bound(base);
    while (it != stale_.end() && it->first < base + size)
        it = stale_.erase(it);
}

/**
 * Sweep freed extents overlapping [addr, addr+span) out of the
 * shadow heap: the allocator just recycled that space.  Live edges
 * still aimed at a recycled extent are the dangerous half of a
 * dangling pointer -- the slots now alias an unrelated object -- but
 * clean programs routinely keep such addresses around as inert keys,
 * so instead of firing here each stale slot is tainted; a later load
 * of the slot fires flow.dangling_edge (see handleRead).
 */
void
FlowPass::recycleFreed(Addr addr, std::uint64_t span,
                       std::uint64_t offset)
{
    (void)offset;
    for (;;) {
        auto it = freed_.upper_bound(addr);
        if (it != freed_.begin()) {
            auto prev = std::prev(it);
            const ShadowObject &o = objects_.at(prev->second);
            if (addr - o.base < o.size)
                it = prev;
        }
        if (it == freed_.end() || it->first >= addr + span)
            break;
        const std::uint64_t uid = it->second;
        ShadowObject &victim = objects_.at(uid);
        for (const auto &[src_uid, src_off] : victim.incoming) {
            auto src = objects_.find(src_uid);
            if (src == objects_.end() || src->second.is_freed)
                continue;
            StaleSlot &taint =
                stale_[src->second.base + src_off];
            taint.victim_base = victim.base;
            taint.victim_size = victim.size;
            taint.victim_alloc = victim.alloc;
            taint.victim_freed = victim.freed;
            taint.recycle_addr = addr;
            taint.recycle_event = event_index_;
        }
        eraseObject(uid);
    }
}

/**
 * Sweep live extents overlapping [addr, addr+span): a structural bug
 * on replay traces (flow.overlap_alloc); on capture traces the shim's
 * missed-free address reuse, so the overlapped objects are implicitly
 * freed instead.
 */
void
FlowPass::consumeLive(Addr addr, std::uint64_t span,
                      std::uint64_t offset)
{
    for (;;) {
        auto it = live_.upper_bound(addr);
        if (it != live_.begin()) {
            auto prev = std::prev(it);
            const ShadowObject &o = objects_.at(prev->second);
            if (addr - o.base < o.size)
                it = prev;
        }
        if (it == live_.end() || it->first >= addr + span)
            break;
        const std::uint64_t uid = it->second;
        const ShadowObject &victim = objects_.at(uid);
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
        eraseObject(uid);
    }
}

void
FlowPass::handleAlloc(Addr addr, std::uint64_t size,
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
    recycleFreed(addr, span, offset);
    consumeLive(addr, span, offset);

    const std::uint64_t uid = next_uid_++;
    ShadowObject obj;
    obj.base = addr;
    obj.size = span;
    obj.alloc = here(offset);
    objects_.emplace(uid, std::move(obj));
    live_[addr] = uid;
}

void
FlowPass::handleFree(Addr addr, std::uint64_t offset, bool realloc)
{
    const char *verb = realloc ? "realloc" : "free";
    auto exact = live_.find(addr);
    if (exact != live_.end()) {
        const std::uint64_t uid = exact->second;
        dropOutgoing(uid, 0);
        ShadowObject &obj = objects_.at(uid);
        obj.is_freed = true;
        obj.freed = here(offset);
        freed_[addr] = uid;
        live_.erase(exact);
        clearStaleRange(obj.base, obj.size);
        return;
    }

    auto interior = find(live_, addr);
    if (interior != live_.end()) {
        const ShadowObject &obj = objects_.at(interior->second);
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

    auto freed = find(freed_, addr);
    if (freed != freed_.end()) {
        const ShadowObject &obj = objects_.at(freed->second);
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
FlowPass::handleRealloc(Addr old_addr, Addr new_addr,
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
        auto it = live_.find(old_addr);
        if (it != live_.end()) {
            const std::uint64_t uid = it->second;
            const std::uint64_t span = size == 0 ? 1 : size;
            const std::uint64_t old_span = objects_.at(uid).size;
            if (span < old_span) {
                dropOutgoing(uid, span);
                clearStaleRange(old_addr + span, old_span - span);
            } else if (span > old_span) {
                // The grown tail recycles whatever sat there.
                recycleFreed(old_addr + old_span, span - old_span,
                             offset);
                consumeLive(old_addr + old_span, span - old_span,
                            offset);
            }
            objects_.at(uid).size = span;
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
FlowPass::handleWrite(Addr addr, Addr value, std::uint64_t offset)
{
    checkPendingDeref(addr, offset, true);
    stale_.erase(addr); // overwriting the slot retires the taint
    auto owner = find(live_, addr);
    if (owner != live_.end()) {
        setSlot(owner->second, addr - owner->first, value);
        return;
    }

    auto freed = find(freed_, addr);
    if (freed != freed_.end()) {
        const ShadowObject &obj = objects_.at(freed->second);
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
FlowPass::checkPendingDeref(Addr addr, std::uint64_t offset,
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
FlowPass::handleRead(Addr addr, std::uint64_t offset)
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
FlowPass::parseFooter()
{
    std::uint64_t count = 0;
    if (scanVarint(cursor_, count) != VarintStatus::Ok)
        return;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t len = 0;
        if (scanVarint(cursor_, len) != VarintStatus::Ok)
            return;
        if (len > cursor_.remaining())
            return;
        result_.functionNames.emplace_back(cursor_.take(len));
        ++result_.stats.functions;
    }
}

void
FlowPass::reportLeaks(std::uint64_t footer_offset)
{
    struct SiteLeak
    {
        std::uint64_t objects = 0;
        std::uint64_t bytes = 0;
        FlowSite first;
        Addr first_base = kNullAddr;
    };
    std::map<FnId, SiteLeak> sites;
    for (const auto &[base, uid] : live_) {
        const ShadowObject &obj = objects_.at(uid);
        SiteLeak &leak = sites[obj.alloc.fn];
        if (leak.objects == 0) {
            leak.first = obj.alloc;
            leak.first_base = base;
        }
        ++leak.objects;
        leak.bytes += obj.size;
        ++result_.stats.liveAtExit;
        result_.stats.leakedBytes += obj.size;
    }
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

FlowAnalysis
FlowPass::run()
{
    ScanCursor &c = cursor_;
    const ScannedHeader header = scanTraceHeader(c);
    if (!header.usable)
        return std::move(result_);
    capture_ = header.capture;
    result_.stats.captureProvenance = capture_;

    for (;;) {
        const std::uint64_t offset = c.offset();
        const int tag = c.get();
        if (tag < 0)
            break; // truncated: the trace linter owns the finding
        if (tag == trace::kFooterMarker) {
            result_.stats.sawFooter = true;
            reportLeaks(offset);
            parseFooter();
            break;
        }
        if (tag > static_cast<int>(EventKind::FnExit))
            break; // framing lost at an unknown tag
        std::uint64_t f[3] = {0, 0, 0};
        switch (static_cast<EventKind>(tag)) {
          case EventKind::Alloc:
            if (!readFields(f, 2))
                return std::move(result_);
            pending_.armed = false; // allocator call, not a deref
            handleAlloc(f[0], f[1], offset);
            break;
          case EventKind::Free:
            if (!readFields(f, 1))
                return std::move(result_);
            pending_.armed = false;
            handleFree(f[0], offset, false);
            break;
          case EventKind::Realloc:
            if (!readFields(f, 3))
                return std::move(result_);
            pending_.armed = false;
            handleRealloc(f[0], f[1], f[2], offset);
            break;
          case EventKind::Write:
            if (!readFields(f, 2))
                return std::move(result_);
            handleWrite(f[0], f[1], offset);
            break;
          case EventKind::Read:
            if (!readFields(f, 1))
                return std::move(result_);
            handleRead(f[0], offset);
            break;
          case EventKind::FnEnter:
            if (!readFields(f, 1))
                return std::move(result_);
            fn_stack_.push_back(static_cast<FnId>(f[0]));
            break;
          case EventKind::FnExit:
            if (!readFields(f, 1))
                return std::move(result_);
            if (!fn_stack_.empty())
                fn_stack_.pop_back();
            break;
        }
        ++event_index_;
        ++result_.stats.events;
    }
    return std::move(result_);
}

} // namespace

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
    FlowPass pass(data);
    FlowAnalysis result = pass.run();

    // Site names live in the footer, so findings are rendered only
    // now: append the alloc/free provenance each rule promised.
    for (FlowFinding &f : result.findings) {
        if (f.allocSite.known)
            f.message += "; allocated at " +
                         result.describeSite(f.allocSite);
        if (f.freeSite.known)
            f.message +=
                "; freed at " + result.describeSite(f.freeSite);
    }
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

FlowLintStats
lintTraceFlowFile(const trace::LoadedTrace &trace, Report &report,
                  FlowAnalysis *analysis)
{
    HEAPMD_TRACE_SPAN("audit.flow");
    HEAPMD_PHASE_SPAN_NAMED(phase, "phase.deep_audit");
    HEAPMD_COUNTER_INC("audit.flow_lints");
    const std::size_t before = report.findings().size();
    const FlowLintStats stats =
        lintTraceFlow(trace.bytes(), report, analysis);
    phase.addBytes(trace.bytes().size());
    HEAPMD_COUNTER_ADD("audit.findings",
                       report.findings().size() - before);
    return stats;
}

} // namespace analysis

} // namespace heapmd
