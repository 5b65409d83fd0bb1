#include "heapgraph/heap_graph.hh"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

#include "support/logging.hh"
#include "support/prefetch.hh"
#include "telemetry/telemetry.hh"

namespace heapmd
{

ObjectId
HeapGraph::allocate(Addr addr, std::uint64_t size, FnId site, Tick tick)
{
    if (addr == kNullAddr)
        HEAPMD_PANIC("allocate at null address");
    if (size == 0)
        HEAPMD_PANIC("allocate with size 0");

    // Overlap checks: any live start inside the new extent, then an
    // earlier-starting object covering its first byte.
    Addr clash_addr = 0;
    std::uint32_t clash_slot = PageIndex::kNoSlot;
    if (pages_.firstStartIn(addr, addr + size, clash_addr, clash_slot))
        HEAPMD_PANIC("allocation [", addr, ", +", size,
                     ") overlaps a live object at ", clash_addr);
    const std::uint32_t owner = pages_.lookup(addr);
    if (owner != PageIndex::kNoSlot) {
        const ObjectRecord &before = hot_[owner];
        if (before.contains(addr))
            HEAPMD_PANIC("allocation at ", addr,
                         " lands inside live object ", before.id);
    }

    const std::uint32_t slot = alloc_.acquire();
    if (slot == hot_.size()) {
        hot_.push();
        cold_.push();
    }
    ObjectRecord &rec = hot_[slot];
    rec.id = alloc_.idOf(slot);
    rec.addr = addr;
    rec.size = size;
    cold_[slot].allocSite = site;
    cold_[slot].allocTick = tick;
    pages_.insert(addr, size, slot);
    hist_.addVertex();

    ++stats_.allocs;
    stats_.liveBytes += size;
    stats_.peakLiveBytes = std::max(stats_.peakLiveBytes,
                                    stats_.liveBytes);
    stats_.peakVertices = std::max(stats_.peakVertices,
                                   hist_.vertexCount());
    noteEvent();
    return rec.id;
}

bool
HeapGraph::free(Addr addr)
{
    const std::uint32_t slot = pages_.startAt(addr);
    if (slot == PageIndex::kNoSlot) {
        ++stats_.unknownFrees;
        noteEvent();
        return false;
    }
    severAndRelease(slot);
    noteEvent();
    return true;
}

void
HeapGraph::severAndRelease(std::uint32_t slot)
{
    ObjectRecord &rec = hot_[slot];

    // Severing touches every neighbour record in turn; issue all the
    // fetches up front so they overlap.  Targets and sources of live
    // edges are live by invariant, so slotOf() suffices (no
    // generation check needed just to form the prefetch address).
    for (const auto &[slot_addr, target] : rec.slots) {
        (void)slot_addr;
        alloc_.prefetchMeta(SlotAllocator::slotOf(target));
        prefetchRead(&hot_[SlotAllocator::slotOf(target)]);
    }
    for (const auto &[slot_addr, src] : rec.inRefs) {
        (void)slot_addr;
        alloc_.prefetchMeta(SlotAllocator::slotOf(src));
        prefetchRead(&hot_[SlotAllocator::slotOf(src)]);
    }

    // Sever out-edges: every slot this object holds.
    while (!rec.slots.empty())
        removeEdgeInstance(rec, rec.slots.begin()->first);

    // Sever in-edges: every slot elsewhere that targets this object.
    while (!rec.inRefs.empty()) {
        const auto [slot_addr, src_id] = *rec.inRefs.begin();
        ObjectRecord *src = mutableById(src_id);
        if (src == nullptr)
            HEAPMD_PANIC("in-ref from freed object ", src_id);
        removeEdgeInstance(*src, slot_addr);
    }

    hist_.removeVertex(rec.indegree(), rec.outdegree());
    stats_.liveBytes -= rec.size;
    ++stats_.frees;
    pages_.erase(rec.addr, rec.size);
    rec = ObjectRecord{}; // also drops spilled SmallMap storage
    alloc_.release(slot);
}

ObjectId
HeapGraph::reallocate(Addr old_addr, Addr new_addr,
                      std::uint64_t new_size, FnId site, Tick tick)
{
    ++stats_.reallocs;
    noteEvent();

    if (old_addr == kNullAddr) // realloc(NULL, n) == malloc(n)
        return allocate(new_addr, new_size, site, tick);

    const std::uint32_t slot = pages_.startAt(old_addr);
    if (slot == PageIndex::kNoSlot) {
        ++stats_.unknownFrees;
        if (new_size == 0)
            return kNoObject;
        return allocate(new_addr, new_size, site, tick);
    }

    if (new_size == 0) { // realloc(p, 0) == free(p)
        free(old_addr);
        return kNoObject;
    }

    ObjectRecord &old_rec = hot_[slot];

    if (new_addr == old_addr) {
        // In-place resize: in-edges survive; slots beyond the new
        // extent are severed when shrinking.
        if (new_size > old_rec.size) {
            Addr clash_addr = 0;
            std::uint32_t clash_slot = PageIndex::kNoSlot;
            if (pages_.firstStartIn(old_addr + 1, old_addr + new_size,
                                    clash_addr, clash_slot))
                HEAPMD_PANIC("in-place realloc grows into object at ",
                             clash_addr);
        }
        std::vector<Addr> doomed;
        for (const auto &[slot_addr, target] : old_rec.slots) {
            (void)target;
            if (slot_addr - old_rec.addr >= new_size)
                doomed.push_back(slot_addr);
        }
        for (Addr slot_addr : doomed)
            removeEdgeInstance(old_rec, slot_addr);
        pages_.erase(old_addr, old_rec.size);
        pages_.insert(old_addr, new_size, slot);
        stats_.liveBytes += new_size; // adjust live-byte accounting
        stats_.liveBytes -= old_rec.size;
        stats_.peakLiveBytes = std::max(stats_.peakLiveBytes,
                                        stats_.liveBytes);
        old_rec.size = new_size;
        return old_rec.id;
    }

    // Moving realloc: capture surviving out-slots (memcpy semantics),
    // free the old extent (in-edges dangle), then rebuild.
    struct SavedSlot { std::uint64_t offset; ObjectId target; };
    std::vector<SavedSlot> saved;
    saved.reserve(old_rec.slots.size());
    const ObjectId old_id = old_rec.id;
    for (const auto &[slot_addr, target] : old_rec.slots) {
        const std::uint64_t offset = slot_addr - old_rec.addr;
        if (offset < new_size)
            saved.push_back({offset, target});
    }

    free(old_addr);

    const ObjectId new_id = allocate(new_addr, new_size, site, tick);
    ObjectRecord &new_rec = hot_[SlotAllocator::slotOf(new_id)];
    for (const SavedSlot &s : saved) {
        // A copied self-pointer still holds the *old* address: it now
        // dangles rather than re-targeting the moved object.
        if (s.target == old_id)
            continue;
        ObjectRecord *target = mutableById(s.target);
        if (target == nullptr)
            continue; // target freed while severing (defensive)
        addEdgeInstance(new_rec, new_addr + s.offset, *target);
    }
    return new_id;
}

std::size_t
HeapGraph::freeOverlapping(Addr addr, std::uint64_t size,
                          Addr exclude)
{
    // One pass: the object owning the range's first byte (it may
    // start before the range), then every start inside the range.
    std::vector<std::uint32_t> doomed;
    const ObjectRecord *owner = mutableOwnerOf(addr);
    if (owner != nullptr && owner->addr != exclude)
        doomed.push_back(SlotAllocator::slotOf(owner->id));
    pages_.forEachStartIn(addr + 1, addr + size,
                          [&](Addr start, std::uint32_t slot) {
                              if (start != exclude)
                                  doomed.push_back(slot);
                          });
    for (std::uint32_t slot : doomed)
        severAndRelease(slot);
    noteEvent();
    return doomed.size();
}

void
HeapGraph::write(Addr addr, Addr value)
{
    ++stats_.writes;

    // Resolve both page-index candidates before touching either
    // record: the writer and target records are independent fetches
    // from a multi-hundred-MB arena, and issuing both up front lets
    // the misses overlap instead of serializing owner -> target
    // behind the dependent branches below.  Edge removal never frees
    // an object or moves an extent, so the target candidate resolved
    // here stays valid across the had_edge sever.
    const std::uint32_t u_slot = pages_.lookup(addr);
    if (u_slot == PageIndex::kNoSlot) {
        // Stack/global/unmapped store: not a heap-graph vertex, so no
        // edge originates here (such referents stay "roots").
        ++stats_.ignoredWrites;
        noteEvent();
        return;
    }
    prefetchRead(&hot_[u_slot]); // overlaps the target's index probe
    const std::uint32_t v_slot =
        value == kNullAddr ? PageIndex::kNoSlot : pages_.lookup(value);
    if (v_slot != PageIndex::kNoSlot && v_slot != u_slot)
        prefetchRead(&hot_[v_slot]);

    ObjectRecord &owner = hot_[u_slot];
    if (!owner.contains(addr)) {
        ++stats_.ignoredWrites;
        noteEvent();
        return;
    }

    const auto sit = owner.slots.find(addr);
    const bool had_edge = sit != owner.slots.end();
    if (had_edge) {
        // Old target of the overwritten slot: a third independent
        // record; start its fetch before severing.
        alloc_.prefetchMeta(SlotAllocator::slotOf(sit->second));
        prefetchRead(&hot_[SlotAllocator::slotOf(sit->second)]);
        removeEdgeInstance(owner, addr);
    }

    ObjectRecord *target = nullptr;
    if (v_slot != PageIndex::kNoSlot) {
        ObjectRecord &cand = hot_[v_slot];
        if (cand.contains(value))
            target = &cand;
    }
    if (target != nullptr) {
        addEdgeInstance(owner, addr, *target);
        ++stats_.pointerWrites;
    } else if (had_edge) {
        ++stats_.clearedSlots;
    }
    noteEvent();
}

const ObjectRecord *
HeapGraph::objectAt(Addr addr) const
{
    return const_cast<HeapGraph *>(this)->mutableOwnerOf(addr);
}

const ObjectRecord *
HeapGraph::objectStartingAt(Addr addr) const
{
    const std::uint32_t slot = pages_.startAt(addr);
    return slot == PageIndex::kNoSlot ? nullptr : &hot_[slot];
}

const ObjectRecord *
HeapGraph::objectById(ObjectId id) const
{
    return const_cast<HeapGraph *>(this)->mutableById(id);
}

bool
HeapGraph::hasEdge(ObjectId u, ObjectId v) const
{
    const ObjectRecord *src = objectById(u);
    return src != nullptr && src->outNeighbors.count(v) != 0;
}

DegreeHistogram
HeapGraph::recomputeHistogram() const
{
    DegreeHistogram fresh;
    forEachObject([&](const ObjectRecord &rec) {
        fresh.addVertex();
        fresh.transition(0, 0, rec.indegree(), rec.outdegree());
    });
    return fresh;
}

void
HeapGraph::checkConsistency() const
{
    // From-scratch ordered/hashed oracles over the live object set:
    // the structures the slot-map + page-index store replaced.
    std::map<Addr, ObjectId> addr_oracle;
    std::unordered_map<ObjectId, const ObjectRecord *> id_oracle;
    forEachObject([&](const ObjectRecord &rec) {
        if (!addr_oracle.emplace(rec.addr, rec.id).second)
            HEAPMD_PANIC("duplicate live start address ", rec.addr);
        if (!id_oracle.emplace(rec.id, &rec).second)
            HEAPMD_PANIC("duplicate live object id ", rec.id);
    });

    if (id_oracle.size() != alloc_.liveCount())
        HEAPMD_PANIC("slot allocator live count drifted");
    if (addr_oracle.size() != id_oracle.size())
        HEAPMD_PANIC("object map and address map sizes differ");
    if (hist_.vertexCount() != id_oracle.size())
        HEAPMD_PANIC("histogram vertex count drifted");
    if (pages_.startCount() != id_oracle.size())
        HEAPMD_PANIC("page index start count drifted");
    if (alloc_.liveCount() + alloc_.freeCount() != alloc_.size())
        HEAPMD_PANIC("slot free-list bookkeeping drifted");

    // Address order / overlap, via the ordered oracle.
    Addr prev_end = 0;
    for (const auto &[addr, id] : addr_oracle) {
        const ObjectRecord &rec = *id_oracle.at(id);
        if (rec.addr != addr)
            HEAPMD_PANIC("address oracle key disagrees with record");
        if (addr < prev_end)
            HEAPMD_PANIC("live objects overlap at ", addr);
        prev_end = addr + rec.size;
    }

    std::uint64_t live_bytes = 0;
    std::uint64_t distinct_edges = 0;

    forEachObject([&](const ObjectRecord &rec) {
        const ObjectId id = rec.id;
        const std::uint32_t slot = SlotAllocator::slotOf(id);

        // Slot-map generation tags.
        if (!alloc_.live(slot) || alloc_.idOf(slot) != id ||
            SlotAllocator::genOf(id) != alloc_.generation(slot))
            HEAPMD_PANIC("slot generation disagrees with id ", id);

        // Page-index agreement with the record's extent: the exact
        // start, the first/middle/last byte, one byte past either
        // end, and the spanner entry of every covered page.
        if (pages_.startAt(rec.addr) != slot)
            HEAPMD_PANIC("page index start drifted at ", rec.addr);
        if (objectAt(rec.addr) != &rec ||
            objectAt(rec.addr + rec.size - 1) != &rec ||
            objectAt(rec.addr + rec.size / 2) != &rec)
            HEAPMD_PANIC("page index owner lookup drifted for ", id);
        if (objectAt(rec.addr + rec.size) == &rec ||
            objectAt(rec.addr - 1) == &rec)
            HEAPMD_PANIC("page index lookup overshoots extent of ",
                         id);
        // (Side-list extents write no spanners.)
        const std::uint64_t first_page = PageIndex::pageOf(rec.addr);
        const std::uint64_t last_page =
            PageIndex::isWide(rec.addr, rec.size)
                ? first_page
                : PageIndex::pageOf(rec.addr + rec.size - 1);
        for (std::uint64_t p = first_page + 1; p <= last_page; ++p) {
            if (objectAt(p << PageIndex::kPageShift) != &rec)
                HEAPMD_PANIC("page spanner missing for ", id,
                             " at page ", p);
        }

        live_bytes += rec.size;
        distinct_edges += rec.outNeighbors.size();

        // slots <-> outNeighbors multiplicity agreement.
        std::unordered_map<ObjectId, std::uint32_t> out_mult;
        for (const auto &[slot_addr, target] : rec.slots) {
            if (!rec.contains(slot_addr))
                HEAPMD_PANIC("slot ", slot_addr, " outside object ",
                             id);
            const ObjectRecord *t = objectById(target);
            if (t == nullptr)
                HEAPMD_PANIC("slot targets freed object ", target);
            ++out_mult[target];
            // Mirror entry must exist on the target.
            auto mir = t->inRefs.find(slot_addr);
            if (mir == t->inRefs.end() || mir->second != id)
                HEAPMD_PANIC("missing inRef mirror for slot ",
                             slot_addr);
        }
        if (out_mult != rec.outNeighbors)
            HEAPMD_PANIC("outNeighbors multiplicities drifted for ",
                         id);

        // inRefs <-> inNeighbors multiplicity agreement.
        std::unordered_map<ObjectId, std::uint32_t> in_mult;
        for (const auto &[slot_addr, src] : rec.inRefs) {
            const ObjectRecord *s = objectById(src);
            if (s == nullptr)
                HEAPMD_PANIC("inRef from freed object ", src);
            auto sit = s->slots.find(slot_addr);
            if (sit == s->slots.end() || sit->second != id)
                HEAPMD_PANIC("inRef without matching source slot");
            ++in_mult[src];
        }
        if (in_mult != rec.inNeighbors)
            HEAPMD_PANIC("inNeighbors multiplicities drifted for ",
                         id);
    });

    // Page-index structural invariants: every start entry references
    // a live object starting there, start arrays are strictly
    // offset-sorted, and every spanner covers its page's first byte
    // from an earlier page.
    std::size_t seen_starts = 0;
    pages_.forEachPage([&](std::uint64_t page_no,
                           const PageIndex::Page &pg) {
        const Addr base = page_no << PageIndex::kPageShift;
        int prev_off = -1;
        for (const PageIndex::Start &s : pg.starts) {
            if (static_cast<int>(s.offset) <= prev_off)
                HEAPMD_PANIC("page starts unsorted in page ",
                             page_no);
            prev_off = static_cast<int>(s.offset);
            if (!alloc_.live(s.slot) ||
                hot_[s.slot].addr != base + s.offset)
                HEAPMD_PANIC("page start entry drifted at ",
                             base + s.offset);
            ++seen_starts;
        }
        if (pg.spanner != PageIndex::kNoSlot) {
            if (!alloc_.live(pg.spanner))
                HEAPMD_PANIC("page spanner references dead slot");
            const ObjectRecord &sp = hot_[pg.spanner];
            if (sp.addr >= base || !sp.contains(base))
                HEAPMD_PANIC("page spanner does not cover page ",
                             page_no);
        }
    });
    // Side-list extents: wide ones only, each a live object's extent.
    pages_.forEachWide([&](const PageIndex::Wide &w) {
        if (!PageIndex::isWide(w.addr, w.size) || !alloc_.live(w.slot) ||
            hot_[w.slot].addr != w.addr || hot_[w.slot].size != w.size)
            HEAPMD_PANIC("page index side list drifted at ", w.addr);
        ++seen_starts;
    });
    if (seen_starts != pages_.startCount())
        HEAPMD_PANIC("page index start count disagrees with pages");

    if (live_bytes != stats_.liveBytes)
        HEAPMD_PANIC("liveBytes accounting drifted");
    if (distinct_edges != edge_count_)
        HEAPMD_PANIC("edge count drifted: ", edge_count_, " vs ",
                     distinct_edges);

    if (recomputeHistogram().counts() != hist_.counts())
        HEAPMD_PANIC("incremental histogram disagrees with recompute");
}

void
HeapGraph::clear()
{
    // Fold pending counter deltas first, then drop the live gauges to
    // zero (the flush brought them up to the current live values).
    flushTelemetry();
    HEAPMD_GAUGE_ADD("graph.nodes_live",
                     -static_cast<std::int64_t>(hist_.vertexCount()));
    HEAPMD_GAUGE_ADD("graph.edges_live",
                     -static_cast<std::int64_t>(edge_count_));

    const std::size_t n = alloc_.size();
    for (std::size_t slot = 0; slot < n; ++slot) {
        if (alloc_.live(static_cast<std::uint32_t>(slot)))
            hot_[slot] = ObjectRecord{};
    }
    // Generations keep counting across clear(): vertex ids stay
    // unique so stale ids can never alias new vertices.
    alloc_.clear();
    pages_.clear();
    hist_.reset();
    stats_ = Stats{};
    edge_count_ = 0;
    flushed_ = Stats{};
    flushed_nodes_ = 0;
    flushed_edges_ = 0;
    events_since_flush_ = 0;
}

void
HeapGraph::flushTelemetry()
{
    events_since_flush_ = 0;
    // Guards reproduce lazy registration: an instrument appears in
    // the Registry only once its event class has occurred, exactly as
    // the per-event macros did (manifest counter sets are compared
    // byte-for-byte across versions).
    if (stats_.allocs > 0) {
        HEAPMD_COUNTER_ADD("graph.allocs",
                           stats_.allocs - flushed_.allocs);
        HEAPMD_GAUGE_ADD(
            "graph.nodes_live",
            static_cast<std::int64_t>(hist_.vertexCount()) -
                static_cast<std::int64_t>(flushed_nodes_));
    }
    if (stats_.frees > 0)
        HEAPMD_COUNTER_ADD("graph.frees",
                           stats_.frees - flushed_.frees);
    if (stats_.reallocs > 0)
        HEAPMD_COUNTER_ADD("graph.reallocs",
                           stats_.reallocs - flushed_.reallocs);
    if (stats_.pointerWrites > 0) {
        HEAPMD_COUNTER_ADD("graph.pointer_writes",
                           stats_.pointerWrites -
                               flushed_.pointerWrites);
        HEAPMD_GAUGE_ADD("graph.edges_live",
                         static_cast<std::int64_t>(edge_count_) -
                             static_cast<std::int64_t>(flushed_edges_));
    }
    flushed_ = stats_;
    flushed_nodes_ = hist_.vertexCount();
    flushed_edges_ = edge_count_;
}

ObjectRecord *
HeapGraph::mutableOwnerOf(Addr addr)
{
    if (addr == kNullAddr)
        return nullptr;
    const std::uint32_t slot = pages_.lookup(addr);
    if (slot == PageIndex::kNoSlot)
        return nullptr;
    ObjectRecord &rec = hot_[slot];
    return rec.contains(addr) ? &rec : nullptr;
}

ObjectRecord *
HeapGraph::mutableById(ObjectId id)
{
    const std::uint32_t slot = alloc_.resolve(id);
    return slot == SlotAllocator::kNoSlot ? nullptr : &hot_[slot];
}

void
HeapGraph::addEdgeInstance(ObjectRecord &u, Addr slot, ObjectRecord &v)
{
    if (u.slots.count(slot))
        HEAPMD_PANIC("slot ", slot, " already holds an edge");

    const std::size_t u_in = u.indegree();
    const std::size_t u_out = u.outdegree();
    const std::size_t v_in = v.indegree();
    const std::size_t v_out = v.outdegree();

    u.slots.emplace(slot, v.id);
    if (++u.outNeighbors[v.id] == 1)
        ++edge_count_;
    v.inRefs.emplace(slot, u.id);
    ++v.inNeighbors[u.id];

    if (u.id == v.id) {
        hist_.transition(u_in, u_out, u.indegree(), u.outdegree());
    } else {
        hist_.transition(u_in, u_out, u.indegree(), u.outdegree());
        hist_.transition(v_in, v_out, v.indegree(), v.outdegree());
    }
}

void
HeapGraph::removeEdgeInstance(ObjectRecord &u, Addr slot)
{
    auto sit = u.slots.find(slot);
    if (sit == u.slots.end())
        HEAPMD_PANIC("removeEdgeInstance on empty slot ", slot);
    const ObjectId target_id = sit->second;
    // The record's arena address depends only on the slot bits, not
    // on the meta word resolve() is about to read -- start the record
    // fetch now so it overlaps the generation check.
    prefetchRead(&hot_[SlotAllocator::slotOf(target_id)]);
    ObjectRecord *v = mutableById(target_id);
    if (v == nullptr)
        HEAPMD_PANIC("edge targets freed object ", target_id);

    const std::size_t u_in = u.indegree();
    const std::size_t u_out = u.outdegree();
    const std::size_t v_in = v->indegree();
    const std::size_t v_out = v->outdegree();

    u.slots.erase(sit);
    auto out_it = u.outNeighbors.find(target_id);
    if (out_it == u.outNeighbors.end() || out_it->second == 0)
        HEAPMD_PANIC("outNeighbors underflow for ", target_id);
    if (--out_it->second == 0) {
        u.outNeighbors.erase(out_it);
        --edge_count_;
    }

    v->inRefs.erase(slot);
    auto in_it = v->inNeighbors.find(u.id);
    if (in_it == v->inNeighbors.end() || in_it->second == 0)
        HEAPMD_PANIC("inNeighbors underflow for ", u.id);
    if (--in_it->second == 0)
        v->inNeighbors.erase(in_it);

    if (u.id == v->id) {
        hist_.transition(u_in, u_out, u.indegree(), u.outdegree());
    } else {
        hist_.transition(u_in, u_out, u.indegree(), u.outdegree());
        hist_.transition(v_in, v_out, v->indegree(), v->outdegree());
    }
}

} // namespace heapmd
