/**
 * @file
 * Live-object table and conservative pointer scanner for the capture
 * shim.
 *
 * The paper instruments every pointer store; an LD_PRELOAD shim cannot
 * see stores, so edges are recovered the way gperftools' heap checker
 * finds references: periodically walk every live object word by word
 * and treat any word that resolves into another live object as a
 * pointer.  To keep the trace (and the replayed heap-graph) in sync
 * without re-emitting the whole edge set each pass, the scanner diffs
 * against the previous pass: a new or retargeted slot emits
 * Write(slot, value), a slot whose word no longer resolves emits
 * Write(slot, 0), and an unchanged slot emits nothing.
 *
 * The table is single-threaded by design — the shim serializes access
 * under its global mutex — and host-testable: it reads process memory
 * through plain loads, so unit tests exercise it against ordinary
 * heap buffers without any interposition.
 */

#ifndef HEAPMD_CAPTURE_LIVE_TABLE_HH
#define HEAPMD_CAPTURE_LIVE_TABLE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "heapgraph/extent_arena.hh"
#include "metrics/metric.hh"

namespace heapmd
{

namespace capture
{

/** Per-pass census of one conservative scan. */
struct ScanStats
{
    std::uint64_t objectsScanned = 0; //!< live objects walked
    std::uint64_t wordsScanned = 0;   //!< aligned words inspected
    std::uint64_t liveEdges = 0;      //!< words resolving to a live object
    std::uint64_t writesEmitted = 0;  //!< new/retargeted edges emitted
    std::uint64_t clearsEmitted = 0;  //!< vanished edges emitted as 0
};

/**
 * The paper's seven degree-metric percentages (Section 2.1) computed
 * directly over the live table's edge state — the shim publishes
 * these into the shared-memory stats segment at each scan, so
 * `heapmd top` shows live drift without replaying the trace.
 */
struct DegreeCensus
{
    std::uint64_t objects = 0; //!< live extents the census covers
    /** Percentages (0..100) indexed by metricIndex(MetricId). */
    std::array<double, kNumMetrics> percent{};
};

/**
 * Tracks the extents of live allocations plus the edge set the last
 * scan reported, so each pass emits only the delta.
 *
 * Extents are records of an ExtentArena (DESIGN.md §16): O(1) owner
 * lookup on the page index.  Each record owns a run of edge entries,
 * one per slot whose word resolved at the last scan, sorted by
 * offset.  An entry names its target by arena slot and generation;
 * erasing an extent bumps its slot's generation, so every edge into
 * it goes stale at once with no reverse index to walk.
 */
class LiveTable
{
  public:
    /** Sink for recovered pointer writes (value 0 = slot cleared). */
    using EmitFn =
        std::function<void(std::uintptr_t slot, std::uintptr_t value)>;

    /**
     * Register a live extent of @p size > 0 bytes.  It must not
     * overlap a tracked extent (the shim sweeps overlaps first).
     */
    void insert(std::uintptr_t addr, std::size_t size);

    /**
     * Forget the extent starting at @p addr along with every edge
     * recorded from or to it (the replayed graph severs those edges
     * on Free; keeping them would suppress their re-emission when the
     * address range is recycled).
     *
     * @return the extent's size, or 0 when @p addr was not tracked.
     */
    std::size_t erase(std::uintptr_t addr);

    /**
     * Resize the extent at @p addr in place (in-place realloc).
     * Edges from slots beyond the new end are forgotten.
     *
     * @return false when @p addr is not tracked.
     */
    bool resize(std::uintptr_t addr, std::size_t new_size);

    /**
     * realloc(@p old_addr, @p new_size) returning @p new_addr, with
     * HeapGraph::reallocate's semantics: in place, a resize; moved,
     * the extent's out-edges at offsets below @p new_size travel with
     * the copied words, except edges into the old extent itself (a
     * copied self-pointer still holds the old address), and every
     * in-edge is forgotten.
     *
     * @return false when @p old_addr is not tracked.
     */
    bool reallocate(std::uintptr_t old_addr, std::uintptr_t new_addr,
                    std::size_t new_size);

    /** True when an extent starts exactly at @p addr. */
    bool contains(std::uintptr_t addr) const;

    /**
     * Starts of live extents overlapping [addr, addr + size), except
     * an extent starting exactly at @p exclude.  The shim frees these
     * in the trace before recording an allocation over the range: the
     * allocator handing it out proves their frees went unobserved
     * (e.g. dropped under the reentrancy guard).
     */
    std::vector<std::uintptr_t>
    overlapping(std::uintptr_t addr, std::size_t size,
                std::uintptr_t exclude = 0) const;

    /** Start of the live extent containing @p value, or 0. */
    std::uintptr_t resolve(std::uintptr_t value) const;

    /**
     * Visit every tracked extent as (start, size), in address order.
     * @p fn must not mutate the table; collect starts and erase after.
     */
    void forEachExtent(
        const std::function<void(std::uintptr_t, std::size_t)> &fn)
        const;

    /**
     * Residency sweep: starts of the extents that touch a page
     * mincore(2) reports unmapped, in address order.  Extents are
     * walked in address order and each contiguous run of pages they
     * cover is asked about in one call; only a run with a hole in it
     * is re-asked extent by extent.  Never reads tracked memory.
     */
    std::vector<std::uintptr_t> unmappedExtents() const;

    /** Live extents currently tracked. */
    std::size_t objectCount() const { return arena_.size(); }

    /** Bytes currently tracked. */
    std::uint64_t liveBytes() const { return live_bytes_; }

    /** Slots whose edge the previous scan left established. */
    std::size_t edgeCount() const { return edge_count_; }

    /**
     * Conservatively scan all live extents and emit the edge delta
     * relative to the previous pass.  Words are read at pointer
     * alignment; unaligned head/tail bytes of an extent are skipped.
     */
    ScanStats scan(const EmitFn &emit);

    /**
     * Degree percentages over the current table, using the edge set
     * the last scan established (call right after scan() for a
     * point-in-time sample).  Degrees count distinct neighbours,
     * self-edges included, as MetricEngine::sample does on the
     * replayed graph.  One O(V + E) pass over flat per-slot
     * counters, which allocate only when the table outgrows them.
     */
    DegreeCensus degreeCensus() const;

  private:
    struct Extent
    {
        Addr base = 0;
        std::uint64_t size = 0;
        std::uint32_t first = 0; //!< index of its first entry in edges_
        std::uint32_t count = 0; //!< its entries, ascending by offset
    };

    struct Edge
    {
        std::uint64_t offset; //!< slot address - extent base
        std::uintptr_t value; //!< word observed at the slot
        std::uint32_t target; //!< arena slot of the extent it hit
        std::uint32_t gen;    //!< that slot's generation then
    };

    /** Per-slot census counters. */
    struct Degree
    {
        std::uint32_t in = 0;
        std::uint32_t out = 0;
        std::uint32_t lastSource = 0; //!< dedups a source's targets
    };

    /** True while the edge's target is the extent it resolved to. */
    bool
    current(const Edge &edge) const
    {
        return gen_[edge.target] == edge.gen;
    }

    void unlink(const Edge &edge);
    void dropEdgesFrom(Extent &rec, std::uint64_t offset);
    void retire(std::uint32_t slot);
    std::uint32_t track(Extent rec);
    const std::vector<std::uint32_t> &ascending() const;

    ExtentArena<Extent> arena_;
    /** Edge entries; each record owns [first, first + count). */
    std::vector<Edge> edges_;
    /** The next scan's entries, swapped into edges_ at its end. */
    std::vector<Edge> next_edges_;
    /** Per arena slot: generation, bumped when its extent goes. */
    std::vector<std::uint32_t> gen_;
    /** Per arena slot: current entries targeting it. */
    std::vector<std::uint32_t> in_slots_;
    std::uint64_t live_bytes_ = 0;
    std::size_t edge_count_ = 0;
    /** Scratch for the const walks (the table is single-threaded). */
    mutable std::vector<std::uint32_t> order_;
    mutable std::vector<Degree> degrees_;
};

} // namespace capture

} // namespace heapmd

#endif // HEAPMD_CAPTURE_LIVE_TABLE_HH
