/**
 * @file
 * Unit tests of the heap-graph storage layer (DESIGN.md §16): the
 * chunked arena, the generation-tagged slot allocator, the page-
 * indexed extent map, and the HeapGraph-level guarantees they carry
 * (stale-id rejection across slot reuse, single-pass freeOverlapping).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "heapgraph/extent_arena.hh"
#include "heapgraph/heap_graph.hh"
#include "heapgraph/page_index.hh"
#include "support/chunked_vector.hh"
#include "support/random.hh"
#include "support/slot_map.hh"

namespace heapmd
{

namespace
{

// ------------------------------------------------------ ChunkedVector

TEST(ChunkedVectorTest, PushAndIndex)
{
    ChunkedVector<int> v;
    EXPECT_TRUE(v.empty());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(v.push(i), static_cast<std::size_t>(i));
    EXPECT_EQ(v.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(ChunkedVectorTest, AddressesStableAcrossGrowth)
{
    // Unlike std::vector, growing must never move existing elements:
    // the heap-graph holds ObjectRecord references across allocate().
    ChunkedVector<std::uint64_t, 4> v; // 16 per chunk
    std::vector<const std::uint64_t *> addrs;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        v.push(i);
        addrs.push_back(&v[i]);
    }
    for (std::uint64_t i = 0; i < 1000; ++i) {
        EXPECT_EQ(addrs[i], &v[i]);
        EXPECT_EQ(*addrs[i], i);
    }
}

TEST(ChunkedVectorTest, ClearReleasesAndRestarts)
{
    ChunkedVector<int, 2> v;
    for (int i = 0; i < 10; ++i)
        v.push(i);
    v.clear();
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.push(42), 0u);
    EXPECT_EQ(v[0], 42);
}

// ------------------------------------------------------ SlotAllocator

TEST(SlotAllocatorTest, AcquireIsDenseAndLive)
{
    SlotAllocator a;
    EXPECT_EQ(a.acquire(), 0u);
    EXPECT_EQ(a.acquire(), 1u);
    EXPECT_EQ(a.acquire(), 2u);
    EXPECT_EQ(a.liveCount(), 3u);
    EXPECT_TRUE(a.live(1));
    EXPECT_FALSE(a.live(3)); // never allocated
}

TEST(SlotAllocatorTest, ReleaseRecyclesLifo)
{
    SlotAllocator a;
    a.acquire();
    a.acquire();
    a.acquire();
    a.release(1);
    a.release(0);
    EXPECT_EQ(a.freeCount(), 2u);
    EXPECT_EQ(a.acquire(), 0u); // most recently released first
    EXPECT_EQ(a.acquire(), 1u);
    EXPECT_EQ(a.size(), 3u); // no new slots created
}

TEST(SlotAllocatorTest, GenerationBumpInvalidatesOldIds)
{
    SlotAllocator a;
    const std::uint32_t slot = a.acquire();
    const std::uint64_t first_id = a.idOf(slot);
    EXPECT_EQ(a.resolve(first_id), slot);

    a.release(slot);
    EXPECT_EQ(a.resolve(first_id), SlotAllocator::kNoSlot);

    // Recycle the same slot: new id, old one still dead.
    ASSERT_EQ(a.acquire(), slot);
    const std::uint64_t second_id = a.idOf(slot);
    EXPECT_NE(second_id, first_id);
    EXPECT_GT(second_id, first_id); // generation grows monotonically
    EXPECT_EQ(a.resolve(second_id), slot);
    EXPECT_EQ(a.resolve(first_id), SlotAllocator::kNoSlot);
}

TEST(SlotAllocatorTest, IdEncodesGenerationAndSlot)
{
    SlotAllocator a;
    const std::uint32_t slot = a.acquire();
    const std::uint64_t id = a.idOf(slot);
    EXPECT_EQ(SlotAllocator::slotOf(id), slot);
    EXPECT_EQ(SlotAllocator::genOf(id), a.generation(slot));
    EXPECT_GE(id, std::uint64_t{1} << 32); // gen starts at 1
}

TEST(SlotAllocatorTest, ResolveRejectsUnknownAndMalformed)
{
    SlotAllocator a;
    EXPECT_EQ(a.resolve(0), SlotAllocator::kNoSlot);
    EXPECT_EQ(a.resolve(~std::uint64_t{0}), SlotAllocator::kNoSlot);
    a.acquire();
    // Right slot, wrong generation.
    EXPECT_EQ(a.resolve((std::uint64_t{99} << 32) | 0u),
              SlotAllocator::kNoSlot);
}

TEST(SlotAllocatorTest, ClearKeepsGenerationsCounting)
{
    SlotAllocator a;
    const std::uint32_t slot = a.acquire();
    const std::uint64_t before = a.idOf(slot);
    a.clear();
    EXPECT_EQ(a.liveCount(), 0u);
    EXPECT_EQ(a.resolve(before), SlotAllocator::kNoSlot);
    const std::uint32_t again = a.acquire();
    EXPECT_GT(a.idOf(again), before);
}

// ---------------------------------------------------------- PageIndex

TEST(PageIndexTest, LookupWithinSinglePage)
{
    PageIndex idx;
    idx.insert(0x1000, 64, 7);
    idx.insert(0x1040, 32, 8);
    EXPECT_EQ(idx.lookup(0x1000), 7u);
    EXPECT_EQ(idx.lookup(0x103f), 7u);
    EXPECT_EQ(idx.lookup(0x1040), 8u);
    EXPECT_EQ(idx.lookup(0x105f), 8u);
    // Past both extents the candidate is still the predecessor start;
    // the caller's contains() check rejects it.
    EXPECT_EQ(idx.lookup(0x1060), 8u);
    EXPECT_EQ(idx.startAt(0x1000), 7u);
    EXPECT_EQ(idx.startAt(0x1001), PageIndex::kNoSlot);
    EXPECT_EQ(idx.lookup(0x2000), PageIndex::kNoSlot);
}

TEST(PageIndexTest, SpannerCoversInteriorPages)
{
    PageIndex idx;
    // Object spanning pages 1..4 (addr 0x1800, 3 full pages + tails).
    idx.insert(0x1800, 0x3000, 5);
    EXPECT_EQ(idx.lookup(0x1800), 5u);
    EXPECT_EQ(idx.lookup(0x2000), 5u); // page 2 head via spanner
    EXPECT_EQ(idx.lookup(0x3fff), 5u);
    EXPECT_EQ(idx.lookup(0x47ff), 5u); // last byte
    idx.erase(0x1800, 0x3000);
    EXPECT_EQ(idx.lookup(0x2000), PageIndex::kNoSlot);
    EXPECT_EQ(idx.lookup(0x1800), PageIndex::kNoSlot);
    EXPECT_EQ(idx.startCount(), 0u);
}

TEST(PageIndexTest, InPageStartHidesSpanner)
{
    PageIndex idx;
    idx.insert(0x1f00, 0x200, 1); // spans into page 2 (0x2000..0x20ff)
    idx.insert(0x2100, 0x100, 2); // starts inside page 2
    EXPECT_EQ(idx.lookup(0x2000), 1u); // spanner
    EXPECT_EQ(idx.lookup(0x20ff), 1u);
    EXPECT_EQ(idx.lookup(0x2100), 2u); // predecessor start wins
    EXPECT_EQ(idx.lookup(0x21ff), 2u);
}

TEST(PageIndexTest, ForEachStartInWalksAscending)
{
    PageIndex idx;
    const std::vector<Addr> starts = {0x1000, 0x1100, 0x2040,
                                      0x5000, 0x5008};
    for (std::size_t i = 0; i < starts.size(); ++i)
        idx.insert(starts[i], 8, static_cast<std::uint32_t>(i));

    std::vector<Addr> seen;
    idx.forEachStartIn(0x1001, 0x5008,
                       [&](Addr a, std::uint32_t) { seen.push_back(a); });
    EXPECT_EQ(seen, (std::vector<Addr>{0x1100, 0x2040, 0x5000}));

    Addr first = 0;
    std::uint32_t slot = PageIndex::kNoSlot;
    EXPECT_TRUE(idx.firstStartIn(0x1001, 0x6000, first, slot));
    EXPECT_EQ(first, 0x1100u);
    EXPECT_EQ(slot, 1u);
    EXPECT_FALSE(idx.firstStartIn(0x3000, 0x5000, first, slot));
}

TEST(PageIndexTest, EraseIsExactAndClearDropsEverything)
{
    PageIndex idx;
    idx.insert(0x1000, 16, 0);
    idx.insert(0x1010, 16, 1);
    idx.erase(0x1000, 16);
    EXPECT_EQ(idx.lookup(0x1008), PageIndex::kNoSlot);
    EXPECT_EQ(idx.lookup(0x1010), 1u);
    EXPECT_EQ(idx.startCount(), 1u);
    idx.clear();
    EXPECT_EQ(idx.startCount(), 0u);
    EXPECT_EQ(idx.lookup(0x1010), PageIndex::kNoSlot);
}

TEST(PageIndexTest, WideExtentsLiveInTheSideList)
{
    PageIndex idx;
    const Addr giant = 0x10000000;
    const std::uint64_t giant_size = std::uint64_t{1} << 44;
    ASSERT_TRUE(PageIndex::isWide(giant, giant_size));
    ASSERT_FALSE(PageIndex::isWide(0x1000, PageIndex::kLeafSpan));
    idx.insert(0x1000, 64, 0);
    idx.insert(giant, giant_size, 1);
    idx.insert(giant + giant_size, 32, 2);
    EXPECT_EQ(idx.startCount(), 3u);
    EXPECT_EQ(idx.lookup(giant), 1u);
    EXPECT_EQ(idx.lookup(giant + (giant_size >> 1)), 1u);
    EXPECT_EQ(idx.lookup(giant + giant_size - 1), 1u);
    EXPECT_EQ(idx.lookup(giant + giant_size), 2u);
    EXPECT_EQ(idx.lookup(0x1010), 0u);
    EXPECT_EQ(idx.startAt(giant), 1u);
    EXPECT_EQ(idx.startAt(giant + 8), PageIndex::kNoSlot);

    // Range walks merge side-list starts into page order.
    std::vector<Addr> seen;
    idx.forEachStartIn(0, ~Addr{0},
                       [&](Addr a, std::uint32_t) { seen.push_back(a); });
    EXPECT_EQ(seen, (std::vector<Addr>{0x1000, giant, giant + giant_size}));

    idx.erase(giant, giant_size);
    EXPECT_EQ(idx.lookup(giant + 4096), PageIndex::kNoSlot);
    EXPECT_EQ(idx.startCount(), 2u);
}

TEST(PageIndexTest, ExtentsReachTheTopOfTheAddressSpace)
{
    const Addr top = ~Addr{0};
    // Ends exactly at 2^64: a one-page grid extent.
    PageIndex grid;
    grid.insert(top - 4095, 4096, 0);
    EXPECT_EQ(grid.lookup(top), 0u);
    std::vector<Addr> seen;
    grid.forEachStartBetween(top - 4095, top,
                             [&](Addr a, std::uint32_t) {
                                 seen.push_back(a);
                             });
    EXPECT_EQ(seen, (std::vector<Addr>{top - 4095}));

    // An end past 2^64 is clamped to the top: a side-list extent.
    PageIndex side;
    const Addr base = top - (Addr{1} << 20);
    ASSERT_TRUE(PageIndex::isWide(base, 4096 + (Addr{1} << 20)));
    EXPECT_EQ(PageIndex::lastByte(base, 4096 + (Addr{1} << 20)), top);
    side.insert(base, 4096 + (Addr{1} << 20), 1);
    EXPECT_EQ(side.lookup(top), 1u);
    EXPECT_EQ(side.lookup(base - 1), PageIndex::kNoSlot);
    side.erase(base, 4096 + (Addr{1} << 20));
    EXPECT_EQ(side.lookup(top), PageIndex::kNoSlot);
}

TEST(PageIndexTest, RangeWalksVisitOnlyMaterializedLeaves)
{
    // Three leaves far apart; a walk over the whole address space is
    // 2^43 leaves wide but must touch only these (it would not finish
    // otherwise).
    PageIndex idx;
    const std::vector<Addr> starts = {0x1000, Addr{1} << 40,
                                      (Addr{1} << 62) + 0x40};
    for (std::size_t i = 0; i < starts.size(); ++i)
        idx.insert(starts[i], 16, static_cast<std::uint32_t>(i));
    std::vector<Addr> seen;
    idx.forEachStartIn(1, ~Addr{0},
                       [&](Addr a, std::uint32_t) { seen.push_back(a); });
    EXPECT_EQ(seen, starts);
    Addr first = 0;
    std::uint32_t slot = PageIndex::kNoSlot;
    EXPECT_TRUE(idx.firstStartIn(0x1001, ~Addr{0}, first, slot));
    EXPECT_EQ(first, Addr{1} << 40);
}

// -------------------------------------------------------- ExtentArena

TEST(ExtentArenaTest, OverlapSweepsMatchAnOrderedMapOracle)
{
    // Random sweep-then-insert churn over grid-sized, leaf-straddling
    // and wide extents, one of them reaching the top of the address
    // space; every overlapping() answer must be the oracle's, in
    // ascending base order, and owner() must agree at random probes.
    struct Rec
    {
        Addr base = 0;
        std::uint64_t size = 0;
    };
    ExtentArena<Rec> arena;
    std::map<Addr, std::pair<std::uint64_t, std::uint32_t>> oracle;
    Rng rng(42);
    std::vector<std::uint32_t> hits;

    const auto expected = [&](Addr addr, std::uint64_t size) {
        std::vector<std::uint32_t> out;
        const Addr last = PageIndex::lastByte(addr, size);
        for (const auto &[base, ext] : oracle) {
            if (base <= last &&
                addr <= PageIndex::lastByte(base, ext.first))
                out.push_back(ext.second);
        }
        return out;
    };
    const auto sweepInsert = [&](Addr addr, std::uint64_t size) {
        arena.overlapping(addr, size, hits);
        ASSERT_EQ(hits, expected(addr, size));
        for (std::uint32_t slot : hits) {
            oracle.erase(arena[slot].base);
            arena.erase(slot);
        }
        oracle[addr] = {size, arena.insert(Rec{addr, size})};
    };

    sweepInsert(~Addr{0} - 0xfff, Addr{1} << 40); // clamped at the top
    for (int op = 0; op < 4000; ++op) {
        const std::uint64_t cls = rng.below(10);
        const std::uint64_t size =
            cls < 6   ? 1 + rng.below(3 * PageIndex::kPageSize)
            : cls < 8 ? PageIndex::kLeafSpan - 4096 + rng.below(8192)
                      : (std::uint64_t{1} << (22 + rng.below(20)));
        const Addr addr = rng.below(Addr{1} << 44) / 8 * 8 + 8;
        if (rng.below(4) != 0 || oracle.empty()) {
            sweepInsert(addr, size);
        } else {
            auto it = oracle.begin();
            std::advance(it, rng.below(oracle.size()));
            arena.erase(it->second.second);
            oracle.erase(it);
        }
        const Addr probe = rng.below(Addr{1} << 44);
        auto owner = oracle.upper_bound(probe);
        std::uint32_t want = ExtentArena<Rec>::kNone;
        if (owner != oracle.begin()) {
            --owner;
            if (probe - owner->first < owner->second.first)
                want = owner->second.second;
        }
        ASSERT_EQ(arena.owner(probe), want) << "probe " << probe;
    }
    EXPECT_EQ(arena.size(), oracle.size());
}

// ------------------------------------------- HeapGraph id-reuse rules

TEST(SlotReuseTest, StaleIdDeadAfterSlotRecycled)
{
    HeapGraph g;
    const ObjectId a = g.allocate(0x1000, 64);
    ASSERT_TRUE(g.free(0x1000));
    // Same address, same (recycled) arena slot: new identity.
    const ObjectId b = g.allocate(0x1000, 64);
    EXPECT_NE(a, b);
    EXPECT_EQ(SlotAllocator::slotOf(a), SlotAllocator::slotOf(b));
    EXPECT_NE(SlotAllocator::genOf(a), SlotAllocator::genOf(b));
    EXPECT_EQ(g.objectById(a), nullptr);
    ASSERT_NE(g.objectById(b), nullptr);
    EXPECT_EQ(g.objectById(b)->addr, 0x1000u);
    g.checkConsistency();
}

TEST(SlotReuseTest, DanglingEdgeNotResurrectedBySlotReuse)
{
    HeapGraph g;
    g.allocate(0x1000, 64);
    const ObjectId victim = g.allocate(0x2000, 64);
    g.write(0x1000, 0x2000); // edge source -> victim
    ASSERT_TRUE(g.hasEdge(g.objectAt(0x1000)->id, victim));

    ASSERT_TRUE(g.free(0x2000));
    // Recycles the victim's slot at the victim's address.
    const ObjectId imposter = g.allocate(0x2000, 64);

    // The stored pointer still dangles: no edge to the imposter, no
    // edge to the stale id, and the stale id resolves to nothing.
    const ObjectId source = g.objectAt(0x1000)->id;
    EXPECT_FALSE(g.hasEdge(source, imposter));
    EXPECT_FALSE(g.hasEdge(source, victim));
    EXPECT_EQ(g.objectById(victim), nullptr);
    EXPECT_EQ(g.objectAt(0x1000)->outdegree(), 0u);

    // A fresh store re-establishes connectivity to the new object.
    g.write(0x1000, 0x2000);
    EXPECT_TRUE(g.hasEdge(source, imposter));
    g.checkConsistency();
}

TEST(SlotReuseTest, ReallocMoveInvalidatesOldIdUnderReuse)
{
    HeapGraph g;
    const ObjectId target = g.allocate(0x3000, 64);
    const ObjectId old_id = g.allocate(0x1000, 64);
    g.write(0x1000, 0x3000); // out-edge that survives the move
    g.write(0x1008, 0x1000); // self-pointer: must dangle after move

    const ObjectId new_id = g.reallocate(0x1000, 0x2000, 64);
    EXPECT_NE(new_id, old_id);
    EXPECT_EQ(g.objectById(old_id), nullptr);
    ASSERT_NE(g.objectById(new_id), nullptr);
    EXPECT_TRUE(g.hasEdge(new_id, target));
    EXPECT_FALSE(g.hasEdge(new_id, new_id)); // self-pointer dangles

    // Reuse the moved-from slot's address: stale id must stay dead
    // even though address and arena slot are both recycled.
    const ObjectId reuse = g.allocate(0x1000, 64);
    EXPECT_EQ(g.objectById(old_id), nullptr);
    EXPECT_NE(reuse, old_id);
    g.checkConsistency();
}

TEST(SlotReuseTest, IdsUniqueAcrossHeavyChurn)
{
    HeapGraph g;
    std::vector<ObjectId> retired;
    ObjectId prev = kNoObject;
    for (int round = 0; round < 100; ++round) {
        const ObjectId id = g.allocate(0x1000, 32);
        EXPECT_NE(id, prev);
        for (ObjectId dead : retired)
            EXPECT_NE(id, dead);
        ASSERT_TRUE(g.free(0x1000));
        retired.push_back(id);
        prev = id;
    }
    for (ObjectId dead : retired)
        EXPECT_EQ(g.objectById(dead), nullptr);
}

// --------------------------------------- freeOverlapping (single pass)

TEST(FreeOverlappingTest, TenThousandVictimsInOnePass)
{
    HeapGraph g;
    const Addr base = 0x100000;
    const std::uint64_t kObjSize = 48; // straddles page boundaries
    const int kCount = 10000;
    for (int i = 0; i < kCount; ++i)
        g.allocate(base + static_cast<Addr>(i) * kObjSize, kObjSize);
    // Wire neighbours so severing also exercises edge teardown.
    for (int i = 0; i + 1 < kCount; i += 2) {
        g.write(base + static_cast<Addr>(i) * kObjSize,
                base + static_cast<Addr>(i + 1) * kObjSize);
    }
    ASSERT_EQ(g.vertexCount(), static_cast<std::uint64_t>(kCount));
    ASSERT_GT(g.edgeCount(), 0u);

    const std::size_t freed = g.freeOverlapping(
        base, static_cast<std::uint64_t>(kCount) * kObjSize);
    EXPECT_EQ(freed, static_cast<std::size_t>(kCount));
    EXPECT_EQ(g.vertexCount(), 0u);
    EXPECT_EQ(g.edgeCount(), 0u);
    EXPECT_EQ(g.stats().liveBytes, 0u);
    g.checkConsistency();
}

TEST(FreeOverlappingTest, SparesExcludedStartAndOutsideObjects)
{
    HeapGraph g;
    g.allocate(0x1000, 64); // straddles range head: starts before
    g.allocate(0x1040, 64); // inside
    g.allocate(0x1080, 64); // inside, excluded
    g.allocate(0x10c0, 64); // starts exactly at range end: outside
    const std::size_t freed = g.freeOverlapping(0x1020, 0xa0, 0x1080);
    EXPECT_EQ(freed, 2u); // head-straddler + 0x1040
    EXPECT_EQ(g.objectAt(0x1000), nullptr);
    EXPECT_EQ(g.objectAt(0x1040), nullptr);
    ASSERT_NE(g.objectAt(0x1080), nullptr);
    ASSERT_NE(g.objectAt(0x10c0), nullptr);
    g.checkConsistency();
}

TEST(FreeOverlappingTest, RangeSpanningManyPages)
{
    HeapGraph g;
    // One big spanner plus small objects sprinkled across 32 pages.
    g.allocate(0x10000, 0x8000, kNoFunction, 0); // pages 16..23
    for (int i = 0; i < 16; ++i)
        g.allocate(0x20000 + static_cast<Addr>(i) * 0x1000 + 8, 16);
    const std::size_t freed = g.freeOverlapping(0x10800, 0x20000);
    EXPECT_EQ(freed, 17u);
    EXPECT_EQ(g.vertexCount(), 0u);
    g.checkConsistency();
}

} // namespace

} // namespace heapmd
