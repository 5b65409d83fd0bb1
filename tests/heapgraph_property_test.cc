/**
 * @file
 * Property tests of the heap-graph: under arbitrary event sequences,
 * the incremental degree census must equal a from-scratch recompute,
 * and every internal invariant must hold.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <vector>

#include "heapgraph/heap_graph.hh"
#include "runtime/address_space.hh"
#include "support/random.hh"

namespace heapmd
{

namespace
{

/**
 * From-scratch ordered oracle of the live extent set: the
 * std::map<Addr, ...> structure the page index replaced.  Every probe
 * answers "who owns this address" by upper_bound walk and must agree
 * with the graph's O(1) objectAt().
 */
struct ExtentOracle
{
    std::map<Addr, std::pair<std::uint64_t, ObjectId>> extents;

    void
    insert(Addr addr, std::uint64_t size, ObjectId id)
    {
        extents[addr] = {size, id};
    }

    void erase(Addr addr) { extents.erase(addr); }

    /** Owner id of @p addr, or kNoObject. */
    ObjectId
    ownerOf(Addr addr) const
    {
        auto it = extents.upper_bound(addr);
        if (it == extents.begin())
            return kNoObject;
        --it;
        const auto [size, id] = it->second;
        return addr - it->first < size ? id : kNoObject;
    }
};

/** Probe objectAt() against the oracle at and around every extent. */
void
expectLookupsMatchOracle(const HeapGraph &g, const ExtentOracle &oracle,
                         Rng &rng)
{
    for (const auto &[addr, ext] : oracle.extents) {
        const auto [size, id] = ext;
        for (const Addr probe :
             {addr, addr + size - 1, addr + rng.below(size),
              addr + size, addr - 1}) {
            const ObjectId expected = oracle.ownerOf(probe);
            const ObjectRecord *got = g.objectAt(probe);
            ASSERT_EQ(got == nullptr ? kNoObject : got->id, expected)
                << "objectAt(" << probe << ") disagrees with the "
                << "ordered-map oracle";
        }
        const ObjectRecord *start = g.objectStartingAt(addr);
        ASSERT_NE(start, nullptr);
        ASSERT_EQ(start->id, id);
    }
}

/** Compare the incremental census with a from-scratch recompute. */
void
expectCensusMatches(const HeapGraph &g)
{
    const DegreeHistogram fresh = g.recomputeHistogram();
    const DegreeHistogram &inc = g.histogram();
    ASSERT_EQ(fresh.vertexCount(), inc.vertexCount());
    ASSERT_EQ(fresh.inEqOutCount(), inc.inEqOutCount());
    for (std::size_t d = 0; d < DegreeHistogram::kExactBuckets; ++d) {
        ASSERT_EQ(fresh.indegCount(d), inc.indegCount(d))
            << "indeg bucket " << d;
        ASSERT_EQ(fresh.outdegCount(d), inc.outdegCount(d))
            << "outdeg bucket " << d;
    }
}

class HeapGraphFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HeapGraphFuzzTest, RandomOpsKeepInvariants)
{
    Rng rng(GetParam());
    HeapGraph g;
    AddressSpace space;
    std::vector<Addr> live;
    ExtentOracle oracle;
    std::vector<ObjectId> stale_ids;

    const int kOps = 3000;
    for (int op = 0; op < kOps; ++op) {
        const std::uint64_t kind = rng.below(100);
        if (kind < 30 || live.empty()) {
            // Allocate.
            const std::uint64_t size = 8 + rng.below(256);
            const Addr addr = space.allocate(size);
            const ObjectId id = g.allocate(addr, size);
            oracle.insert(addr, size, id);
            live.push_back(addr);
        } else if (kind < 45) {
            // Free a random live block.
            const std::size_t i = rng.below(live.size());
            const Addr addr = live[i];
            stale_ids.push_back(g.objectStartingAt(addr)->id);
            EXPECT_TRUE(g.free(addr));
            oracle.erase(addr);
            space.release(addr);
            live[i] = live.back();
            live.pop_back();
        } else if (kind < 50 && !live.empty()) {
            // Realloc a random block.
            const std::size_t i = rng.below(live.size());
            const Addr old_addr = live[i];
            const std::uint64_t new_size = 8 + rng.below(512);
            const ObjectId old_id = g.objectStartingAt(old_addr)->id;
            const Addr new_addr = space.reallocate(old_addr, new_size);
            if (new_addr != old_addr) // a move invalidates the id
                stale_ids.push_back(old_id);
            const ObjectId id =
                g.reallocate(old_addr, new_addr, new_size);
            oracle.erase(old_addr);
            oracle.insert(new_addr, new_size, id);
            live[i] = new_addr;
        } else if (kind < 55) {
            // Double free / wild free: must be tolerated.
            g.free(0xdead0000 + rng.below(0x1000));
        } else {
            // Write: mostly pointers to live objects, sometimes junk.
            const Addr owner = live[rng.below(live.size())];
            const std::uint64_t owner_size = space.blockSize(owner);
            const Addr slot =
                owner + (rng.below(owner_size / 8)) * 8;
            Addr value = 0;
            const std::uint64_t v = rng.below(10);
            if (v < 6) {
                const Addr target = live[rng.below(live.size())];
                value = target + rng.below(space.blockSize(target));
            } else if (v < 8) {
                value = rng.below(1000); // small data word
            } else {
                value = 0; // null out
            }
            g.write(slot, value);
        }

        if (op % 250 == 0) {
            expectCensusMatches(g);
            g.checkConsistency();
            expectLookupsMatchOracle(g, oracle, rng);
            // Generation tags: every freed/moved id stays dead even
            // after its arena slot is recycled by later allocations.
            for (ObjectId stale : stale_ids)
                ASSERT_EQ(g.objectById(stale), nullptr);
        }
    }
    expectCensusMatches(g);
    g.checkConsistency();
    expectLookupsMatchOracle(g, oracle, rng);
    for (ObjectId stale : stale_ids)
        ASSERT_EQ(g.objectById(stale), nullptr);

    // Tear down completely; the graph must empty out.
    for (Addr addr : live)
        EXPECT_TRUE(g.free(addr));
    EXPECT_EQ(g.vertexCount(), 0u);
    EXPECT_EQ(g.edgeCount(), 0u);
    EXPECT_EQ(g.stats().liveBytes, 0u);
    g.checkConsistency();
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapGraphFuzzTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           55, 89));

class HeapGraphChurnTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HeapGraphChurnTest, AddressReuseNeverAliasesVertices)
{
    // Heavy free/alloc churn in one size class: addresses recycle
    // constantly, vertex ids must never collide and stale edges must
    // never reappear.
    Rng rng(GetParam());
    HeapGraph g;
    AddressSpace space;
    std::vector<std::pair<Addr, ObjectId>> live;

    for (int op = 0; op < 2000; ++op) {
        if (live.size() < 8 || rng.chance(0.55)) {
            const Addr addr = space.allocate(64);
            const ObjectId id = g.allocate(addr, 64);
            for (const auto &[other_addr, other_id] : live) {
                (void)other_addr;
                ASSERT_NE(id, other_id);
            }
            // Wire the new object to a random live one and back.
            if (!live.empty()) {
                const auto &[taddr, tid] = live[rng.below(live.size())];
                g.write(addr, taddr);
                g.write(taddr + 8, addr);
                ASSERT_TRUE(g.hasEdge(id, tid));
            }
            live.emplace_back(addr, id);
        } else {
            const std::size_t i = rng.below(live.size());
            const auto [addr, id] = live[i];
            ASSERT_TRUE(g.free(addr));
            ASSERT_EQ(g.objectById(id), nullptr);
            space.release(addr);
            live[i] = live.back();
            live.pop_back();
        }
    }
    expectCensusMatches(g);
    g.checkConsistency();
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapGraphChurnTest,
                         ::testing::Values(101, 202, 303, 404, 505));

/**
 * Mixed-width extents: grid-sized objects, ones straddling the
 * one-leaf side-list threshold, wide ones up to 16 TiB and one that
 * ends exactly at 2^64.  Every allocation first sweeps its range with
 * freeOverlapping(), which must free exactly what the ordered-map
 * oracle says overlaps; in-place reallocs move extents across the
 * threshold both ways.
 */
class HeapGraphWideExtentTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HeapGraphWideExtentTest, MixedWidthExtentsMatchOracle)
{
    Rng rng(GetParam());
    HeapGraph g;
    ExtentOracle oracle;
    const Addr kBase = Addr{1} << 32;
    const Addr kTopObject = ~Addr{0} - ((Addr{1} << 30) - 1);

    const auto randomSize = [&]() -> std::uint64_t {
        const std::uint64_t cls = rng.below(10);
        if (cls < 5)
            return 1 + rng.below(3 * PageIndex::kPageSize);
        if (cls < 8) // around the one-leaf threshold
            return PageIndex::kLeafSpan - 4096 + rng.below(8192);
        return (std::uint64_t{1} << (22 + rng.below(23))) +
               rng.below(4096);
    };
    const auto overlapCount = [&](Addr addr, std::uint64_t size) {
        std::size_t n = 0;
        for (const auto &[start, ext] : oracle.extents) {
            const Addr last = addr + (size - 1);
            const Addr ext_last = start + (ext.first - 1);
            if (start <= last && addr <= ext_last)
                ++n;
        }
        return n;
    };
    const auto sweepAndAllocate = [&](Addr addr, std::uint64_t size) {
        const std::size_t expected = overlapCount(addr, size);
        ASSERT_EQ(g.freeOverlapping(addr, size, kNullAddr), expected)
            << "sweep of [" << addr << ", +" << size << ")";
        for (auto it = oracle.extents.begin();
             it != oracle.extents.end();) {
            const Addr ext_last = it->first + (it->second.first - 1);
            if (it->first <= addr + (size - 1) && addr <= ext_last)
                it = oracle.extents.erase(it);
            else
                ++it;
        }
        oracle.insert(addr, size, g.allocate(addr, size));
    };

    // One object ending exactly at the top of the address space.
    sweepAndAllocate(kTopObject, Addr{1} << 30);

    for (int op = 0; op < 600; ++op) {
        const std::uint64_t kind = rng.below(10);
        if (kind < 4 || oracle.extents.size() < 4) {
            const Addr addr =
                kBase + rng.below(Addr{1} << 46) / 16 * 16;
            sweepAndAllocate(addr, randomSize());
        } else if (kind < 6) {
            auto it = oracle.extents.begin();
            std::advance(it, rng.below(oracle.extents.size()));
            const Addr addr = it->first;
            ASSERT_TRUE(g.free(addr));
            oracle.erase(addr);
        } else if (kind < 7) {
            // In-place resize: shrink, or grow into a free range.
            auto it = oracle.extents.begin();
            std::advance(it, rng.below(oracle.extents.size()));
            const Addr addr = it->first;
            const std::uint64_t old_size = it->second.first;
            std::uint64_t size = randomSize();
            if (size > old_size &&
                (addr + (size - 1) < addr ||
                 overlapCount(addr, size) != 1))
                size = 1 + rng.below(old_size);
            const ObjectId id = g.reallocate(addr, addr, size);
            oracle.erase(addr);
            oracle.insert(addr, size, id);
        } else {
            // A pointer write deep inside one object to another.
            auto src = oracle.extents.begin();
            std::advance(src, rng.below(oracle.extents.size()));
            auto dst = oracle.extents.begin();
            std::advance(dst, rng.below(oracle.extents.size()));
            g.write(src->first + rng.below(src->second.first),
                    dst->first + rng.below(dst->second.first));
        }
        if (op % 50 == 0) {
            g.checkConsistency();
            expectLookupsMatchOracle(g, oracle, rng);
        }
    }
    expectCensusMatches(g);
    g.checkConsistency();
    expectLookupsMatchOracle(g, oracle, rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapGraphWideExtentTest,
                         ::testing::Values(7, 11, 19, 23));

} // namespace

} // namespace heapmd
