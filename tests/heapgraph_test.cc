/**
 * @file
 * Unit tests of the heap-graph mirror: edge maintenance, freeing
 * semantics, realloc semantics, and the incremental degree census.
 */

#include <gtest/gtest.h>

#include "heapgraph/heap_graph.hh"

namespace heapmd
{

namespace
{

constexpr Addr kA = 0x1000;
constexpr Addr kB = 0x2000;
constexpr Addr kC = 0x3000;

TEST(DegreeHistogramTest, AddRemoveVertices)
{
    DegreeHistogram h;
    h.addVertex();
    h.addVertex();
    EXPECT_EQ(h.vertexCount(), 2u);
    EXPECT_EQ(h.indegCount(0), 2u);
    EXPECT_EQ(h.outdegCount(0), 2u);
    EXPECT_EQ(h.inEqOutCount(), 2u);
    h.removeVertex(0, 0);
    EXPECT_EQ(h.vertexCount(), 1u);
}

TEST(DegreeHistogramTest, TransitionMovesBuckets)
{
    DegreeHistogram h;
    h.addVertex();
    h.transition(0, 0, 1, 0);
    EXPECT_EQ(h.indegCount(0), 0u);
    EXPECT_EQ(h.indegCount(1), 1u);
    EXPECT_EQ(h.inEqOutCount(), 0u);
    h.transition(1, 0, 1, 1);
    EXPECT_EQ(h.inEqOutCount(), 1u);
    h.transition(1, 1, 5, 5); // beyond exact buckets, still in==out
    EXPECT_EQ(h.indegCount(1), 0u);
    EXPECT_EQ(h.inEqOutCount(), 1u);
}

TEST(DegreeHistogramTest, NoopTransition)
{
    DegreeHistogram h;
    h.addVertex();
    h.transition(0, 0, 0, 0);
    EXPECT_EQ(h.indegCount(0), 1u);
}

TEST(DegreeHistogramDeathTest, RemoveFromEmptyPanics)
{
    DegreeHistogram h;
    EXPECT_DEATH(h.removeVertex(0, 0), "empty");
}

TEST(DegreeHistogramDeathTest, BucketQueryBeyondExactPanics)
{
    DegreeHistogram h;
    EXPECT_DEATH(h.indegCount(3), "not tracked");
    EXPECT_DEATH(h.outdegCount(3), "not tracked");
}

TEST(HeapGraphTest, AllocateCreatesIsolatedVertex)
{
    HeapGraph g;
    const ObjectId id = g.allocate(kA, 64);
    EXPECT_EQ(g.vertexCount(), 1u);
    EXPECT_EQ(g.edgeCount(), 0u);
    const ObjectRecord *rec = g.objectById(id);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->indegree(), 0u);
    EXPECT_EQ(rec->outdegree(), 0u);
    EXPECT_EQ(g.stats().liveBytes, 64u);
}

TEST(HeapGraphTest, WriteCreatesEdge)
{
    HeapGraph g;
    const ObjectId a = g.allocate(kA, 64);
    const ObjectId b = g.allocate(kB, 64);
    g.write(kA + 8, kB);
    EXPECT_TRUE(g.hasEdge(a, b));
    EXPECT_EQ(g.edgeCount(), 1u);
    EXPECT_EQ(g.objectById(a)->outdegree(), 1u);
    EXPECT_EQ(g.objectById(b)->indegree(), 1u);
    EXPECT_EQ(g.stats().pointerWrites, 1u);
}

TEST(HeapGraphTest, InteriorPointerCreatesEdge)
{
    HeapGraph g;
    const ObjectId a = g.allocate(kA, 64);
    const ObjectId b = g.allocate(kB, 64);
    g.write(kA, kB + 63); // last byte of b
    EXPECT_TRUE(g.hasEdge(a, b));
    g.write(kA, kB + 64); // one past the end: no object
    EXPECT_FALSE(g.hasEdge(a, b));
}

TEST(HeapGraphTest, OverwriteRetargetsSlot)
{
    HeapGraph g;
    const ObjectId a = g.allocate(kA, 64);
    const ObjectId b = g.allocate(kB, 64);
    const ObjectId c = g.allocate(kC, 64);
    g.write(kA, kB);
    g.write(kA, kC); // same slot now points at c
    EXPECT_FALSE(g.hasEdge(a, b));
    EXPECT_TRUE(g.hasEdge(a, c));
    EXPECT_EQ(g.edgeCount(), 1u);
}

TEST(HeapGraphTest, NullingSlotSeversEdge)
{
    HeapGraph g;
    const ObjectId a = g.allocate(kA, 64);
    const ObjectId b = g.allocate(kB, 64);
    g.write(kA, kB);
    g.write(kA, 0);
    EXPECT_FALSE(g.hasEdge(a, b));
    EXPECT_EQ(g.stats().clearedSlots, 1u);
}

TEST(HeapGraphTest, MultipleSlotsOneDistinctEdge)
{
    HeapGraph g;
    const ObjectId a = g.allocate(kA, 64);
    const ObjectId b = g.allocate(kB, 64);
    g.write(kA, kB);
    g.write(kA + 8, kB);
    EXPECT_EQ(g.edgeCount(), 1u); // distinct neighbour
    EXPECT_EQ(g.objectById(a)->outdegree(), 1u);
    EXPECT_EQ(g.objectById(b)->indegree(), 1u);
    g.write(kA, 0); // one slot cleared, edge survives
    EXPECT_TRUE(g.hasEdge(a, b));
    g.write(kA + 8, 0);
    EXPECT_FALSE(g.hasEdge(a, b));
}

TEST(HeapGraphTest, SelfEdge)
{
    HeapGraph g;
    const ObjectId a = g.allocate(kA, 64);
    g.write(kA, kA + 16);
    EXPECT_TRUE(g.hasEdge(a, a));
    EXPECT_EQ(g.objectById(a)->indegree(), 1u);
    EXPECT_EQ(g.objectById(a)->outdegree(), 1u);
    EXPECT_EQ(g.histogram().inEqOutCount(), 1u);
    g.write(kA, 0);
    EXPECT_FALSE(g.hasEdge(a, a));
    g.checkConsistency();
}

TEST(HeapGraphTest, WriteOutsideHeapIgnored)
{
    HeapGraph g;
    g.allocate(kA, 64);
    g.write(0x999999, kA);
    EXPECT_EQ(g.stats().ignoredWrites, 1u);
    EXPECT_EQ(g.edgeCount(), 0u);
}

TEST(HeapGraphTest, FreeSeversOutEdges)
{
    HeapGraph g;
    g.allocate(kA, 64);
    const ObjectId b = g.allocate(kB, 64);
    g.write(kA, kB);
    EXPECT_TRUE(g.free(kA));
    EXPECT_EQ(g.vertexCount(), 1u);
    EXPECT_EQ(g.objectById(b)->indegree(), 0u);
    EXPECT_EQ(g.edgeCount(), 0u);
    g.checkConsistency();
}

TEST(HeapGraphTest, FreeSeversInEdges)
{
    HeapGraph g;
    const ObjectId a = g.allocate(kA, 64);
    g.allocate(kB, 64);
    g.write(kA, kB);
    EXPECT_TRUE(g.free(kB));
    EXPECT_EQ(g.objectById(a)->outdegree(), 0u);
    EXPECT_TRUE(g.objectById(a)->slots.empty());
    g.checkConsistency();
}

TEST(HeapGraphTest, FreeUnknownAddressCounted)
{
    HeapGraph g;
    EXPECT_FALSE(g.free(kA));
    EXPECT_EQ(g.stats().unknownFrees, 1u);
    g.allocate(kA, 64);
    EXPECT_TRUE(g.free(kA));
    EXPECT_FALSE(g.free(kA)); // double free
    EXPECT_EQ(g.stats().unknownFrees, 2u);
}

TEST(HeapGraphTest, FreeOfInteriorAddressFails)
{
    HeapGraph g;
    g.allocate(kA, 64);
    EXPECT_FALSE(g.free(kA + 8));
}

TEST(HeapGraphTest, DanglingEdgeNotResurrectedByReuse)
{
    HeapGraph g;
    const ObjectId a = g.allocate(kA, 64);
    g.allocate(kB, 64);
    g.write(kA, kB);
    g.free(kB);
    // New object at the same address: the stale slot does not re-bind.
    const ObjectId b2 = g.allocate(kB, 64);
    EXPECT_FALSE(g.hasEdge(a, b2));
    EXPECT_EQ(g.objectById(b2)->indegree(), 0u);
    // A fresh write does bind.
    g.write(kA, kB);
    EXPECT_TRUE(g.hasEdge(a, b2));
}

TEST(HeapGraphDeathTest, OverlappingAllocationPanics)
{
    HeapGraph g;
    g.allocate(kA, 64);
    EXPECT_DEATH(g.allocate(kA + 32, 16), "overlap|lands inside");
    EXPECT_DEATH(g.allocate(kA - 8, 16), "overlap|lands inside");
}

TEST(HeapGraphDeathTest, ZeroSizeAllocationPanics)
{
    HeapGraph g;
    EXPECT_DEATH(g.allocate(kA, 0), "size 0");
}

TEST(HeapGraphDeathTest, NullAllocationPanics)
{
    HeapGraph g;
    EXPECT_DEATH(g.allocate(kNullAddr, 8), "null");
}

TEST(HeapGraphTest, ReallocInPlaceShrinkDropsTailSlots)
{
    HeapGraph g;
    const ObjectId a = g.allocate(kA, 64);
    const ObjectId b = g.allocate(kB, 64);
    g.write(kA + 8, kB);
    g.write(kA + 48, kB);
    const ObjectId id = g.reallocate(kA, kA, 32);
    EXPECT_EQ(id, a);
    EXPECT_EQ(g.objectById(a)->slots.size(), 1u); // +48 dropped
    EXPECT_TRUE(g.hasEdge(a, b));
    EXPECT_EQ(g.stats().liveBytes, 32u + 64u);
    g.checkConsistency();
}

TEST(HeapGraphTest, ReallocMovePreservesOutEdges)
{
    HeapGraph g;
    const ObjectId a = g.allocate(kA, 64);
    const ObjectId b = g.allocate(kB, 64);
    g.write(kA + 8, kB);
    const ObjectId a2 = g.reallocate(kA, kC, 128);
    EXPECT_NE(a2, a);
    EXPECT_TRUE(g.hasEdge(a2, b));
    EXPECT_EQ(g.objectById(a2)->slots.count(kC + 8), 1u);
    EXPECT_EQ(g.objectStartingAt(kA), nullptr);
    g.checkConsistency();
}

TEST(HeapGraphTest, ReallocMoveDropsInEdges)
{
    HeapGraph g;
    g.allocate(kA, 64);
    g.allocate(kB, 64);
    g.write(kB, kA); // b -> a
    const ObjectId a2 = g.reallocate(kA, kC, 64);
    // b still holds the old address: the edge dangles.
    EXPECT_EQ(g.objectById(a2)->indegree(), 0u);
    g.checkConsistency();
}

TEST(HeapGraphTest, ReallocMoveSelfPointerDangles)
{
    HeapGraph g;
    const ObjectId a = g.allocate(kA, 64);
    g.write(kA + 8, kA); // self edge
    EXPECT_TRUE(g.hasEdge(a, a));
    const ObjectId a2 = g.reallocate(kA, kB, 64);
    // The copied pointer still holds the old address: dangling.
    EXPECT_FALSE(g.hasEdge(a2, a2));
    EXPECT_EQ(g.objectById(a2)->outdegree(), 0u);
    g.checkConsistency();
}

TEST(HeapGraphTest, ReallocNullActsAsMalloc)
{
    HeapGraph g;
    const ObjectId id = g.reallocate(kNullAddr, kA, 32);
    EXPECT_NE(id, kNoObject);
    EXPECT_EQ(g.vertexCount(), 1u);
}

TEST(HeapGraphTest, ReallocToZeroActsAsFree)
{
    HeapGraph g;
    g.allocate(kA, 32);
    const ObjectId id = g.reallocate(kA, kA, 0);
    EXPECT_EQ(id, kNoObject);
    EXPECT_EQ(g.vertexCount(), 0u);
}

TEST(HeapGraphTest, PeakTracking)
{
    HeapGraph g;
    g.allocate(kA, 100);
    g.allocate(kB, 200);
    g.free(kA);
    EXPECT_EQ(g.stats().peakLiveBytes, 300u);
    EXPECT_EQ(g.stats().peakVertices, 2u);
    EXPECT_EQ(g.stats().liveBytes, 200u);
}

TEST(HeapGraphTest, ObjectLookups)
{
    HeapGraph g;
    const ObjectId a = g.allocate(kA, 64);
    EXPECT_EQ(g.objectAt(kA)->id, a);
    EXPECT_EQ(g.objectAt(kA + 63)->id, a);
    EXPECT_EQ(g.objectAt(kA + 64), nullptr);
    EXPECT_EQ(g.objectAt(kA - 1), nullptr);
    EXPECT_EQ(g.objectStartingAt(kA)->id, a);
    EXPECT_EQ(g.objectStartingAt(kA + 8), nullptr);
    EXPECT_EQ(g.objectById(a)->addr, kA);
    EXPECT_EQ(g.objectById(a + 999), nullptr);
    EXPECT_EQ(g.objectAt(kNullAddr), nullptr);
}

TEST(HeapGraphTest, ClearResetsButKeepsIdsUnique)
{
    HeapGraph g;
    const ObjectId a = g.allocate(kA, 64);
    g.clear();
    EXPECT_EQ(g.vertexCount(), 0u);
    EXPECT_EQ(g.stats().liveBytes, 0u);
    const ObjectId b = g.allocate(kA, 64);
    EXPECT_GT(b, a); // ids never recycled
}

TEST(HeapGraphTest, DegreeCensusOnLinkedList)
{
    // Build a 5-node singly linked list.
    HeapGraph g;
    std::vector<Addr> nodes;
    for (int i = 0; i < 5; ++i) {
        const Addr addr = 0x1000 + 0x100 * i;
        g.allocate(addr, 32);
        nodes.push_back(addr);
    }
    for (int i = 0; i + 1 < 5; ++i)
        g.write(nodes[i] + 8, nodes[i + 1]);

    const DegreeHistogram &h = g.histogram();
    EXPECT_EQ(h.vertexCount(), 5u);
    EXPECT_EQ(h.indegCount(0), 1u);  // head
    EXPECT_EQ(h.indegCount(1), 4u);  // rest
    EXPECT_EQ(h.outdegCount(0), 1u); // tail
    EXPECT_EQ(h.outdegCount(1), 4u);
    EXPECT_EQ(h.inEqOutCount(), 3u); // interior nodes
    g.checkConsistency();
}

TEST(HeapGraphTest, RecomputeMatchesIncremental)
{
    HeapGraph g;
    g.allocate(kA, 64);
    g.allocate(kB, 64);
    g.allocate(kC, 64);
    g.write(kA, kB);
    g.write(kB, kC);
    g.write(kC, kA);
    const DegreeHistogram fresh = g.recomputeHistogram();
    EXPECT_EQ(fresh.vertexCount(), g.histogram().vertexCount());
    EXPECT_EQ(fresh.indegCount(1), g.histogram().indegCount(1));
    EXPECT_EQ(fresh.inEqOutCount(), g.histogram().inEqOutCount());
}

} // namespace

} // namespace heapmd
