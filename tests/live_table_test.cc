/**
 * @file
 * Tests of the capture shim's live table (live_table.hh) over plain
 * heap buffers and mmap'd regions, with no interposition, so they
 * build and run under the sanitizers too.
 *
 * Beyond the unit cases, a differential test checks the table against
 * the replay side: random insert/erase/move/resize/overwrite sequences
 * over real heap buffers, every emitted event folded into a fresh
 * HeapGraph.  After every step the table's census must equal
 * MetricEngine::sample() of that graph on all seven metrics, and
 * after every scan the graph must hold exactly the memory's edges.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include "capture/live_table.hh"
#include "heapgraph/heap_graph.hh"
#include "metrics/metric.hh"
#include "metrics/metric_engine.hh"

namespace heapmd
{

namespace
{

using capture::LiveTable;
using capture::ScanStats;

std::uintptr_t
addrOf(const void *ptr)
{
    return reinterpret_cast<std::uintptr_t>(ptr);
}

// ---------------------------------------------------------------
// LiveTable: extent bookkeeping (synthetic addresses, no scanning).
// ---------------------------------------------------------------

TEST(LiveTableTest, InsertResolveErase)
{
    LiveTable table;
    table.insert(0x1000, 64);
    table.insert(0x2000, 32);
    EXPECT_EQ(table.objectCount(), 2u);
    EXPECT_EQ(table.liveBytes(), 96u);

    EXPECT_EQ(table.resolve(0x1000), 0x1000u); // first byte
    EXPECT_EQ(table.resolve(0x103f), 0x1000u); // last byte
    EXPECT_EQ(table.resolve(0x1040), 0u);      // one past the end
    EXPECT_EQ(table.resolve(0x0fff), 0u);
    EXPECT_EQ(table.resolve(0x2010), 0x2000u);

    EXPECT_EQ(table.erase(0x1000), 64u);
    EXPECT_EQ(table.erase(0x1000), 0u); // already gone
    EXPECT_EQ(table.resolve(0x1010), 0u);
    EXPECT_EQ(table.liveBytes(), 32u);
}

TEST(LiveTableTest, OverlappingFindsStraddlers)
{
    LiveTable table;
    table.insert(0x1000, 0x40);
    table.insert(0x1080, 0x40);
    table.insert(0x2000, 0x40);

    // A range covering the tail of the first and all of the second.
    const std::vector<std::uintptr_t> hits =
        table.overlapping(0x1020, 0x100);
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0], 0x1000u);
    EXPECT_EQ(hits[1], 0x1080u);

    const std::vector<std::uintptr_t> excluded =
        table.overlapping(0x1020, 0x100, /*exclude=*/0x1080);
    ASSERT_EQ(excluded.size(), 1u);
    EXPECT_EQ(excluded[0], 0x1000u);

    EXPECT_TRUE(table.overlapping(0x3000, 0x100).empty());
}

TEST(LiveTableTest, ForEachExtentVisitsInAddressOrder)
{
    LiveTable table;
    table.insert(0x2000, 32);
    table.insert(0x1000, 64);
    std::vector<std::pair<std::uintptr_t, std::size_t>> seen;
    table.forEachExtent(
        [&seen](std::uintptr_t addr, std::size_t size) {
            seen.emplace_back(addr, size);
        });
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], (std::pair<std::uintptr_t, std::size_t>{
                           0x1000, 64}));
    EXPECT_EQ(seen[1], (std::pair<std::uintptr_t, std::size_t>{
                           0x2000, 32}));
}

// ---------------------------------------------------------------
// LiveTable: conservative scanning over real buffers.
// ---------------------------------------------------------------

struct Emitted
{
    std::uintptr_t slot;
    std::uintptr_t value;
};

std::vector<Emitted>
scanInto(LiveTable &table, ScanStats *stats = nullptr)
{
    std::vector<Emitted> out;
    const ScanStats s = table.scan(
        [&out](std::uintptr_t slot, std::uintptr_t value) {
            out.push_back({slot, value});
        });
    if (stats != nullptr)
        *stats = s;
    return out;
}

TEST(LiveTableScanTest, EmitsOnlyTheDelta)
{
    std::uintptr_t source[4] = {};
    std::uintptr_t target[4] = {};
    LiveTable table;
    table.insert(addrOf(source), sizeof(source));
    table.insert(addrOf(target), sizeof(target));

    source[0] = addrOf(&target[1]); // interior pointer
    source[2] = 12345;              // not a pointer

    ScanStats stats;
    std::vector<Emitted> first = scanInto(table, &stats);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].slot, addrOf(&source[0]));
    EXPECT_EQ(first[0].value, addrOf(&target[1]));
    EXPECT_EQ(stats.objectsScanned, 2u);
    EXPECT_EQ(stats.wordsScanned, 8u);
    EXPECT_EQ(table.edgeCount(), 1u);

    // Unchanged memory: the next pass is silent.
    EXPECT_TRUE(scanInto(table).empty());

    // Retargeting within the same extent re-emits.
    source[0] = addrOf(&target[3]);
    std::vector<Emitted> retarget = scanInto(table);
    ASSERT_EQ(retarget.size(), 1u);
    EXPECT_EQ(retarget[0].value, addrOf(&target[3]));

    // Clearing the slot emits Write(slot, 0).
    source[0] = 0;
    std::vector<Emitted> cleared = scanInto(table);
    ASSERT_EQ(cleared.size(), 1u);
    EXPECT_EQ(cleared[0].slot, addrOf(&source[0]));
    EXPECT_EQ(cleared[0].value, 0u);
    EXPECT_EQ(table.edgeCount(), 0u);
}

TEST(LiveTableScanTest, FreedTargetForcesReemission)
{
    std::uintptr_t source[2] = {};
    std::uintptr_t target[2] = {};
    LiveTable table;
    table.insert(addrOf(source), sizeof(source));
    table.insert(addrOf(target), sizeof(target));

    source[0] = addrOf(&target[0]);
    ASSERT_EQ(scanInto(table).size(), 1u);

    // Free + reuse of the target address: the graph severed the edge
    // on Free, so the (unchanged) word must be emitted again.
    table.erase(addrOf(target));
    table.insert(addrOf(target), sizeof(target));
    std::vector<Emitted> again = scanInto(table);
    ASSERT_EQ(again.size(), 1u);
    EXPECT_EQ(again[0].slot, addrOf(&source[0]));
    EXPECT_EQ(again[0].value, addrOf(&target[0]));
}

TEST(LiveTableScanTest, FreedSourceDropsItsEdges)
{
    std::uintptr_t source[2] = {};
    std::uintptr_t target[2] = {};
    LiveTable table;
    table.insert(addrOf(source), sizeof(source));
    table.insert(addrOf(target), sizeof(target));
    source[0] = addrOf(&target[0]);
    ASSERT_EQ(scanInto(table).size(), 1u);
    ASSERT_EQ(table.edgeCount(), 1u);

    table.erase(addrOf(source));
    EXPECT_EQ(table.edgeCount(), 0u);
    EXPECT_TRUE(scanInto(table).empty());
}

TEST(LiveTableScanTest, ResizeDropsEdgesBeyondNewEnd)
{
    std::uintptr_t source[4] = {};
    std::uintptr_t target[2] = {};
    LiveTable table;
    table.insert(addrOf(source), sizeof(source));
    table.insert(addrOf(target), sizeof(target));
    source[3] = addrOf(&target[0]);
    ASSERT_EQ(scanInto(table).size(), 1u);

    // Shrink past the slot: its edge state must be forgotten...
    ASSERT_TRUE(table.resize(addrOf(source), 2 * sizeof(std::uintptr_t)));
    EXPECT_EQ(table.edgeCount(), 0u);
    // ...and the shrunk extent no longer scans the stale slot.
    EXPECT_TRUE(scanInto(table).empty());
}

TEST(LiveTableScanTest, DegreeCensusComputesPaperMetrics)
{
    // a -> b, a -> c, b -> c, d isolated:
    //   a: in 0 out 2   (root, outdeg=2)
    //   b: in 1 out 1   (indeg=1, outdeg=1, in==out)
    //   c: in 2 out 0   (indeg=2, leaf)
    //   d: in 0 out 0   (root, leaf, in==out)
    std::uintptr_t a[4] = {};
    std::uintptr_t b[4] = {};
    std::uintptr_t c[4] = {};
    std::uintptr_t d[4] = {};
    LiveTable table;
    table.insert(addrOf(a), sizeof(a));
    table.insert(addrOf(b), sizeof(b));
    table.insert(addrOf(c), sizeof(c));
    table.insert(addrOf(d), sizeof(d));

    const capture::DegreeCensus empty_edges = table.degreeCensus();
    EXPECT_EQ(empty_edges.objects, 4u);
    // No edges yet: everything is a root, a leaf, and in==out.
    EXPECT_DOUBLE_EQ(
        empty_edges.percent[metricIndex(MetricId::Roots)], 100.0);
    EXPECT_DOUBLE_EQ(
        empty_edges.percent[metricIndex(MetricId::Leaves)], 100.0);
    EXPECT_DOUBLE_EQ(
        empty_edges.percent[metricIndex(MetricId::InEqOut)], 100.0);
    EXPECT_DOUBLE_EQ(
        empty_edges.percent[metricIndex(MetricId::Indeg1)], 0.0);

    a[0] = addrOf(&b[0]);
    a[1] = addrOf(&c[1]); // interior pointers count like starts
    b[0] = addrOf(&c[0]);
    ASSERT_EQ(scanInto(table).size(), 3u);

    const capture::DegreeCensus census = table.degreeCensus();
    EXPECT_EQ(census.objects, 4u);
    const auto pct = [&census](MetricId id) {
        return census.percent[metricIndex(id)];
    };
    EXPECT_DOUBLE_EQ(pct(MetricId::Roots), 50.0);   // a, d
    EXPECT_DOUBLE_EQ(pct(MetricId::Indeg1), 25.0);  // b
    EXPECT_DOUBLE_EQ(pct(MetricId::Indeg2), 25.0);  // c
    EXPECT_DOUBLE_EQ(pct(MetricId::Leaves), 50.0);  // c, d
    EXPECT_DOUBLE_EQ(pct(MetricId::Outdeg1), 25.0); // b
    EXPECT_DOUBLE_EQ(pct(MetricId::Outdeg2), 25.0); // a
    EXPECT_DOUBLE_EQ(pct(MetricId::InEqOut), 50.0); // b, d

    // Freeing the shared target severs both of its in-edges and the
    // census follows: a keeps out-degree 1 (edge into b survives).
    table.erase(addrOf(c));
    const capture::DegreeCensus after = table.degreeCensus();
    EXPECT_EQ(after.objects, 3u);
    EXPECT_DOUBLE_EQ(
        after.percent[metricIndex(MetricId::Indeg2)], 0.0);
    EXPECT_DOUBLE_EQ(after.percent[metricIndex(MetricId::Outdeg1)],
                     100.0 / 3.0); // a only
    EXPECT_DOUBLE_EQ(after.percent[metricIndex(MetricId::Leaves)],
                     200.0 / 3.0); // b, d

    const LiveTable untouched;
    EXPECT_EQ(untouched.degreeCensus().objects, 0u);
}

TEST(LiveTableScanTest, CensusCountsDistinctNeighbours)
{
    // a[0] and a[1] both point into b, a[2] into a itself:
    //   a: in 1 (itself) out 2 (b, a)
    //   b: in 1          out 0
    std::uintptr_t a[4] = {};
    std::uintptr_t b[4] = {};
    LiveTable table;
    table.insert(addrOf(a), sizeof(a));
    table.insert(addrOf(b), sizeof(b));
    a[0] = addrOf(&b[0]);
    a[1] = addrOf(&b[2]);
    a[2] = addrOf(&a[3]);
    ASSERT_EQ(scanInto(table).size(), 3u);
    EXPECT_EQ(table.edgeCount(), 3u); // slots, not neighbours

    const capture::DegreeCensus census = table.degreeCensus();
    EXPECT_EQ(census.objects, 2u);
    const auto pct = [&census](MetricId id) {
        return census.percent[metricIndex(id)];
    };
    EXPECT_DOUBLE_EQ(pct(MetricId::Roots), 0.0);
    EXPECT_DOUBLE_EQ(pct(MetricId::Indeg1), 100.0); // a, b
    EXPECT_DOUBLE_EQ(pct(MetricId::Indeg2), 0.0);
    EXPECT_DOUBLE_EQ(pct(MetricId::Leaves), 50.0);  // b
    EXPECT_DOUBLE_EQ(pct(MetricId::Outdeg1), 0.0);
    EXPECT_DOUBLE_EQ(pct(MetricId::Outdeg2), 50.0); // a
    EXPECT_DOUBLE_EQ(pct(MetricId::InEqOut), 0.0);
}

TEST(LiveTableScanTest, MovedExtentKeepsTheEdgesReplayKeeps)
{
    std::uintptr_t a[4] = {};
    std::uintptr_t moved[4] = {};
    std::uintptr_t b[2] = {};
    std::uintptr_t c[2] = {};
    LiveTable table;
    table.insert(addrOf(a), sizeof(a));
    table.insert(addrOf(b), sizeof(b));
    table.insert(addrOf(c), sizeof(c));
    a[0] = addrOf(&b[0]); // out-edge
    a[1] = addrOf(&a[2]); // self-edge
    c[0] = addrOf(&a[0]); // in-edge
    ASSERT_EQ(scanInto(table).size(), 3u);
    ASSERT_EQ(table.edgeCount(), 3u);

    // realloc(a) moves: the words are copied.  The edge into b
    // travels; the copied self-pointer still names the old extent,
    // and c's edge pointed at the old extent, so both go.
    std::memcpy(moved, a, sizeof(a));
    ASSERT_TRUE(
        table.reallocate(addrOf(a), addrOf(moved), sizeof(moved)));
    EXPECT_FALSE(table.contains(addrOf(a)));
    EXPECT_EQ(table.resolve(addrOf(&moved[3])), addrOf(moved));
    EXPECT_EQ(table.edgeCount(), 1u);
    EXPECT_EQ(table.objectCount(), 3u);

    // Overwritten before the next scan: the carried edge must clear.
    moved[0] = 0;
    const std::vector<Emitted> cleared = scanInto(table);
    ASSERT_EQ(cleared.size(), 1u);
    EXPECT_EQ(cleared[0].slot, addrOf(&moved[0]));
    EXPECT_EQ(cleared[0].value, 0u);
    EXPECT_EQ(table.edgeCount(), 0u);

    // A shrinking move keeps only the edges below the new size.
    std::uintptr_t small[1] = {};
    moved[0] = addrOf(&b[1]);
    moved[2] = addrOf(&c[0]);
    ASSERT_EQ(scanInto(table).size(), 2u);
    std::memcpy(small, moved, sizeof(small));
    ASSERT_TRUE(table.reallocate(addrOf(moved), addrOf(small),
                                 sizeof(small)));
    EXPECT_EQ(table.edgeCount(), 1u);
    EXPECT_TRUE(scanInto(table).empty());
    EXPECT_FALSE(table.reallocate(addrOf(moved), addrOf(a), 8));
}

// ---------------------------------------------------------------
// LiveTable: residency sweep over an mmap'd region.
// ---------------------------------------------------------------

TEST(LiveTableResidencyTest, ReportsExactlyTheExtentsTouchingAHole)
{
    const std::uintptr_t page =
        static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
    void *region = ::mmap(nullptr, 4 * page, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    ASSERT_NE(region, MAP_FAILED);
    const std::uintptr_t base = addrOf(region);

    // Extents carved out of four pages; the middle page 1 goes.
    const std::pair<std::uintptr_t, std::uintptr_t> extents[] = {
        {0, page / 2},                  // page 0
        {page / 2, page / 2 + 16},      // pages 0-1
        {page + 16, page - 24},         // page 1
        {2 * page - 8, 16},             // pages 1-2
        {2 * page + 8, page - 8},       // page 2
        {3 * page, page},               // page 3
    };
    LiveTable table;
    for (auto it = std::rbegin(extents); it != std::rend(extents); ++it)
        table.insert(base + it->first, it->second);
    EXPECT_TRUE(table.unmappedExtents().empty());

    ASSERT_EQ(::munmap(reinterpret_cast<void *>(base + page), page), 0);
    const std::vector<std::uintptr_t> expected = {
        base + page / 2, base + page + 16, base + 2 * page - 8};
    EXPECT_EQ(table.unmappedExtents(), expected);

    // Once those go, the extents on either side of the hole form two
    // runs, and both are mapped.
    for (const std::uintptr_t start : expected)
        table.erase(start);
    EXPECT_TRUE(table.unmappedExtents().empty());

    ::munmap(region, page);
    ::munmap(reinterpret_cast<void *>(base + 2 * page), 2 * page);
}

// ---------------------------------------------------------------
// LiveTable vs the replayed graph (differential).
// ---------------------------------------------------------------

/** A real heap buffer with room to grow in place. */
struct Buffer
{
    std::uintptr_t *words = nullptr;
    std::size_t capacity = 0; //!< bytes allocated
    std::size_t size = 0;     //!< bytes registered with the table
};

/**
 * Drives a LiveTable over real buffers and folds every event it
 * would put in a trace -- Alloc, Free, Realloc and the scans' writes
 * -- into a HeapGraph, the way replay does.
 */
class Mirror
{
  public:
    explicit Mirror(std::uint64_t seed) : rng_(seed) {}

    ~Mirror()
    {
        for (const Buffer &buf : live_)
            std::free(buf.words);
    }

    Mirror(const Mirror &) = delete;
    Mirror &operator=(const Mirror &) = delete;

    void
    step()
    {
        const std::uint64_t roll = pick(100);
        if (live_.size() < 8 || (roll < 15 && live_.size() < 64))
            insert();
        else if (roll < 27)
            erase(pick(live_.size()));
        else if (roll < 37)
            move(pick(live_.size()));
        else if (roll < 45)
            resize(pick(live_.size()));
        else if (roll < 85)
            overwrite(pick(live_.size()));
        else
            scan();
    }

    /** Scan, fold the writes, and hold the graph to the memory. */
    void
    scan()
    {
        table_.scan([this](std::uintptr_t slot, std::uintptr_t value) {
            graph_.write(slot, value);
        });
        expectGraphMatchesMemory();
    }

    /** The table and the graph must agree on every census figure. */
    void
    expectAgree(const std::string &where) const
    {
        const capture::DegreeCensus census = table_.degreeCensus();
        const MetricSample sample = MetricEngine::sample(graph_, 0, 0);
        ASSERT_EQ(census.objects, sample.vertexCount) << where;
        for (const MetricId id : kAllMetrics) {
            ASSERT_EQ(census.percent[metricIndex(id)], sample.value(id))
                << where << ": " << metricName(id);
        }
        std::size_t slots = 0;
        graph_.forEachObject(
            [&slots](const ObjectRecord &rec) { slots += rec.slots.size(); });
        ASSERT_EQ(table_.edgeCount(), slots) << where;
        ASSERT_EQ(table_.objectCount(), live_.size()) << where;
    }

  private:
    std::uint64_t pick(std::uint64_t n) { return rng_() % n; }

    /**
     * Right after a scan the replayed graph holds exactly the edges
     * the memory holds: every whole word of a live extent whose value
     * lands inside a live extent, and nothing else.
     */
    void
    expectGraphMatchesMemory() const
    {
        std::map<std::uintptr_t, std::size_t> extents;
        for (const Buffer &buf : live_)
            extents.emplace(addrOf(buf.words), buf.size);
        std::map<std::uintptr_t, std::uintptr_t> want; // slot -> base
        for (const Buffer &buf : live_) {
            const std::size_t words = buf.size / sizeof(std::uintptr_t);
            for (std::size_t w = 0; w < words; ++w) {
                const std::uintptr_t value = buf.words[w];
                auto it = extents.upper_bound(value);
                if (it == extents.begin())
                    continue;
                --it;
                if (value - it->first < it->second)
                    want[addrOf(&buf.words[w])] = it->first;
            }
        }
        std::map<std::uintptr_t, std::uintptr_t> got;
        graph_.forEachObject([&](const ObjectRecord &rec) {
            for (const auto &[slot, target] : rec.slots)
                got[slot] = graph_.objectById(target)->addr;
        });
        ASSERT_EQ(got, want);
    }

    std::size_t
    pickCapacity()
    {
        static constexpr std::size_t kCapacities[] = {
            8, 16, 24, 40, 64, 256, 4096 + 64};
        return kCapacities[pick(std::size(kCapacities))];
    }

    Buffer
    allocate(std::size_t capacity)
    {
        Buffer buf;
        buf.capacity = capacity;
        buf.words = static_cast<std::uintptr_t *>(
            std::calloc(capacity / sizeof(std::uintptr_t),
                        sizeof(std::uintptr_t)));
        buf.size = 1 + pick(capacity);
        return buf;
    }

    void
    insert()
    {
        const Buffer buf = allocate(pickCapacity());
        table_.insert(addrOf(buf.words), buf.size);
        graph_.allocate(addrOf(buf.words), buf.size);
        live_.push_back(buf);
    }

    void
    erase(std::size_t i)
    {
        const Buffer buf = live_[i];
        EXPECT_EQ(table_.erase(addrOf(buf.words)), buf.size);
        graph_.free(addrOf(buf.words));
        bury(buf);
        std::free(buf.words);
        live_[i] = live_.back();
        live_.pop_back();
    }

    /** realloc that moves: copy, re-register, then free the old. */
    void
    move(std::size_t i)
    {
        const Buffer old = live_[i];
        const Buffer fresh = allocate(pickCapacity());
        std::memcpy(fresh.words, old.words,
                    std::min(old.capacity, fresh.capacity));
        ASSERT_TRUE(table_.reallocate(addrOf(old.words),
                                      addrOf(fresh.words), fresh.size));
        graph_.reallocate(addrOf(old.words), addrOf(fresh.words),
                          fresh.size);
        bury(old);
        std::free(old.words);
        live_[i] = fresh;
    }

    /** realloc in place, within the buffer's capacity. */
    void
    resize(std::size_t i)
    {
        Buffer &buf = live_[i];
        buf.size = 1 + pick(buf.capacity);
        ASSERT_TRUE(table_.reallocate(addrOf(buf.words),
                                      addrOf(buf.words), buf.size));
        graph_.reallocate(addrOf(buf.words), addrOf(buf.words),
                          buf.size);
    }

    /** Store a pointer (interior, self, past the extent) or not. */
    void
    overwrite(std::size_t i)
    {
        const Buffer &buf = live_[i];
        std::uintptr_t &word =
            buf.words[pick(buf.capacity / sizeof(std::uintptr_t))];
        const std::uint64_t kind = pick(10);
        if (kind == 0) {
            word = 0;
        } else if (kind == 1) {
            word = pick(1 << 20); // small integer
        } else if (kind == 2) {
            word = addrOf(buf.words) + pick(buf.capacity); // self
        } else if (kind == 3 && !dead_.empty()) {
            word = dead_[pick(dead_.size())]; // maybe recycled
        } else {
            const Buffer &to = live_[pick(live_.size())];
            word = addrOf(to.words) + pick(to.capacity);
        }
    }

    void
    bury(const Buffer &buf)
    {
        const std::uintptr_t addr = addrOf(buf.words) + pick(buf.capacity);
        if (dead_.size() < 32)
            dead_.push_back(addr);
        else
            dead_[pick(dead_.size())] = addr;
    }

    std::mt19937_64 rng_;
    LiveTable table_;
    HeapGraph graph_;
    std::vector<Buffer> live_;
    /** Addresses inside freed buffers (stale pointers). */
    std::vector<std::uintptr_t> dead_;
};

class LiveTableDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LiveTableDifferentialTest, CensusMatchesTheReplayedGraph)
{
    Mirror mirror(GetParam());
    for (int i = 0; i < 4000; ++i) {
        mirror.step();
        mirror.expectAgree("step " + std::to_string(i));
        if (::testing::Test::HasFatalFailure())
            return;
    }
    mirror.scan();
    mirror.expectAgree("final scan");
}

INSTANTIATE_TEST_SUITE_P(Seeds, LiveTableDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

} // namespace

} // namespace heapmd
