/**
 * @file
 * Two-level page-indexed extent map: O(1) owner lookup for the
 * heap-graph (DESIGN.md §16).
 *
 * Replaces the ordered std::map<Addr, ObjectId> address index.  The
 * address space is cut into 4 KiB pages grouped into 512-page leaves;
 * a hash directory maps leaf number -> leaf (the two-level radix
 * shape of gperftools' addressmap).  Each page records
 *
 *  - the objects *starting* in the page, as a small offset-sorted
 *    array (an object start fits in a u16 page offset + u32 slot);
 *  - at most one *spanner*: the slot of the object that covers the
 *    page's first byte but starts in an earlier page.
 *
 * Lookup invariant (extents of live objects are disjoint): the owner
 * of an address, if any, is the single candidate
 *
 *      predecessor start in the page, else the page's spanner
 *
 * because an in-page start at offset <= a hides the spanner (the
 * spanner's extent must end before that start begins), and any
 * earlier in-page start must end before the predecessor start.  The
 * caller still checks contains() -- the candidate may simply end
 * before the queried byte.
 *
 * Ordered iteration (freeOverlapping, consistency oracles) walks the
 * page range ascending and visits each page's start array in offset
 * order; no global ordered structure is kept.
 *
 * Work is bounded by the pages an extent starts in, never by its
 * size.  An extent wider than one leaf (or one whose end passes the
 * top of the address space, which is then its end) skips the page
 * grid: it sits in a small address-sorted side list, consulted only
 * when the list is non-empty.  Every grid extent therefore covers at
 * most kLeafSize + 1 pages, so insert/erase write at most that many
 * spanners, and a range walk spanning more leaves than exist visits
 * only the materialized ones.
 */

#ifndef HEAPMD_HEAPGRAPH_PAGE_INDEX_HH
#define HEAPMD_HEAPGRAPH_PAGE_INDEX_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "support/logging.hh"
#include "support/types.hh"

namespace heapmd
{

class PageIndex
{
  public:
    static constexpr std::uint64_t kPageShift = 12;
    static constexpr std::uint64_t kPageSize = std::uint64_t{1}
                                               << kPageShift;
    static constexpr std::uint64_t kPageMask = kPageSize - 1;
    /** Pages per leaf (directory fan-out). */
    static constexpr std::uint64_t kLeafBits = 9;
    static constexpr std::uint64_t kLeafSize = std::uint64_t{1}
                                               << kLeafBits;
    static constexpr std::uint64_t kLeafMask = kLeafSize - 1;

    /** Bytes of address space one leaf covers (2 MiB). */
    static constexpr std::uint64_t kLeafSpan = kLeafSize << kPageShift;

    /** Sentinel slot ("no object"). */
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    /** An object start within a page. */
    struct Start
    {
        std::uint32_t slot = kNoSlot;
        std::uint16_t offset = 0; //!< start address & kPageMask
    };

    struct Page
    {
        /** Object covering the page's first byte from an earlier
         *  page, or kNoSlot. */
        std::uint32_t spanner = kNoSlot;
        /** Objects starting in this page, ascending by offset. */
        std::vector<Start> starts;

        bool
        empty() const
        {
            return spanner == kNoSlot && starts.empty();
        }
    };

    /** An extent kept in the side list instead of the page grid. */
    struct Wide
    {
        Addr addr = 0;
        std::uint64_t size = 0;
        std::uint32_t slot = kNoSlot;
    };

    static constexpr std::uint64_t
    pageOf(Addr addr)
    {
        return addr >> kPageShift;
    }

    /**
     * Last byte of the extent [addr, addr + size), size > 0; an
     * extent whose end passes 2^64 ends at the top of the space.
     */
    static constexpr Addr
    lastByte(Addr addr, std::uint64_t size)
    {
        const Addr last = addr + (size - 1);
        return last < addr ? ~Addr{0} : last;
    }

    /** True when the extent goes to the side list, not the grid. */
    static constexpr bool
    isWide(Addr addr, std::uint64_t size)
    {
        return size > kLeafSpan || addr + (size - 1) < addr;
    }

    /** Index the extent [addr, addr + size) under @p slot. */
    void
    insert(Addr addr, std::uint64_t size, std::uint32_t slot)
    {
        if (isWide(addr, size)) {
            if (startAt(addr) != kNoSlot)
                HEAPMD_PANIC("page index: duplicate start at ", addr);
            wide_.insert(wideLowerBound(addr), Wide{addr, size, slot});
            ++start_count_;
            return;
        }
        if (!wide_.empty() && wideAt(addr) != wide_.end())
            HEAPMD_PANIC("page index: duplicate start at ", addr);
        const std::uint64_t first = pageOf(addr);
        const std::uint64_t last = pageOf(addr + size - 1);
        Page &pg = page(first);
        const auto off = static_cast<std::uint16_t>(addr & kPageMask);
        const auto pos = std::lower_bound(
            pg.starts.begin(), pg.starts.end(), off,
            [](const Start &s, std::uint16_t o) { return s.offset < o; });
        if (pos != pg.starts.end() && pos->offset == off)
            HEAPMD_PANIC("page index: duplicate start at ", addr);
        pg.starts.insert(pos, Start{slot, off});
        for (std::uint64_t p = first + 1; p <= last; ++p)
            page(p).spanner = slot;
        ++start_count_;
    }

    /** Remove the extent [addr, addr + size). */
    void
    erase(Addr addr, std::uint64_t size)
    {
        if (isWide(addr, size)) {
            const auto it = wideAt(addr);
            if (it == wide_.end())
                HEAPMD_PANIC("page index: erase of unindexed start ",
                             addr);
            wide_.erase(it);
            --start_count_;
            return;
        }
        const std::uint64_t first = pageOf(addr);
        const std::uint64_t last = pageOf(addr + size - 1);
        Page *pg = findPage(first);
        const auto off = static_cast<std::uint16_t>(addr & kPageMask);
        if (pg == nullptr)
            HEAPMD_PANIC("page index: erase of unindexed page");
        const auto pos = std::lower_bound(
            pg->starts.begin(), pg->starts.end(), off,
            [](const Start &s, std::uint16_t o) { return s.offset < o; });
        if (pos == pg->starts.end() || pos->offset != off)
            HEAPMD_PANIC("page index: erase of unindexed start ", addr);
        pg->starts.erase(pos);
        for (std::uint64_t p = first + 1; p <= last; ++p)
            page(p).spanner = kNoSlot;
        --start_count_;
    }

    /**
     * Single candidate owner of @p addr, or kNoSlot.  The caller must
     * confirm the candidate's extent actually contains @p addr.
     */
    std::uint32_t
    lookup(Addr addr) const
    {
        if (!wide_.empty()) {
            // A wide extent containing addr is the owner: extents are
            // disjoint, so no grid extent can contain it too.
            const auto it = wideUpperBound(addr);
            if (it != wide_.begin() &&
                addr - std::prev(it)->addr < std::prev(it)->size)
                return std::prev(it)->slot;
        }
        const Page *pg = findPage(pageOf(addr));
        if (pg == nullptr)
            return kNoSlot;
        const auto off = static_cast<std::uint16_t>(addr & kPageMask);
        // Predecessor start: last entry with offset <= off.
        const auto pos = std::upper_bound(
            pg->starts.begin(), pg->starts.end(), off,
            [](std::uint16_t o, const Start &s) { return o < s.offset; });
        if (pos != pg->starts.begin())
            return std::prev(pos)->slot;
        return pg->spanner;
    }

    /** Slot of the object starting exactly at @p addr, or kNoSlot. */
    std::uint32_t
    startAt(Addr addr) const
    {
        if (!wide_.empty()) {
            const auto it = wideAt(addr);
            if (it != wide_.end())
                return it->slot;
        }
        const Page *pg = findPage(pageOf(addr));
        if (pg == nullptr)
            return kNoSlot;
        const auto off = static_cast<std::uint16_t>(addr & kPageMask);
        const auto pos = std::lower_bound(
            pg->starts.begin(), pg->starts.end(), off,
            [](const Start &s, std::uint16_t o) { return s.offset < o; });
        if (pos != pg->starts.end() && pos->offset == off)
            return pos->slot;
        return kNoSlot;
    }

    /**
     * Visit every object start in [lo, hi) in ascending address
     * order, as f(Addr start, std::uint32_t slot).  @p f must not
     * modify the index.
     */
    template <typename F>
    void
    forEachStartIn(Addr lo, Addr hi, F &&f) const
    {
        if (lo < hi)
            forEachStartBetween(lo, hi - 1, f);
    }

    /**
     * Visit every object start in [lo, last] -- inclusive, so a range
     * can reach the top of the address space -- in ascending address
     * order.  One pass over the covered pages of materialized leaves,
     * merged with the side list.
     */
    template <typename F>
    void
    forEachStartBetween(Addr lo, Addr last_byte, F &&f) const
    {
        if (lo > last_byte)
            return;
        auto wide = wide_.end();
        auto wide_end = wide_.end();
        if (!wide_.empty()) {
            wide = wideLowerBound(lo);
            wide_end = wideUpperBound(last_byte);
        }
        // Side-list starts below @p bound, in order, before it.
        const auto flushWide = [&](Addr bound) {
            for (; wide != wide_end && wide->addr < bound; ++wide)
                f(wide->addr, wide->slot);
        };
        const std::uint64_t first = pageOf(lo);
        const std::uint64_t last = pageOf(last_byte);
        forEachLeafIn(first >> kLeafBits, last >> kLeafBits,
                      [&](std::uint64_t leaf_no, const Leaf &leaf) {
            const std::uint64_t leaf_first = leaf_no << kLeafBits;
            const std::uint64_t p0 = std::max(first, leaf_first);
            const std::uint64_t p1 =
                std::min(last, leaf_first + kLeafMask);
            for (std::uint64_t p = p0; p <= p1; ++p) {
                const Page &pg = leaf.pages[p & kLeafMask];
                if (pg.starts.empty())
                    continue;
                const Addr base = p << kPageShift;
                auto s = pg.starts.begin();
                if (base < lo) {
                    const auto off =
                        static_cast<std::uint16_t>(lo & kPageMask);
                    s = std::lower_bound(
                        pg.starts.begin(), pg.starts.end(), off,
                        [](const Start &st, std::uint16_t o) {
                            return st.offset < o;
                        });
                }
                for (; s != pg.starts.end(); ++s) {
                    const Addr start = base + s->offset;
                    if (start > last_byte)
                        break;
                    flushWide(start);
                    f(start, s->slot);
                }
            }
        });
        for (; wide != wide_end; ++wide)
            f(wide->addr, wide->slot);
    }

    /**
     * First object start in [lo, hi): fills @p out_addr / @p out_slot
     * and returns true, or returns false when the range holds none.
     */
    bool
    firstStartIn(Addr lo, Addr hi, Addr &out_addr,
                 std::uint32_t &out_slot) const
    {
        bool found = false;
        forEachStartIn(lo, hi, [&](Addr start, std::uint32_t slot) {
            if (!found) {
                out_addr = start;
                out_slot = slot;
                found = true;
            }
        });
        return found;
    }

    /** Total indexed object starts. */
    std::size_t startCount() const { return start_count_; }

    /**
     * Visit every materialized page as f(pageNumber, const Page &).
     * Unordered across leaves; used by consistency checks only.
     * Side-list extents are not in any page: see forEachWide().
     */
    template <typename F>
    void
    forEachPage(F &&f) const
    {
        for (const auto &[leaf_no, leaf] : leaves_) {
            for (std::uint64_t i = 0; i < kLeafSize; ++i) {
                const Page &pg = leaf->pages[i];
                if (!pg.empty())
                    f((leaf_no << kLeafBits) | i, pg);
            }
        }
    }

    /** Visit every side-list extent as f(const Wide &), ascending. */
    template <typename F>
    void
    forEachWide(F &&f) const
    {
        for (const Wide &w : wide_)
            f(w);
    }

    void
    clear()
    {
        leaves_.clear();
        wide_.clear();
        cache_.fill(CacheEntry{});
        start_count_ = 0;
    }

  private:
    struct Leaf
    {
        Page pages[kLeafSize];
    };

    /**
     * Direct-mapped leaf cache in front of the hash directory.  Every
     * event does 1-4 leaf resolutions; a graph holding 10M small
     * objects spans only a few hundred leaves (a leaf covers 2 MiB of
     * address space), so nearly every resolution hits here and skips
     * the unordered_map probe.  Leaves are never deleted outside
     * clear(), so cached pointers cannot dangle.
     */
    static constexpr std::size_t kCacheSize = 1024;

    struct CacheEntry
    {
        std::uint64_t leaf_no = ~std::uint64_t{0};
        Leaf *leaf = nullptr;
    };

    using WideList = std::vector<Wide>;

    WideList::const_iterator
    wideLowerBound(Addr addr) const
    {
        return std::lower_bound(
            wide_.begin(), wide_.end(), addr,
            [](const Wide &w, Addr a) { return w.addr < a; });
    }

    WideList::const_iterator
    wideUpperBound(Addr addr) const
    {
        return std::upper_bound(
            wide_.begin(), wide_.end(), addr,
            [](Addr a, const Wide &w) { return a < w.addr; });
    }

    WideList::const_iterator
    wideAt(Addr addr) const
    {
        const auto it = wideLowerBound(addr);
        return it != wide_.end() && it->addr == addr ? it : wide_.end();
    }

    /**
     * Visit the materialized leaves numbered [first, last] in
     * ascending order, as f(leafNumber, const Leaf &).  Probes each
     * number in the range, or -- when the range spans more leaves
     * than exist -- sorts the directory's own keys instead.
     */
    template <typename F>
    void
    forEachLeafIn(std::uint64_t first, std::uint64_t last, F &&f) const
    {
        if (last - first < leaves_.size()) {
            for (std::uint64_t n = first; n <= last; ++n) {
                const Leaf *leaf =
                    const_cast<PageIndex *>(this)->leafFor(
                        n << kLeafBits, /*create=*/false);
                if (leaf != nullptr)
                    f(n, *leaf);
            }
            return;
        }
        std::vector<std::uint64_t> present;
        for (const auto &[leaf_no, leaf] : leaves_) {
            if (leaf_no >= first && leaf_no <= last)
                present.push_back(leaf_no);
        }
        std::sort(present.begin(), present.end());
        for (std::uint64_t n : present)
            f(n, *leaves_.at(n));
    }

    Page &
    page(std::uint64_t page_no)
    {
        Leaf *leaf = leafFor(page_no, /*create=*/true);
        return leaf->pages[page_no & kLeafMask];
    }

    Page *
    findPage(std::uint64_t page_no) const
    {
        Leaf *leaf =
            const_cast<PageIndex *>(this)->leafFor(page_no,
                                                   /*create=*/false);
        return leaf == nullptr ? nullptr
                               : &leaf->pages[page_no & kLeafMask];
    }

    Leaf *
    leafFor(std::uint64_t page_no, bool create)
    {
        const std::uint64_t leaf_no = page_no >> kLeafBits;
        CacheEntry &slot = cache_[leaf_no & (kCacheSize - 1)];
        if (slot.leaf_no == leaf_no)
            return slot.leaf;
        Leaf *leaf = nullptr;
        auto it = leaves_.find(leaf_no);
        if (it != leaves_.end()) {
            leaf = it->second.get();
        } else if (create) {
            leaf = leaves_.emplace(leaf_no, std::make_unique<Leaf>())
                       .first->second.get();
        } else {
            return nullptr;
        }
        slot = {leaf_no, leaf};
        return leaf;
    }

    std::unordered_map<std::uint64_t, std::unique_ptr<Leaf>> leaves_;
    std::array<CacheEntry, kCacheSize> cache_{};
    /** Wide extents (isWide), ascending by start address. */
    WideList wide_;
    std::size_t start_count_ = 0;
};

} // namespace heapmd

#endif // HEAPMD_HEAPGRAPH_PAGE_INDEX_HH
