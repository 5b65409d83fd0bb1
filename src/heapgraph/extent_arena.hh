/**
 * @file
 * Records with disjoint address extents, stored in a free-listed
 * arena and indexed by a PageIndex (DESIGN.md §16).
 *
 * The shadow heaps of the trace linters, the SWAT baseline and the
 * capture shim's live table keep one record per heap extent and ask
 * three questions of it: which record contains an address, which one
 * starts exactly at it, and which ones overlap a new extent (in
 * ascending address order, so sweeps report deterministically).
 * ExtentArena answers all three on the page index the replay graph
 * uses -- O(1) owner lookup and bounded sweeps -- with records in a
 * chunked arena addressed by the index's 32-bit slots (growth never
 * moves a record, so references stay valid across insert()).  T
 * needs `Addr base` and `std::uint64_t size` (> 0) members; callers
 * keep extents disjoint by sweeping overlaps before insert().
 */

#ifndef HEAPMD_HEAPGRAPH_EXTENT_ARENA_HH
#define HEAPMD_HEAPGRAPH_EXTENT_ARENA_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "heapgraph/page_index.hh"
#include "support/chunked_vector.hh"
#include "support/types.hh"

namespace heapmd
{

template <typename T>
class ExtentArena
{
  public:
    static constexpr std::uint32_t kNone = PageIndex::kNoSlot;

    ExtentArena() = default;
    // The index's leaf cache holds pointers into its own directory.
    ExtentArena(const ExtentArena &) = delete;
    ExtentArena &operator=(const ExtentArena &) = delete;

    /** Store @p rec and index its extent; returns its slot. */
    std::uint32_t
    insert(T rec)
    {
        std::uint32_t slot;
        if (free_.empty()) {
            slot = static_cast<std::uint32_t>(
                records_.push(std::move(rec)));
            live_.push_back(true);
        } else {
            slot = free_.back();
            free_.pop_back();
            records_[slot] = std::move(rec);
            live_[slot] = true;
        }
        index_.insert(records_[slot].base, records_[slot].size, slot);
        return slot;
    }

    /** Unindex and drop the record in @p slot. */
    void
    erase(std::uint32_t slot)
    {
        index_.erase(records_[slot].base, records_[slot].size);
        records_[slot] = T{};
        live_[slot] = false;
        free_.push_back(slot);
    }

    /** Give the record in @p slot a new size; its base stays. */
    void
    resize(std::uint32_t slot, std::uint64_t size)
    {
        T &rec = records_[slot];
        index_.erase(rec.base, rec.size);
        rec.size = size;
        index_.insert(rec.base, size, slot);
    }

    T &operator[](std::uint32_t slot) { return records_[slot]; }
    const T &operator[](std::uint32_t slot) const
    {
        return records_[slot];
    }

    /** Slot of the record whose extent contains @p addr, or kNone. */
    std::uint32_t
    owner(Addr addr) const
    {
        const std::uint32_t slot = index_.lookup(addr);
        if (slot == kNone)
            return kNone;
        const T &rec = records_[slot];
        return addr - rec.base < rec.size ? slot : kNone;
    }

    /** Slot of the record starting exactly at @p addr, or kNone. */
    std::uint32_t
    startAt(Addr addr) const
    {
        return index_.startAt(addr);
    }

    /**
     * Slots of every record overlapping [addr, addr + size), ascending
     * by base, into @p out (cleared first).  An extent whose end
     * passes 2^64 reaches the top of the address space.
     */
    void
    overlapping(Addr addr, std::uint64_t size,
                std::vector<std::uint32_t> &out) const
    {
        out.clear();
        const std::uint32_t first = owner(addr);
        if (first != kNone)
            out.push_back(first);
        const Addr last = PageIndex::lastByte(addr, size);
        if (addr != last) {
            index_.forEachStartBetween(
                addr + 1, last,
                [&](Addr, std::uint32_t slot) { out.push_back(slot); });
        }
    }

    /** Visit every record as f(slot, const T &), in slot order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::size_t slot = 0; slot < records_.size(); ++slot) {
            if (live_[slot])
                f(static_cast<std::uint32_t>(slot), records_[slot]);
        }
    }

    /**
     * Visit every record as f(slot, const T &), ascending by base.
     * @p f must not insert or erase records.
     */
    template <typename F>
    void
    forEachAscending(F &&f) const
    {
        index_.forEachStartBetween(
            0, ~Addr{0}, [&](Addr, std::uint32_t slot) {
                f(slot, records_[slot]);
            });
    }

    /** Number of records held. */
    std::size_t size() const { return records_.size() - free_.size(); }

    void
    clear()
    {
        index_.clear();
        records_.clear();
        live_.clear();
        free_.clear();
    }

  private:
    PageIndex index_;
    ChunkedVector<T> records_;
    std::vector<bool> live_;
    std::vector<std::uint32_t> free_;
};

} // namespace heapmd

#endif // HEAPMD_HEAPGRAPH_EXTENT_ARENA_HH
