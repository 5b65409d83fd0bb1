#include "capture/live_table.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <sys/mman.h>
#include <unistd.h>

namespace heapmd
{

namespace capture
{

namespace
{

constexpr std::uintptr_t kWord = sizeof(std::uintptr_t);
constexpr std::uint32_t kNone = PageIndex::kNoSlot;

std::uintptr_t
alignUp(std::uintptr_t addr)
{
    return (addr + (kWord - 1)) & ~(kWord - 1);
}

std::uintptr_t
alignDown(std::uintptr_t addr)
{
    return addr & ~(kWord - 1);
}

/** True when pages [first, last] (of 1 << @p shift bytes) are all
 *  mapped (mincore(2)). */
bool
pagesMapped(std::uintptr_t first, std::uintptr_t last, unsigned shift)
{
    // One call per chunk of the run; the vector only receives the
    // per-page residency bits, which the sweep does not need.
    unsigned char vec[4096];
    while (first <= last) {
        const std::uintptr_t pages =
            std::min<std::uintptr_t>(last - first + 1, sizeof(vec));
        if (::mincore(reinterpret_cast<void *>(first << shift),
                      pages << shift, vec) != 0 &&
            errno == ENOMEM)
            return false; // some page in the range is unmapped
        first += pages;
    }
    return true;
}

} // namespace

std::uint32_t
LiveTable::track(Extent rec)
{
    const std::uint32_t slot = arena_.insert(rec);
    if (slot >= gen_.size()) {
        gen_.resize(slot + 1, 0);
        in_slots_.resize(slot + 1, 0);
    }
    return slot;
}

void
LiveTable::insert(std::uintptr_t addr, std::size_t size)
{
    track(Extent{addr, size, 0, 0});
    live_bytes_ += size;
}

void
LiveTable::unlink(const Edge &edge)
{
    if (!current(edge))
        return;
    --in_slots_[edge.target];
    --edge_count_;
}

void
LiveTable::dropEdgesFrom(Extent &rec, std::uint64_t offset)
{
    while (rec.count > 0 &&
           edges_[rec.first + rec.count - 1].offset >= offset)
        unlink(edges_[rec.first + --rec.count]);
}

void
LiveTable::retire(std::uint32_t slot)
{
    // Every entry still naming this generation goes stale.
    edge_count_ -= in_slots_[slot];
    in_slots_[slot] = 0;
    ++gen_[slot];
    arena_.erase(slot);
}

std::size_t
LiveTable::erase(std::uintptr_t addr)
{
    const std::uint32_t slot = arena_.startAt(addr);
    if (slot == kNone)
        return 0;
    Extent &rec = arena_[slot];
    const std::size_t size = rec.size;
    dropEdgesFrom(rec, 0);
    retire(slot);
    live_bytes_ -= size;
    return size;
}

bool
LiveTable::resize(std::uintptr_t addr, std::size_t new_size)
{
    const std::uint32_t slot = arena_.startAt(addr);
    if (slot == kNone)
        return false;
    Extent &rec = arena_[slot];
    dropEdgesFrom(rec, new_size);
    live_bytes_ += new_size;
    live_bytes_ -= rec.size;
    arena_.resize(slot, new_size);
    return true;
}

bool
LiveTable::reallocate(std::uintptr_t old_addr, std::uintptr_t new_addr,
                      std::size_t new_size)
{
    if (new_addr == old_addr)
        return resize(old_addr, new_size);
    const std::uint32_t slot = arena_.startAt(old_addr);
    if (slot == kNone)
        return false;
    Extent rec = arena_[slot];
    // Keep the entries the copied words still back, compacted in
    // place; stale ones go too.  An edge into the old extent itself
    // goes stale with it below, like every other in-edge.
    std::uint32_t kept = rec.first;
    for (std::uint32_t i = rec.first; i < rec.first + rec.count; ++i) {
        const Edge edge = edges_[i];
        if (edge.offset >= new_size || !current(edge)) {
            unlink(edge);
            continue;
        }
        edges_[kept++] = edge;
    }
    live_bytes_ += new_size;
    live_bytes_ -= rec.size;
    retire(slot);
    track(Extent{new_addr, new_size, rec.first, kept - rec.first});
    return true;
}

bool
LiveTable::contains(std::uintptr_t addr) const
{
    return arena_.startAt(addr) != kNone;
}

std::vector<std::uintptr_t>
LiveTable::overlapping(std::uintptr_t addr, std::size_t size,
                       std::uintptr_t exclude) const
{
    std::vector<std::uintptr_t> starts;
    if (size == 0 || arena_.size() == 0)
        return starts;
    std::vector<std::uint32_t> slots;
    arena_.overlapping(addr, size, slots);
    for (const std::uint32_t slot : slots) {
        if (arena_[slot].base != exclude)
            starts.push_back(arena_[slot].base);
    }
    return starts;
}

std::uintptr_t
LiveTable::resolve(std::uintptr_t value) const
{
    if (value == 0)
        return 0;
    const std::uint32_t slot = arena_.owner(value);
    return slot == kNone ? 0 : arena_[slot].base;
}

void
LiveTable::forEachExtent(
    const std::function<void(std::uintptr_t, std::size_t)> &fn) const
{
    arena_.forEachAscending([&fn](std::uint32_t, const Extent &rec) {
        fn(rec.base, rec.size);
    });
}

const std::vector<std::uint32_t> &
LiveTable::ascending() const
{
    order_.clear();
    arena_.forEachAscending([this](std::uint32_t slot, const Extent &) {
        order_.push_back(slot);
    });
    return order_;
}

std::vector<std::uintptr_t>
LiveTable::unmappedExtents() const
{
    static const unsigned shift = static_cast<unsigned>(__builtin_ctzl(
        static_cast<unsigned long>(::sysconf(_SC_PAGESIZE))));
    const auto firstPage = [this](std::uint32_t slot) {
        return arena_[slot].base >> shift;
    };
    const auto lastPage = [this](std::uint32_t slot) {
        const Extent &rec = arena_[slot];
        return PageIndex::lastByte(rec.base, rec.size) >> shift;
    };

    std::vector<std::uintptr_t> dead;
    const std::vector<std::uint32_t> &order = ascending();
    for (std::size_t i = 0; i < order.size();) {
        // Grow the run while the next extent starts on a page it
        // already covers or on the page right after it.
        const std::uintptr_t first = firstPage(order[i]);
        std::uintptr_t last = lastPage(order[i]);
        std::size_t end = i + 1;
        for (; end < order.size() && firstPage(order[end]) <= last + 1;
             ++end)
            last = std::max(last, lastPage(order[end]));
        if (!pagesMapped(first, last, shift)) {
            for (std::size_t k = i; k < end; ++k) {
                if (!pagesMapped(firstPage(order[k]),
                                 lastPage(order[k]), shift))
                    dead.push_back(arena_[order[k]].base);
            }
        }
        i = end;
    }
    return dead;
}

ScanStats
LiveTable::scan(const EmitFn &emit)
{
    ScanStats stats;
    const std::vector<std::uint32_t> &order = ascending();
    if (order.empty())
        return stats;

    // Non-pointer words (small integers, flags, text) are rejected
    // with one range compare against the live address span before
    // paying the page-index lookup.  Extents are disjoint, so the
    // last one in address order ends last.
    const std::uintptr_t span_lo = arena_[order.front()].base;
    const Extent &top = arena_[order.back()];
    const std::uintptr_t span_last = PageIndex::lastByte(top.base,
                                                         top.size);

    // Each record's entries are rebuilt into next_edges_ while its
    // words are walked in step with its old entries (both ascend by
    // offset), so every comparison is against the entry in hand.
    next_edges_.clear();
    std::fill(in_slots_.begin(), in_slots_.end(), 0);
    for (const std::uint32_t slot : order) {
        Extent &rec = arena_[slot];
        ++stats.objectsScanned;
        const Edge *old = edges_.data() + rec.first;
        const Edge *const old_end = old + rec.count;
        // An entry whose word no longer fits the extent (a shrink
        // to within it, or a move to a base of another alignment)
        // is cleared where it stands: replay kept its edge.
        const auto clearUnmatched = [&](const Edge &edge) {
            if (!current(edge))
                return;
            emit(rec.base + edge.offset, 0);
            ++stats.clearsEmitted;
        };
        const std::size_t first = next_edges_.size();
        const std::uintptr_t begin = alignUp(rec.base);
        const std::uintptr_t end = alignDown(rec.base + rec.size);
        for (std::uintptr_t at = begin; at < end; at += kWord) {
            ++stats.wordsScanned;
            const std::uint64_t offset = at - rec.base;
            for (; old != old_end && old->offset < offset; ++old)
                clearUnmatched(*old);
            const Edge *prev = nullptr;
            if (old != old_end && old->offset == offset) {
                if (current(*old))
                    prev = old;
                ++old;
            }
            std::uintptr_t value;
            std::memcpy(&value, reinterpret_cast<const void *>(at),
                        sizeof(value));
            // An unchanged word still inside the extent it hit last
            // pass hits it again (extents are disjoint): one record
            // read instead of a page-index lookup.
            std::uint32_t target = kNone;
            if (prev != nullptr && prev->value == value &&
                value - arena_[prev->target].base <
                    arena_[prev->target].size)
                target = prev->target;
            else if (value >= span_lo && value <= span_last)
                target = arena_.owner(value);
            if (target != kNone) {
                ++stats.liveEdges;
                if (prev == nullptr || prev->value != value ||
                    prev->target != target) {
                    emit(at, value);
                    ++stats.writesEmitted;
                }
                next_edges_.push_back(
                    Edge{offset, value, target, gen_[target]});
                ++in_slots_[target];
            } else if (prev != nullptr) {
                emit(at, 0);
                ++stats.clearsEmitted;
            }
        }
        for (; old != old_end; ++old)
            clearUnmatched(*old);
        rec.first = static_cast<std::uint32_t>(first);
        rec.count = static_cast<std::uint32_t>(next_edges_.size() - first);
    }
    edges_.swap(next_edges_);
    edge_count_ = edges_.size();
    return stats;
}

DegreeCensus
LiveTable::degreeCensus() const
{
    DegreeCensus census;
    census.objects = arena_.size();
    if (census.objects == 0)
        return census;

    // Count each (source, target) pair once: a source's entries are
    // visited together, so a target already stamped with this source
    // is a second slot into the same neighbour.
    degrees_.assign(gen_.size(), Degree{0, 0, kNone});
    arena_.forEach([this](std::uint32_t slot, const Extent &rec) {
        for (std::uint32_t i = rec.first; i < rec.first + rec.count;
             ++i) {
            const Edge &edge = edges_[i];
            Degree &to = degrees_[edge.target];
            if (!current(edge) || to.lastSource == slot)
                continue;
            to.lastSource = slot;
            ++degrees_[slot].out;
            ++to.in;
        }
    });

    DegreeCounts counts;
    arena_.forEach([&](std::uint32_t slot, const Extent &) {
        counts.add(degrees_[slot].in, degrees_[slot].out);
    });
    census.percent = counts.percents();
    return census;
}

} // namespace capture

} // namespace heapmd
