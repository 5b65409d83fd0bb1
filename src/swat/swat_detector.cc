#include "swat/swat_detector.hh"

#include <algorithm>

#include "support/logging.hh"

namespace heapmd
{

SwatDetector::SwatDetector(SwatConfig config)
    : config_(config), rng_(config.seed)
{
}

void
SwatDetector::attach(Process &process)
{
    if (process_ != nullptr)
        HEAPMD_PANIC("SWAT detector already attached");
    process_ = &process;
    process.addEventObserver(this);
}

void
SwatDetector::track(Tracked t)
{
    // A stream that reuses a tracked range without freeing it first
    // (a capture with missed frees) retires the overlapped objects,
    // as the heap-graph does.
    t.size = t.bytes == 0 ? 1 : t.bytes;
    live_.overlapping(t.base, t.size, hits_);
    for (std::uint32_t slot : hits_)
        live_.erase(slot);
    live_.insert(t);
}

void
SwatDetector::onEvent(const Event &event, Tick tick)
{
    switch (event.kind) {
      case EventKind::Alloc: {
        Tracked t;
        t.base = event.addr;
        t.bytes = event.size;
        t.allocSite =
            process_ != nullptr ? process_->callStack().top()
                                : kNoFunction;
        t.allocTick = tick;
        t.lastAccess = tick; // allocation counts as an access
        track(t);
        break;
      }
      case EventKind::Free: {
        const std::uint32_t slot = live_.startAt(event.addr);
        if (slot == ExtentArena<Tracked>::kNone)
            break;
        // SWAT runs *during* execution: an object that sat stale past
        // the threshold was already reported before this (cleanup)
        // free.  Record it sticky so end-of-run teardown cannot hide
        // the report.
        const Tracked &t = live_[slot];
        if (tick - t.allocTick >= config_.minObjectAge &&
            tick - t.lastAccess >= config_.stalenessThreshold) {
            LeakReport leak;
            leak.addr = event.addr;
            leak.size = t.bytes;
            leak.allocSite = t.allocSite;
            leak.allocTick = t.allocTick;
            leak.lastAccess = t.lastAccess;
            leak.staleness = tick - t.lastAccess;
            sticky_.push_back(leak);
        }
        live_.erase(slot);
        break;
      }
      case EventKind::Realloc: {
        const std::uint32_t slot = live_.startAt(event.addr);
        Tracked t;
        if (slot != ExtentArena<Tracked>::kNone) {
            t = live_[slot];
            live_.erase(slot);
        } else {
            t.allocTick = tick;
        }
        t.base = event.value;
        t.bytes = event.size;
        t.lastAccess = tick;
        if (event.size > 0)
            track(t);
        break;
      }
      case EventKind::Write:
      case EventKind::Read:
        recordAccess(event.addr, tick);
        break;
      case EventKind::FnEnter:
      case EventKind::FnExit:
        break;
    }
}

std::vector<LeakReport>
SwatDetector::finalize(Tick end_tick) const
{
    std::vector<LeakReport> live;
    live_.forEach([&](std::uint32_t, const Tracked &t) {
        if (end_tick - t.allocTick < config_.minObjectAge)
            return; // too young to judge
        const Tick staleness = end_tick - t.lastAccess;
        if (staleness < config_.stalenessThreshold)
            return;
        LeakReport leak;
        leak.addr = t.base;
        leak.size = t.bytes;
        leak.allocSite = t.allocSite;
        leak.allocTick = t.allocTick;
        leak.lastAccess = t.lastAccess;
        leak.staleness = staleness;
        live.push_back(leak);
    });
    // Live leaks are reported in address order.
    std::sort(live.begin(), live.end(),
              [](const LeakReport &a, const LeakReport &b) {
                  return a.addr < b.addr;
              });
    std::vector<LeakReport> leaks = sticky_;
    leaks.insert(leaks.end(), live.begin(), live.end());
    return leaks;
}

void
SwatDetector::recordAccess(Addr addr, Tick tick)
{
    ++total_;
    const std::uint32_t slot = live_.owner(addr);
    if (slot == ExtentArena<Tracked>::kNone)
        return;
    Tracked &t = live_[slot];
    if (addr - t.base >= t.bytes)
        return; // the one indexed byte of a 0-byte allocation

    // Adaptive sampling: frequently-accessed allocation sites are
    // observed at a decaying rate.
    std::uint64_t &n = site_accesses_[t.allocSite];
    const double rate = config_.samplingK /
                        (config_.samplingK + static_cast<double>(n));
    if (!rng_.chance(rate))
        return;
    ++n;
    ++sampled_;
    t.lastAccess = tick;
}

} // namespace heapmd
