/**
 * @file
 * SWAT baseline: staleness-based memory-leak detection.
 *
 * Table 1 of the paper compares HeapMD against SWAT (Chilimbi &
 * Hauswirth, ASPLOS'04).  SWAT samples heap accesses (adaptively:
 * rarely executed paths are sampled at a higher rate) and marks
 * objects that have not been accessed for a "long" time as leaked.
 * This reimplementation consumes the same instrumentation event
 * stream as HeapMD's execution logger, so the two tools can be run
 * over identical executions.
 *
 * The behavioural contrasts the paper draws are preserved:
 *  - SWAT tracks *staleness*, not reachability, so it also catches
 *    reachable leaks (which HeapMD's degree metrics may miss) and
 *    very small leaks;
 *  - reachable-but-idle caches make SWAT report false positives,
 *    while HeapMD reports none (it does not track staleness).
 */

#ifndef HEAPMD_SWAT_SWAT_DETECTOR_HH
#define HEAPMD_SWAT_SWAT_DETECTOR_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "heapgraph/extent_arena.hh"
#include "runtime/process.hh"
#include "support/random.hh"
#include "support/types.hh"

namespace heapmd
{

/** Tunables of the SWAT reimplementation. */
struct SwatConfig
{
    /**
     * An object is reported as leaked when it has not been (observed
     * to be) accessed for this many ticks by the end of the run.
     */
    Tick stalenessThreshold = 200000;

    /**
     * Adaptive sampling substitute: the chance of observing an access
     * to an object of allocation-site s decays as k / (k + n_s) where
     * n_s counts accesses attributed to s, approximating SWAT's
     * "sample rate inversely proportional to execution frequency".
     * The default is effectively "observe everything": the paper's
     * SWAT runs lasted hours to months, long enough for sampling to
     * converge; on our short synthetic runs aggressive sampling would
     * add staleness noise the real tool did not have.  Tests exercise
     * smaller k explicitly.
     */
    double samplingK = 1e12;

    /** Ignore objects younger than this at end of run. */
    Tick minObjectAge = 1000;

    /** Seed of the sampling decisions (deterministic runs). */
    std::uint64_t seed = 0x5ca1ab1e;
};

/** One leaked (stale) object. */
struct LeakReport
{
    Addr addr = kNullAddr;
    std::uint64_t size = 0;
    FnId allocSite = kNoFunction;
    Tick allocTick = 0;
    Tick lastAccess = 0;
    Tick staleness = 0; //!< end-of-run tick minus last access
};

/**
 * Event-stream staleness tracker.  Attach as an EventObserver to the
 * same Process HeapMD monitors; call finalize() at end of run.
 */
class SwatDetector : public EventObserver
{
  public:
    explicit SwatDetector(SwatConfig config = {});

    /** Register with @p process (also records the shadow stack). */
    void attach(Process &process);

    void onEvent(const Event &event, Tick tick) override;

    /**
     * Report all live objects stale beyond the threshold.
     * @param end_tick event time considered "end of run".
     */
    std::vector<LeakReport> finalize(Tick end_tick) const;

    /** Objects currently tracked live. */
    std::size_t liveCount() const { return live_.size(); }

    /** Accesses that were sampled (observed) vs total. */
    std::uint64_t sampledAccesses() const { return sampled_; }
    std::uint64_t totalAccesses() const { return total_; }

  private:
    struct Tracked
    {
        Addr base = kNullAddr;
        std::uint64_t size = 0; //!< indexed extent (>= 1 byte)
        std::uint64_t bytes = 0; //!< allocation size as reported
        FnId allocSite = kNoFunction;
        Tick allocTick = 0;
        Tick lastAccess = 0;
    };

    /** Start tracking @p t, dropping tracked objects it overlaps. */
    void track(Tracked t);

    void recordAccess(Addr addr, Tick tick);

    SwatConfig config_;
    Process *process_ = nullptr;
    /** Live objects by extent (page-indexed, DESIGN.md §16). */
    ExtentArena<Tracked> live_;
    std::vector<std::uint32_t> hits_; //!< track() scratch
    /** Objects that went stale and were later freed (still reported). */
    std::vector<LeakReport> sticky_;
    /** Per-allocation-site observed access counts (adaptive rate). */
    std::unordered_map<FnId, std::uint64_t> site_accesses_;
    Rng rng_;
    std::uint64_t sampled_ = 0;
    std::uint64_t total_ = 0;
};

} // namespace heapmd

#endif // HEAPMD_SWAT_SWAT_DETECTOR_HH
