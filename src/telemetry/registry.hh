/**
 * @file
 * Process-wide registry of named counters, gauges, and fixed-bucket
 * histograms.
 *
 * Design (see DESIGN.md §8):
 *  - handles returned by Registry are stable for the process lifetime,
 *    so hot paths resolve a name once (static local) and then touch a
 *    single cache line per increment;
 *  - increments are lock-free relaxed atomic RMWs (fetch_add).  The
 *    parallel replay pipeline runs one Process per worker thread but
 *    all workers share the process-wide registry, so instruments must
 *    tolerate concurrent writers; totals stay exact under --jobs > 1
 *    and readers (snapshotAll, the stats table) see torn-free values
 *    via atomic loads;
 *  - snapshotAll() is the only operation that takes the registry
 *    mutex; it never blocks an increment.
 *
 * Instrument through the macros in telemetry/telemetry.hh; this
 * header's API also serves the tests and the stats table.
 */

#ifndef HEAPMD_TELEMETRY_REGISTRY_HH
#define HEAPMD_TELEMETRY_REGISTRY_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/table.hh"

namespace heapmd
{
namespace telemetry
{

/** Monotonically increasing event count (multi-writer, see above). */
class Counter
{
  public:
    void
    add(std::uint64_t delta)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    void increment() { add(1); }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Instantaneous level that can move both ways (live vertices, ...). */
class Gauge
{
  public:
    void
    add(std::int64_t delta)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    void sub(std::int64_t delta) { add(-delta); }

    void set(std::int64_t value)
    {
        value_.store(value, std::memory_order_relaxed);
    }

    std::int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { set(0); }

  private:
    std::atomic<std::int64_t> value_{0};
};

/**
 * Fixed-bucket histogram over unsigned values (typically nanoseconds).
 *
 * Bucket i counts observations <= bounds[i]; one overflow bucket
 * catches the rest.  Bounds are fixed at registration so observe() is
 * a short linear scan plus one relaxed increment.
 */
class Histogram
{
  public:
    /** @param bounds ascending inclusive upper bounds; non-empty. */
    explicit Histogram(std::vector<std::uint64_t> bounds);

    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    void observe(std::uint64_t value);

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    /** Sum of all observed values. */
    std::uint64_t sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    const std::vector<std::uint64_t> &bounds() const { return bounds_; }

    /** Per-bucket counts; last entry is the overflow bucket. */
    std::vector<std::uint64_t> bucketCounts() const;

    void reset();

  private:
    std::vector<std::uint64_t> bounds_;
    std::vector<std::atomic<std::uint64_t>> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
};

/** Point-in-time copy of every registered instrument. */
struct MetricsSnapshot
{
    struct CounterValue
    {
        std::string name;
        std::uint64_t value;
    };

    struct GaugeValue
    {
        std::string name;
        std::int64_t value;
    };

    struct HistogramValue
    {
        std::string name;
        std::uint64_t count;
        std::uint64_t sum;
        std::vector<std::uint64_t> bounds;
        std::vector<std::uint64_t> buckets;
    };

    std::vector<CounterValue> counters;   //!< sorted by name
    std::vector<GaugeValue> gauges;       //!< sorted by name
    std::vector<HistogramValue> histograms; //!< sorted by name

    bool
    empty() const
    {
        return counters.empty() && gauges.empty() &&
               histograms.empty();
    }
};

/**
 * The process-wide instrument registry.
 *
 * Names follow the §7 rule-id convention: `<subsystem>.<snake_name>`
 * (e.g. `trace.events_decoded`); the full catalog lives in DESIGN.md
 * §8.  Counters, gauges, and histograms occupy separate namespaces.
 */
class Registry
{
  public:
    static Registry &instance();

    /** Get or create; the reference stays valid forever. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);

    /**
     * Get or create; @p bounds is used only on first registration
     * (later callers inherit the original buckets).
     */
    Histogram &histogram(const std::string &name,
                         std::vector<std::uint64_t> bounds =
                             defaultNsBounds());

    /** Copy every instrument's current value. */
    MetricsSnapshot snapshotAll() const;

    /** Zero every instrument (registration survives).  For tests. */
    void resetAll();

    /** 100ns .. 1s log-spaced latency buckets. */
    static std::vector<std::uint64_t> defaultNsBounds();

  private:
    Registry() = default;

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/**
 * RAII timer: adds the scope's elapsed nanoseconds to a counter and
 * records the same value in a histogram.
 */
class ScopedNsTimer
{
  public:
    ScopedNsTimer(Counter &total_ns, Histogram &distribution)
        : total_(total_ns), distribution_(distribution),
          start_(std::chrono::steady_clock::now())
    {
    }

    ~ScopedNsTimer()
    {
        const auto elapsed =
            std::chrono::steady_clock::now() - start_;
        const auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                elapsed)
                .count());
        total_.add(ns);
        distribution_.observe(ns);
    }

    ScopedNsTimer(const ScopedNsTimer &) = delete;
    ScopedNsTimer &operator=(const ScopedNsTimer &) = delete;

  private:
    Counter &total_;
    Histogram &distribution_;
    std::chrono::steady_clock::time_point start_;
};

/** Render a snapshot as the `heapmd stats` table. */
TextTable statsTable(const MetricsSnapshot &snapshot);

} // namespace telemetry
} // namespace heapmd

#endif // HEAPMD_TELEMETRY_REGISTRY_HH
