/**
 * @file
 * The continuous-monitoring session behind `heapmd monitor`.
 *
 * A MonitorSession watches one captured process and checks its heap
 * metrics against a trained model *while the process runs*, through
 * one of two sources:
 *
 *  - segments mode (`--segments`, a rotating capture base path):
 *    tail the rotating trace-segment set with trace::SegmentChain,
 *    fold every event into a Process (exactly the `heapmd check`
 *    replay configuration: one sample per shim scan marker,
 *    allocator address reuse tolerated), and feed each sample to the
 *    detector.  This is the high-fidelity path -- full call-stack
 *    context, full incident bundles.
 *
 *  - shm mode (`--pid`): attach the live /dev/shm stats segment and
 *    synthesize a sample whenever the shim publishes a new scan's
 *    metric percentages.  No trace needed, near-zero cost, but the
 *    context log carries only the scan marker (the shm channel has no
 *    stacks).
 *
 * In follow mode the session's AnomalyDetector runs its hysteresis
 * cycle at `--debounce`/`--rearm` and publishes an incident bundle
 * (diag schema, `incident-NNN.json`) when a report closes,
 * kAfterSamples samples after its excursion survived the debounce,
 * so a bundle exists while the monitored workload is still alive; a
 * stop or the end of the source closes the reports still open.  In
 * --once mode (follow = false) the session replays the completed set
 * under the same ExecutionChecker that `heapmd check` uses, so its
 * verdicts match a check of the concatenated trace by construction.
 */

#ifndef HEAPMD_MONITOR_MONITOR_HH
#define HEAPMD_MONITOR_MONITOR_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "detector/execution_checker.hh"
#include "diag/incident_bundle.hh"
#include "metrics/series.hh"
#include "model/model.hh"
#include "runtime/process.hh"

namespace heapmd
{

namespace monitor
{

/** What to watch and how to react. */
struct MonitorOptions
{
    /**
     * Base path of a rotating segment set (or a plain completed
     * trace -- SegmentChain degrades gracefully).  Mutually exclusive
     * with pid.
     */
    std::string segmentsBase;

    /** Live process to watch via its shm stats segment (0 = unset). */
    std::uint32_t pid = 0;

    /** Directory for incident-NNN.json bundles; empty = don't write. */
    std::string bundleDir;

    /**
     * Keep watching a set/process still being written (the daemon
     * mode).  false = `--once`: consume what exists and finalize with
     * the batch checker for `heapmd check` parity.
     */
    bool follow = true;

    /** Wait granularity while idle, in milliseconds. */
    std::uint64_t pollMs = 50;

    /** +/- pointIndex radius of each bundle's metric window. */
    std::uint64_t windowRadius = diag::kDefaultWindowRadius;

    /**
     * Hysteresis of the follow-mode detector.  Three violating
     * samples open an incident, so one noisy metric point never pages
     * anyone; eight in-range samples re-arm the metric.
     */
    Hysteresis detector{3, 8};

    /** Abort check, polled while waiting (wire to a signal flag). */
    std::function<bool()> stopped;

    /**
     * Idle hook, pumped at least once per wait cycle; the CLI serves
     * pending Prometheus scrapes from here.
     */
    std::function<void()> onIdle;

    /** Incident hook, called after each bundle is (maybe) written. */
    std::function<void(const BugReport &)> onIncident;
};

/** Counters of one monitoring run (exported to Prometheus). */
struct MonitorStats
{
    std::uint64_t events = 0;   //!< trace events folded in
    std::uint64_t samples = 0;  //!< metric samples checked
    std::uint64_t segmentsConsumed = 0;
    std::uint64_t incidents = 0;
    std::uint64_t bundlesWritten = 0;
    std::uint64_t tailLagBytes = 0; //!< last observed decode lag
    bool truncatedTail = false; //!< final segment had no footer
};

/**
 * One monitoring run.  Construct, then run() -- it blocks until the
 * source ends (writer finalized the set / process died / --once
 * consumed everything) or stopped() fires.  All accessors are safe
 * from the onIdle/onIncident hooks: the session is single-threaded.
 */
class MonitorSession
{
  public:
    /** @param model calibrated model; must outlive the session. */
    MonitorSession(const HeapModel &model, MonitorOptions options);
    ~MonitorSession();

    MonitorSession(const MonitorSession &) = delete;
    MonitorSession &operator=(const MonitorSession &) = delete;

    /**
     * Watch until the source ends or stop is requested.
     * @return false with @p error set on a fatal condition (broken
     *         chain, unreadable shm segment); incidents are *not*
     *         fatal.
     */
    bool run(std::string &error);

    const MonitorStats &stats() const { return stats_; }

    /** Incidents fired (follow) or batch reports (--once). */
    const std::vector<BugReport> &reports() const { return reports_; }

    bool anomalous() const { return !reports_.empty(); }

    /** Registry for report symbolization. */
    const FunctionRegistry &registry() const;

    /** Metric series accumulated so far. */
    const MetricSeries &series() const;

    /** Per-metric detector state (empty in --once mode). */
    std::vector<MetricView> views() const;

    /**
     * Render the heapmd_monitor_* Prometheus exposition from current
     * state (text format 0.0.4; passes tools/check_prom.py).
     */
    std::string renderPrometheus() const;

  private:
    bool runSegments(std::string &error);
    bool runPid(std::string &error);
    void handleIncident(const BugReport &report);
    void idle();

    const HeapModel &model_;
    MonitorOptions options_;
    MonitorStats stats_;
    std::vector<BugReport> reports_;

    /** Segments mode state (null in shm mode). */
    std::unique_ptr<Process> process_;

    /** Shm mode state: monitor-owned series + registry. */
    MetricSeries own_series_;
    FunctionRegistry own_registry_;

    std::unique_ptr<AnomalyDetector> detector_;
    std::uint64_t bytes_consumed_ = 0;
};

} // namespace monitor

} // namespace heapmd

#endif // HEAPMD_MONITOR_MONITOR_HH
