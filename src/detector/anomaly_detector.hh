/**
 * @file
 * The anomaly detector: the one execution checker behind `check`,
 * `replay`, `capture --check` and `monitor`.
 *
 * Implements Section 2.2 of the paper: each metric the model declares
 * stable is compared against its calibrated range at every metric
 * computation point.  When a stable metric approaches its calibrated
 * maximum with a positive slope (or its minimum with a negative
 * slope), call stacks are logged into a circular buffer; crossing the
 * bound opens a bug report that carries the context before, during
 * and after the crossing.
 *
 * Each metric moves through a hysteresis cycle, so a caller that must
 * not page on one noisy point can ask for a streak:
 *
 *     Armed --violating--> Suspect --debounce met--> Firing
 *       ^                     | in-range               | in-range
 *       |                     v                        v
 *       +--rearm met-------- Cooling <--violating------+
 *                              (violation during Cooling returns to
 *                               Firing without a new report)
 *
 * A report opens at the sample that completes the debounce streak
 * and closes kAfterSamples samples later (or at finish()); reports()
 * and the incident callback see it at close.  A new excursion of the
 * same metric while its report is still open replaces that report.
 * ExecutionChecker runs the paper's checker, debounce 1 and rearm 1:
 * every crossing from in range to out of range opens a report.
 */

#ifndef HEAPMD_DETECTOR_ANOMALY_DETECTOR_HH
#define HEAPMD_DETECTOR_ANOMALY_DETECTOR_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "detector/bug_report.hh"
#include "model/model.hh"
#include "runtime/process.hh"
#include "support/ring_buffer.hh"

namespace heapmd
{

/** Frames captured per call-stack snapshot. */
inline constexpr std::size_t kCallStackDepth = 16;

/**
 * Metric samples logged after a report opens before it closes (the
 * paper reports context before/during/after).
 */
inline constexpr std::size_t kAfterSamples = 3;

/** Call-stack snapshots each metric's context log holds. */
inline constexpr std::size_t kLogCapacity = 64;

/** Span floor so a degenerate [x, x] range still has a band. */
inline constexpr double kMinSpan = 1e-6;

/** Detection slack applied to each bound of @p entry. */
double boundSlack(const HeapModel::Entry &entry);

/**
 * The detection range of one model entry:
 * [min - boundSlack, max + boundSlack].  The detector and the
 * post-run persistent-violation check judge samples against this.
 */
struct SlackedRange
{
    double slack = 0.0;
    double lo = 0.0;
    double hi = 0.0;

    /** True when @p value lies outside [lo, hi]. */
    bool violatedBy(double value) const
    {
        return value < lo || value > hi;
    }
};

/** The slacked detection range of @p entry. */
SlackedRange slackedRange(const HeapModel::Entry &entry);

/** Streak lengths of the hysteresis cycle (`monitor --debounce/--rearm`). */
struct Hysteresis
{
    /** Consecutive violating samples that open a report. */
    std::size_t debounce = 1;

    /**
     * Consecutive in-range samples after an excursion before the
     * metric re-arms and may open another report.
     */
    std::size_t rearm = 1;
};

/** Where a metric is in the hysteresis cycle. */
enum class MetricPhase
{
    Armed,   //!< in range, ready to detect
    Suspect, //!< violating, debounce streak building
    Firing,  //!< report opened, still violating
    Cooling, //!< back in range, re-arm streak building
};

/** Live per-metric state exported to the Prometheus families. */
struct MetricView
{
    MetricId id = MetricId::Roots;
    bool observed = false; //!< at least one sample seen
    double value = 0.0;    //!< most recent observed value
    /** Points beyond the slacked range (0 while in range). */
    double distance = 0.0;
    MetricPhase phase = MetricPhase::Armed;
    std::uint64_t violatingSamples = 0;
};

/**
 * Checks each metric sample against a HeapModel and assembles
 * BugReports.  Attach to the monitored Process with attach(), or feed
 * samples from another source with observe(); call finish() when the
 * run ends to close the open reports.
 */
class AnomalyDetector : public SampleObserver, public EventObserver
{
  public:
    /** @param model calibrated model; must outlive the detector. */
    explicit AnomalyDetector(const HeapModel &model,
                             Hysteresis hysteresis = {});

    /** Called with each report as it closes. */
    void
    setIncidentCallback(std::function<void(const BugReport &)> cb)
    {
        on_incident_ = std::move(cb);
    }

    /** Register with @p process as sample + event observer. */
    void attach(Process &process);

    /**
     * SampleObserver: range check at a metric computation point; the
     * context log takes @p process's shadow stack.
     */
    void onSample(const MetricSample &sample,
                  const Process &process) override;

    /**
     * Range check of a sample from a source without a Process: the
     * context log takes @p frames (innermost first) and the sample's
     * tick and point index.
     */
    void observe(const MetricSample &sample,
                 const std::vector<FnId> &frames);

    /** EventObserver: per-event stack logging while armed. */
    void onEvent(const Event &event, Tick tick) override;

    /** Close the open reports at the end of a run. */
    void finish();

    /** Reports closed so far (excursions, not per-sample spam). */
    const std::vector<BugReport> &reports() const { return reports_; }

    /** True when at least one anomaly was reported. */
    bool anomalous() const { return !reports_.empty(); }

    /** Metric samples examined. */
    std::uint64_t samplesChecked() const { return samples_checked_; }

    /** Live per-metric state, in model-entry order. */
    std::vector<MetricView> views() const;

  private:
    struct MetricState
    {
        MetricState() : log(kLogCapacity) {}

        MetricPhase phase = MetricPhase::Armed;
        std::size_t streak = 0; //!< debounce or re-arm progress
        bool observed = false;
        double lastValue = 0.0;
        double lastDistance = 0.0;
        std::uint64_t violatingSamples = 0;
        bool logging = false; //!< call-stack logging armed
        bool open = false;    //!< a report awaits its after context
        std::size_t afterLeft = 0;
        RingBuffer<StackLogEntry> log;
        BugReport pending;
    };

    template <typename Where>
    void check(const MetricSample &sample, const Where &where);
    bool advance(MetricState &state, bool violating) const;
    void setLogging(MetricState &state, bool on);
    void closeReport(MetricState &state);

    const HeapModel &model_;
    Hysteresis hysteresis_;
    Process *process_ = nullptr;
    std::vector<MetricState> states_; // parallel to entries()
    std::vector<BugReport> reports_;
    std::function<void(const BugReport &)> on_incident_;
    std::uint64_t samples_checked_ = 0;
    std::size_t logging_count_ = 0;
};

} // namespace heapmd

#endif // HEAPMD_DETECTOR_ANOMALY_DETECTOR_HH
