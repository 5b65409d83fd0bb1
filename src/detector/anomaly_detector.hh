/**
 * @file
 * The online anomaly detector (execution checker front half).
 *
 * Implements Section 2.2 of the paper: each metric the model declares
 * globally stable is compared against its calibrated range at every
 * metric computation point.  When a stable metric approaches its
 * calibrated maximum with a positive slope (or its minimum with a
 * negative slope), call stacks are logged into a circular buffer;
 * crossing the bound triggers a bug report that carries the context
 * before, during, and after the crossing.
 */

#ifndef HEAPMD_DETECTOR_ANOMALY_DETECTOR_HH
#define HEAPMD_DETECTOR_ANOMALY_DETECTOR_HH

#include <array>
#include <cstddef>
#include <vector>

#include "detector/bug_report.hh"
#include "model/model.hh"
#include "runtime/process.hh"
#include "support/ring_buffer.hh"

namespace heapmd
{

/** Frames captured per call-stack snapshot, by every detector. */
inline constexpr std::size_t kCallStackDepth = 16;

/**
 * Metric samples logged after a crossing before the report is
 * finalized (the paper reports context before/during/after).
 */
inline constexpr std::size_t kAfterSamples = 3;

/** Span floor so a degenerate [x, x] range still has a band. */
inline constexpr double kMinSpan = 1e-6;

/** Detection slack applied to each bound of @p entry. */
double boundSlack(const HeapModel::Entry &entry);

/**
 * The detection range of one model entry:
 * [min - boundSlack, max + boundSlack].  Every checker -- batch,
 * persistent-violation and online -- judges samples against this.
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

/**
 * Checks each metric sample against a HeapModel and assembles
 * BugReports.  Attach to the monitored Process with attach(); call
 * finish() when the run ends to flush a pending report.
 */
class AnomalyDetector : public SampleObserver, public EventObserver
{
  public:
    /** @param model calibrated model; must outlive the detector. */
    explicit AnomalyDetector(const HeapModel &model);

    /** Register with @p process as sample + event observer. */
    void attach(Process &process);

    /** SampleObserver: range check at a metric computation point. */
    void onSample(const MetricSample &sample,
                  const Process &process) override;

    /** EventObserver: per-event stack logging while armed. */
    void onEvent(const Event &event, Tick tick) override;

    /** Flush pending reports at end of run. */
    void finish();

    /** Reports finalized so far (excursions, not per-sample spam). */
    const std::vector<BugReport> &reports() const { return reports_; }

    /** True when at least one anomaly was reported. */
    bool anomalous() const { return !reports_.empty(); }

    /** Metric samples examined. */
    std::uint64_t samplesChecked() const { return samples_checked_; }

  private:
    /** Circular-buffer capacity for call-stack snapshots. */
    static constexpr std::size_t kLogCapacity = 64;

    struct MetricState
    {
        MetricState() : log(kLogCapacity) {}

        bool hasPrev = false;
        double prev = 0.0;
        bool armed = false;       //!< stack logging active
        bool inViolation = false; //!< currently outside the range
        bool pendingReport = false;
        std::size_t afterLeft = 0;
        double lastValue = 0.0;
        RingBuffer<StackLogEntry> log;
        BugReport pending;
    };

    void logSnapshot(MetricState &state, double value);
    void finalizeReport(MetricState &state);

    const HeapModel &model_;
    Process *process_ = nullptr;
    std::vector<MetricState> states_;        // parallel to entries()
    std::vector<BugReport> reports_;
    std::uint64_t samples_checked_ = 0;
    std::size_t armed_count_ = 0;
};

} // namespace heapmd

#endif // HEAPMD_DETECTOR_ANOMALY_DETECTOR_HH
