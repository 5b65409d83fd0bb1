/**
 * @file
 * Streaming range detector with hysteresis for `heapmd monitor`.
 *
 * The batch AnomalyDetector is built for finite replayed runs: it
 * arms on approach, reports every excursion, and is finalized once at
 * the end.  A monitor that never ends needs different ergonomics --
 * nobody should be paged because one noisy metric point grazed a
 * bound.  OnlineDetector therefore wraps the same calibrated ranges
 * (identical boundSlack() arithmetic, so a violation here is a
 * violation in `heapmd check` too) in a per-metric hysteresis state
 * machine:
 *
 *     Armed --violating--> Suspect --debounce met--> Firing
 *       ^                     | in-range               | in-range
 *       |                     v                        v
 *       +--rearm met-------- Cooling <--violating------+
 *                              (violation during Cooling returns to
 *                               Firing without a new report)
 *
 * A BugReport is emitted exactly once per excursion, at the sample
 * that completes the debounce streak; re-arming requires a full
 * streak of in-range samples, so a metric oscillating around its
 * bound produces one incident, not a pager storm.
 */

#ifndef HEAPMD_MONITOR_ONLINE_DETECTOR_HH
#define HEAPMD_MONITOR_ONLINE_DETECTOR_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "detector/anomaly_detector.hh"
#include "detector/bug_report.hh"
#include "metrics/metric_sample.hh"
#include "model/model.hh"
#include "runtime/process.hh"
#include "support/ring_buffer.hh"

namespace heapmd
{

namespace monitor
{

/** Tunables of the streaming detector (`monitor --debounce/--rearm`). */
struct OnlineDetectorConfig
{
    /**
     * Consecutive violating samples before an incident fires.  One
     * noisy metric point never pages anyone; a real excursion
     * violates every sample until the heap graph recovers.
     */
    std::size_t debounceSamples = 3;

    /**
     * Consecutive in-range samples after an excursion before the
     * metric re-arms and may fire again.
     */
    std::size_t rearmSamples = 8;
};

/** Per-metric context ring: recent samples kept for the report. */
inline constexpr std::size_t kContextCapacity = 64;

/** Where a metric is in the hysteresis cycle. */
enum class MetricPhase
{
    Armed,   //!< in range, ready to detect
    Suspect, //!< violating, debounce streak building
    Firing,  //!< incident emitted, still violating
    Cooling, //!< back in range, re-arm streak building
};

/** Stable lowercase name ("armed", "suspect", ...). */
const char *metricPhaseName(MetricPhase phase);

/** Live per-metric state exported to the Prometheus families. */
struct MetricView
{
    MetricId id = MetricId::Roots;
    bool observed = false; //!< at least one sample seen
    double value = 0.0;    //!< most recent observed value
    double lo = 0.0;       //!< slacked lower bound
    double hi = 0.0;       //!< slacked upper bound
    /** Points beyond the slacked range (0 while in range). */
    double distance = 0.0;
    MetricPhase phase = MetricPhase::Armed;
    std::uint64_t violatingSamples = 0;
    std::uint64_t incidents = 0;
};

/**
 * Per-sample streaming checker.
 *
 * Feed it with observe() (any sample source: a followed segment
 * chain through a Process, or percentages read from a live shm stats
 * segment), or attach it to a Process as a SampleObserver.  Incidents
 * surface through the onIncident callback at the firing sample, so a
 * caller can write the bundle while the monitored process is still
 * running.
 */
class OnlineDetector : public SampleObserver
{
  public:
    /** @param model calibrated model; must outlive the detector. */
    explicit OnlineDetector(const HeapModel &model,
                            OnlineDetectorConfig config = {});

    /** Called with each finalized report, at the firing sample. */
    void
    setIncidentCallback(std::function<void(const BugReport &)> cb)
    {
        on_incident_ = std::move(cb);
    }

    /**
     * Check one sample.  @p frames is the call-stack context stored
     * with the sample (innermost first); sources without a shadow
     * stack pass whatever marker they have (the scan-pass FnId).
     */
    void observe(const MetricSample &sample,
                 const std::vector<FnId> &frames);

    /** SampleObserver: observe() with the process's shadow stack. */
    void onSample(const MetricSample &sample,
                  const Process &process) override;

    /** Register with @p process as a sample observer. */
    void attach(Process &process) { process.addSampleObserver(this); }

    /** Live per-metric state, in model-entry order. */
    std::vector<MetricView> views() const;

    /** Reports fired so far (one per excursion). */
    const std::vector<BugReport> &reports() const { return reports_; }

    /** Samples examined. */
    std::uint64_t samplesChecked() const { return samples_checked_; }

    /** True when at least one incident fired. */
    bool anomalous() const { return !reports_.empty(); }

  private:
    struct MetricState
    {
        MetricState() : context(kContextCapacity) {}

        MetricPhase phase = MetricPhase::Armed;
        std::size_t streak = 0; //!< debounce or re-arm progress
        bool observed = false;
        double lastValue = 0.0;
        double lastDistance = 0.0;
        std::uint64_t violatingSamples = 0;
        std::uint64_t incidents = 0;
        RingBuffer<StackLogEntry> context;
    };

    void fire(std::size_t entry_index, MetricState &state,
              const MetricSample &sample, double value);

    const HeapModel &model_;
    OnlineDetectorConfig config_;
    std::vector<MetricState> states_; //!< parallel to model entries()
    std::vector<BugReport> reports_;
    std::function<void(const BugReport &)> on_incident_;
    std::uint64_t samples_checked_ = 0;
};

} // namespace monitor

} // namespace heapmd

#endif // HEAPMD_MONITOR_ONLINE_DETECTOR_HH
