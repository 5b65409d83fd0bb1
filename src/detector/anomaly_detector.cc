#include "detector/anomaly_detector.hh"

#include <algorithm>

#include "support/logging.hh"
#include "telemetry/telemetry.hh"

namespace heapmd
{

namespace
{

/**
 * "Approaching an extreme" band, as a fraction of the calibrated
 * range span: logging arms when the value is within this band of a
 * bound and sloping toward it.
 */
constexpr double kApproachFraction = 0.10;

/**
 * Calibration slack added to each bound before a violation is
 * reported, as max(kRangeSlackFraction * span, kRangeSlackAbs
 * percentage points).  Deviation from the paper (which checks the
 * raw min/max): our synthetic inputs draw structure sizes from a
 * *continuous* distribution, so the training min/max always
 * undersamples the population tails; real regression suites are
 * finite and reused, which hid this effect.  Injected bugs move
 * metrics by many points, far beyond this slack.
 */
constexpr double kRangeSlackFraction = 0.25;
constexpr double kRangeSlackAbs = 1.0;

/**
 * Extra slack multiplier for *locally stable* model entries: their
 * phase spikes are expected excursions, so their bands are
 * proportionally wider.
 */
constexpr double kLocalSlackMultiplier = 2.5;

} // namespace

double
boundSlack(const HeapModel::Entry &entry)
{
    const double span = std::max(entry.maxValue - entry.minValue, kMinSpan);
    double slack = std::max(kRangeSlackFraction * span, kRangeSlackAbs);
    if (entry.locallyStable)
        slack *= kLocalSlackMultiplier;
    return slack;
}

SlackedRange
slackedRange(const HeapModel::Entry &entry)
{
    const double slack = boundSlack(entry);
    return {slack, entry.minValue - slack, entry.maxValue + slack};
}

AnomalyDetector::AnomalyDetector(const HeapModel &model)
    : model_(model), states_(model.entries().size())
{
}

void
AnomalyDetector::attach(Process &process)
{
    if (process_ != nullptr)
        HEAPMD_PANIC("detector already attached");
    process_ = &process;
    process.addSampleObserver(this);
    process.addEventObserver(this);
}

void
AnomalyDetector::onSample(const MetricSample &sample,
                          const Process &process)
{
    (void)process;
    ++samples_checked_;
    HEAPMD_COUNTER_INC("checker.samples_checked");

    const auto &entries = model_.entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const HeapModel::Entry &e = entries[i];
        MetricState &state = states_[i];

        const double v = sample.value(e.id);
        state.lastValue = v;
        const double span = std::max(e.maxValue - e.minValue, kMinSpan);
        const double margin = kApproachFraction * span;
        const SlackedRange range = slackedRange(e);
        const double slope = state.hasPrev ? v - state.prev : 0.0;
        const bool violating = range.violatedBy(v);

        if (violating && !state.inViolation) {
            // A new excursion: open a report, keep logging for the
            // "after" context before finalizing.
            HEAPMD_COUNTER_INC("checker.range_crossings");
            HEAPMD_TRACE_INSTANT("checker.range_crossing");
            state.inViolation = true;
            state.pendingReport = true;
            state.afterLeft = kAfterSamples;
            state.pending = BugReport{};
            state.pending.klass = BugClass::HeapAnomaly;
            state.pending.metric = e.id;
            state.pending.direction = v > range.hi
                                          ? AnomalyDirection::AboveMax
                                          : AnomalyDirection::BelowMin;
            state.pending.observedValue = v;
            state.pending.calibratedMin = e.minValue;
            state.pending.calibratedMax = e.maxValue;
            state.pending.tick = sample.tick;
            state.pending.pointIndex = sample.pointIndex;
        } else if (!violating) {
            state.inViolation = false;
        }

        const bool approaching_max =
            v >= range.hi - range.slack - margin && slope > 0.0;
        const bool approaching_min =
            v <= range.lo + range.slack + margin && slope < 0.0;
        const bool want_armed = state.pendingReport || violating ||
                                approaching_max || approaching_min;
        if (want_armed != state.armed) {
            state.armed = want_armed;
            if (want_armed)
                ++armed_count_;
            else
                --armed_count_;
            if (!want_armed && !state.pendingReport)
                state.log.clear(); // moved away: drop stale context
        }
        if (state.armed)
            logSnapshot(state, v);

        if (state.pendingReport) {
            if (state.afterLeft == 0)
                finalizeReport(state);
            else
                --state.afterLeft;
        }

        state.prev = v;
        state.hasPrev = true;
    }
}

void
AnomalyDetector::onEvent(const Event &event, Tick tick)
{
    (void)tick;
    if (armed_count_ == 0)
        return;
    // Only heap-mutating events are interesting culprit context.
    switch (event.kind) {
      case EventKind::Alloc:
      case EventKind::Free:
      case EventKind::Realloc:
      case EventKind::Write:
        break;
      default:
        return;
    }
    for (MetricState &state : states_) {
        if (state.armed)
            logSnapshot(state, state.lastValue);
    }
}

void
AnomalyDetector::finish()
{
    for (MetricState &state : states_) {
        if (state.pendingReport)
            finalizeReport(state);
    }
}

void
AnomalyDetector::logSnapshot(MetricState &state, double value)
{
    StackLogEntry entry;
    if (process_ != nullptr) {
        entry.tick = process_->now();
        entry.pointIndex = process_->series().size();
        entry.frames =
            process_->callStack().capture(kCallStackDepth);
    }
    entry.metricValue = value;
    state.log.push(std::move(entry));
}

void
AnomalyDetector::finalizeReport(MetricState &state)
{
    HEAPMD_COUNTER_INC("checker.reports");
    state.pending.contextLog = state.log.snapshot();
    reports_.push_back(state.pending);
    state.pendingReport = false;
    state.log.clear();
    if (state.armed) {
        state.armed = false;
        --armed_count_;
    }
}

} // namespace heapmd
