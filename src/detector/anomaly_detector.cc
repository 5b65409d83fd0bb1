#include "detector/anomaly_detector.hh"

#include <algorithm>

#include "support/logging.hh"
#include "telemetry/telemetry.hh"

namespace heapmd
{

double
boundSlack(const DetectorConfig &config, const HeapModel::Entry &entry)
{
    const double span =
        std::max(entry.maxValue - entry.minValue, config.minSpan);
    double slack = std::max(config.rangeSlackFraction * span,
                            config.rangeSlackAbs);
    if (entry.locallyStable)
        slack *= config.localSlackMultiplier;
    return slack;
}

SlackedRange
slackedRange(const DetectorConfig &config, const HeapModel::Entry &entry)
{
    const double slack = boundSlack(config, entry);
    return {slack, entry.minValue - slack, entry.maxValue + slack};
}

AnomalyDetector::AnomalyDetector(const HeapModel &model,
                                 DetectorConfig config)
    : model_(model), config_(config)
{
    states_.reserve(model_.entries().size());
    for (std::size_t i = 0; i < model_.entries().size(); ++i)
        states_.emplace_back(config_.logCapacity);
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
        const double span =
            std::max(e.maxValue - e.minValue, config_.minSpan);
        const double margin = config_.approachFraction * span;
        const SlackedRange range = slackedRange(config_, e);
        const double slope = state.hasPrev ? v - state.prev : 0.0;
        const bool violating = range.violatedBy(v);

        if (violating && !state.inViolation) {
            // A new excursion: open a report, keep logging for the
            // "after" context before finalizing.
            HEAPMD_COUNTER_INC("checker.range_crossings");
            HEAPMD_TRACE_INSTANT("checker.range_crossing");
            state.inViolation = true;
            state.pendingReport = true;
            state.afterLeft = config_.afterSamples;
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
            process_->callStack().capture(config_.callStackDepth);
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
