#include "detector/anomaly_detector.hh"

#include <algorithm>
#include <optional>
#include <utility>

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

AnomalyDetector::AnomalyDetector(const HeapModel &model,
                                 Hysteresis hysteresis)
    : model_(model), hysteresis_(hysteresis),
      states_(model.entries().size())
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
    check(sample, [&process] {
        return StackLogEntry{process.now(), process.series().size(), 0.0,
                             process.callStack().capture(kCallStackDepth)};
    });
}

void
AnomalyDetector::observe(const MetricSample &sample,
                         const std::vector<FnId> &frames)
{
    check(sample, [&sample, &frames] {
        return StackLogEntry{sample.tick, sample.pointIndex, 0.0, frames};
    });
}

/**
 * One sample through every metric's cycle.  @p where makes the
 * context-log snapshot, at most once per sample.
 */
template <typename Where>
void
AnomalyDetector::check(const MetricSample &sample, const Where &where)
{
    ++samples_checked_;
    HEAPMD_COUNTER_INC("checker.samples_checked");

    std::optional<StackLogEntry> here;
    const auto &entries = model_.entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const HeapModel::Entry &e = entries[i];
        MetricState &state = states_[i];

        const double v = sample.value(e.id);
        const double slope = state.observed ? v - state.lastValue : 0.0;
        const SlackedRange range = slackedRange(e);
        const bool violating = range.violatedBy(v);
        state.observed = true;
        state.lastValue = v;
        state.lastDistance =
            violating ? (v < range.lo ? range.lo - v : v - range.hi)
                      : 0.0;
        if (violating)
            ++state.violatingSamples;

        if (advance(state, violating)) {
            // A new excursion: open a report, keep logging for the
            // "after" context before closing it.
            HEAPMD_COUNTER_INC("checker.range_crossings");
            HEAPMD_TRACE_INSTANT("checker.range_crossing");
            state.open = true;
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
        }

        const double span = std::max(e.maxValue - e.minValue, kMinSpan);
        const double margin = kApproachFraction * span;
        const bool approaching_max =
            v >= range.hi - range.slack - margin && slope > 0.0;
        const bool approaching_min =
            v <= range.lo + range.slack + margin && slope < 0.0;
        setLogging(state, state.open || violating || approaching_max ||
                              approaching_min);
        if (state.logging) {
            if (!here)
                here = where();
            here->metricValue = v;
            state.log.push(*here);
        }

        if (state.open) {
            if (state.afterLeft == 0)
                closeReport(state);
            else
                --state.afterLeft;
        }
    }
}

/**
 * Step @p state's hysteresis phase by one sample.
 * @return true when the debounce streak completes, opening a report.
 */
bool
AnomalyDetector::advance(MetricState &state, bool violating) const
{
    switch (state.phase) {
    case MetricPhase::Armed:
    case MetricPhase::Suspect:
        if (!violating) {
            state.phase = MetricPhase::Armed;
            state.streak = 0;
        } else if (++state.streak < hysteresis_.debounce) {
            state.phase = MetricPhase::Suspect;
        } else {
            state.phase = MetricPhase::Firing;
            state.streak = 0;
            return true;
        }
        break;
    case MetricPhase::Firing:
    case MetricPhase::Cooling:
        if (violating) {
            // Same excursion flaring back up: no new report.
            state.phase = MetricPhase::Firing;
            state.streak = 0;
        } else if (++state.streak < hysteresis_.rearm) {
            state.phase = MetricPhase::Cooling;
        } else {
            state.phase = MetricPhase::Armed;
            state.streak = 0;
        }
        break;
    }
    return false;
}

void
AnomalyDetector::onEvent(const Event &event, Tick tick)
{
    (void)tick;
    if (logging_count_ == 0)
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
    StackLogEntry here{process_->now(), process_->series().size(), 0.0,
                       process_->callStack().capture(kCallStackDepth)};
    for (MetricState &state : states_) {
        if (state.logging) {
            here.metricValue = state.lastValue;
            state.log.push(here);
        }
    }
}

void
AnomalyDetector::finish()
{
    for (MetricState &state : states_) {
        if (state.open)
            closeReport(state);
    }
}

std::vector<MetricView>
AnomalyDetector::views() const
{
    std::vector<MetricView> out;
    out.reserve(states_.size());
    for (std::size_t i = 0; i < states_.size(); ++i) {
        const MetricState &state = states_[i];
        out.push_back({model_.entries()[i].id, state.observed,
                       state.lastValue, state.lastDistance, state.phase,
                       state.violatingSamples});
    }
    return out;
}

void
AnomalyDetector::setLogging(MetricState &state, bool on)
{
    if (on != state.logging) {
        state.logging = on;
        if (on)
            ++logging_count_;
        else
            --logging_count_;
    }
    if (!on)
        state.log.clear(); // moved away: drop stale context
}

void
AnomalyDetector::closeReport(MetricState &state)
{
    HEAPMD_COUNTER_INC("checker.reports");
    state.pending.contextLog = state.log.snapshot();
    reports_.push_back(std::move(state.pending));
    state.open = false;
    setLogging(state, false);
    if (on_incident_)
        on_incident_(reports_.back());
}

} // namespace heapmd
