#include "monitor/online_detector.hh"

#include <utility>

namespace heapmd
{

namespace monitor
{

const char *
metricPhaseName(MetricPhase phase)
{
    switch (phase) {
    case MetricPhase::Armed:
        return "armed";
    case MetricPhase::Suspect:
        return "suspect";
    case MetricPhase::Firing:
        return "firing";
    case MetricPhase::Cooling:
        return "cooling";
    }
    return "unknown";
}

OnlineDetector::OnlineDetector(const HeapModel &model,
                               OnlineDetectorConfig config)
    : model_(model), config_(config), states_(model.entries().size())
{
    if (config_.debounceSamples == 0)
        config_.debounceSamples = 1;
    if (config_.rearmSamples == 0)
        config_.rearmSamples = 1;
}

void
OnlineDetector::onSample(const MetricSample &sample,
                         const Process &process)
{
    observe(sample, process.callStack().capture(kCallStackDepth));
}

void
OnlineDetector::observe(const MetricSample &sample,
                        const std::vector<FnId> &frames)
{
    ++samples_checked_;
    const auto &entries = model_.entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const HeapModel::Entry &entry = entries[i];
        MetricState &state = states_[i];
        const double value = sample.value(entry.id);

        state.observed = true;
        state.lastValue = value;
        state.context.push(StackLogEntry{sample.tick,
                                         sample.pointIndex, value,
                                         frames});

        const SlackedRange range = slackedRange(entry);
        const bool violating = range.violatedBy(value);
        state.lastDistance =
            violating ? (value < range.lo ? range.lo - value
                                          : value - range.hi)
                      : 0.0;
        if (violating)
            ++state.violatingSamples;

        switch (state.phase) {
        case MetricPhase::Armed:
            if (violating) {
                state.phase = MetricPhase::Suspect;
                state.streak = 1;
                if (state.streak >= config_.debounceSamples)
                    fire(i, state, sample, value);
            }
            break;
        case MetricPhase::Suspect:
            if (violating) {
                ++state.streak;
                if (state.streak >= config_.debounceSamples)
                    fire(i, state, sample, value);
            } else {
                state.phase = MetricPhase::Armed;
                state.streak = 0;
            }
            break;
        case MetricPhase::Firing:
            if (!violating) {
                state.phase = MetricPhase::Cooling;
                state.streak = 1;
                if (state.streak >= config_.rearmSamples) {
                    state.phase = MetricPhase::Armed;
                    state.streak = 0;
                }
            }
            break;
        case MetricPhase::Cooling:
            if (violating) {
                // Same excursion flaring back up: no new report.
                state.phase = MetricPhase::Firing;
                state.streak = 0;
            } else {
                ++state.streak;
                if (state.streak >= config_.rearmSamples) {
                    state.phase = MetricPhase::Armed;
                    state.streak = 0;
                }
            }
            break;
        }
    }
}

void
OnlineDetector::fire(std::size_t entry_index, MetricState &state,
                     const MetricSample &sample, double value)
{
    const HeapModel::Entry &entry = model_.entries()[entry_index];

    BugReport report;
    report.klass = BugClass::HeapAnomaly;
    report.metric = entry.id;
    report.direction = value < entry.minValue
                           ? AnomalyDirection::BelowMin
                           : AnomalyDirection::AboveMax;
    report.observedValue = value;
    report.calibratedMin = entry.minValue;
    report.calibratedMax = entry.maxValue;
    report.tick = sample.tick;
    report.pointIndex = sample.pointIndex;
    report.contextLog = state.context.snapshot();

    state.phase = MetricPhase::Firing;
    state.streak = 0;
    ++state.incidents;

    reports_.push_back(report);
    if (on_incident_)
        on_incident_(reports_.back());
}

std::vector<MetricView>
OnlineDetector::views() const
{
    std::vector<MetricView> out;
    const auto &entries = model_.entries();
    out.reserve(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const HeapModel::Entry &entry = entries[i];
        const MetricState &state = states_[i];
        const SlackedRange range = slackedRange(entry);
        MetricView view;
        view.id = entry.id;
        view.observed = state.observed;
        view.value = state.lastValue;
        view.lo = range.lo;
        view.hi = range.hi;
        view.distance = state.lastDistance;
        view.phase = state.phase;
        view.violatingSamples = state.violatingSamples;
        view.incidents = state.incidents;
        out.push_back(view);
    }
    return out;
}

} // namespace monitor

} // namespace heapmd
