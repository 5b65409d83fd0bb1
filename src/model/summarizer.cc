#include "model/summarizer.hh"

#include <algorithm>
#include <cmath>

#include "telemetry/telemetry.hh"

namespace heapmd
{

namespace
{

/**
 * Fraction of training inputs on which a metric must be stable to be
 * declared globally stable (paper: 40%, Section 4.1).  For any
 * non-empty run set the rounded-up count is at least one run.
 */
constexpr double kStableInputFraction = 0.40;

/**
 * Metrics whose maximum observed value (percent) never reaches this
 * floor are dropped from the model: a constant-zero metric is
 * trivially "stable" but its [0, 0] range would flag any measurement
 * noise as an anomaly.
 */
constexpr double kMinMeaningfulValue = 0.5;

/**
 * Leave-one-out outlier rejection during range calibration: a stable
 * run whose value envelope extends beyond the remaining stable runs'
 * range by more than max(kOutlierGapFraction * their span,
 * kOutlierGapFloor percentage points) is excluded from the range and
 * reported as a suspect training input.  This automates the paper's
 * manual step of selecting inputs "where the same set of metrics were
 * consistently stable" (Section 4.1): a training input carrying a
 * manifested bug can look stable at a displaced value, and must not
 * silently widen the model.
 */
constexpr double kOutlierGapFraction = 1.0;
constexpr double kOutlierGapFloor = 0.75;

/**
 * Slack applied when classifying training runs as suspect (Section
 * 4.1's "treated as buggy" rule), mirroring the execution checker's
 * calibration slack: a run is suspect only when its envelope leaves
 * the calibrated range by more than max(kSuspectSlackFraction * span,
 * kSuspectSlackAbs).
 */
constexpr double kSuspectSlackFraction = 0.25;
constexpr double kSuspectSlackAbs = 1.0;

} // namespace

void
MetricSummarizer::addRun(const MetricSeries &series)
{
    HEAPMD_TRACE_SPAN("model.add_run");
    HEAPMD_COUNTER_INC("model.runs_summarized");
    RunAnalysis analysis;
    analysis.label = series.label;
    for (MetricId id : kAllMetrics) {
        const std::size_t i = metricIndex(id);
        analysis.perMetric[i] = analyzeMetric(series, id);
        analysis.stable[i] =
            isGloballyStable(analysis.perMetric[i], config_.thresholds);
        analysis.klass[i] =
            classify(analysis.perMetric[i], config_.thresholds);
    }
    runs_.push_back(std::move(analysis));
}

std::size_t
MetricSummarizer::stableRunCount(MetricId id) const
{
    const std::size_t i = metricIndex(id);
    std::size_t count = 0;
    for (const RunAnalysis &run : runs_)
        count += run.stable[i] ? 1 : 0;
    return count;
}

std::vector<bool>
MetricSummarizer::rejectOutliers(MetricId id,
                                 std::vector<bool> qualifying) const
{
    const std::size_t i = metricIndex(id);
    std::size_t count = 0;
    for (std::size_t r = 0; r < qualifying.size(); ++r)
        count += qualifying[r] ? 1 : 0;
    if (count < 3)
        return qualifying; // too few runs to call anything an outlier

    // Leave-one-out: a run whose envelope sits far beyond the range
    // of the *other* stable runs carries a bug that manifested during
    // training; clean extremal runs extend the range only modestly.
    std::vector<bool> keep = qualifying;
    for (std::size_t r = 0; r < runs_.size(); ++r) {
        if (!qualifying[r])
            continue;
        double lo = std::numeric_limits<double>::infinity();
        double hi = -std::numeric_limits<double>::infinity();
        for (std::size_t o = 0; o < runs_.size(); ++o) {
            if (!qualifying[o] || o == r)
                continue;
            lo = std::min(lo, runs_[o].perMetric[i].minValue);
            hi = std::max(hi, runs_[o].perMetric[i].maxValue);
        }
        const double margin =
            std::max(kOutlierGapFraction * (hi - lo), kOutlierGapFloor);
        const FluctuationSummary &fs = runs_[r].perMetric[i];
        if (fs.maxValue > hi + margin || fs.minValue < lo - margin)
            keep[r] = false;
    }
    return keep;
}

std::vector<bool>
MetricSummarizer::rangeContributors(MetricId id) const
{
    const std::size_t i = metricIndex(id);
    std::vector<bool> qualifying(runs_.size(), false);
    for (std::size_t r = 0; r < runs_.size(); ++r)
        qualifying[r] = runs_[r].stable[i];
    return rejectOutliers(id, std::move(qualifying));
}

std::optional<HeapModel::Entry>
MetricSummarizer::buildEntry(MetricId id,
                             const std::vector<bool> &included,
                             std::size_t stable_runs,
                             bool locally_stable) const
{
    const std::size_t i = metricIndex(id);
    HeapModel::Entry entry;
    entry.id = id;
    entry.stableRuns = stable_runs;
    entry.locallyStable = locally_stable;
    entry.minValue = std::numeric_limits<double>::infinity();
    entry.maxValue = -std::numeric_limits<double>::infinity();
    double avg_sum = 0.0, std_sum = 0.0;
    std::size_t contributors = 0;
    for (std::size_t r = 0; r < runs_.size(); ++r) {
        if (!included[r])
            continue;
        const FluctuationSummary &fs = runs_[r].perMetric[i];
        entry.minValue = std::min(entry.minValue, fs.minValue);
        entry.maxValue = std::max(entry.maxValue, fs.maxValue);
        avg_sum += fs.avgChange;
        std_sum += fs.stdDev;
        ++contributors;
    }
    if (contributors == 0)
        return std::nullopt;
    entry.avgChange = avg_sum / static_cast<double>(contributors);
    entry.stdDev = std_sum / static_cast<double>(contributors);
    if (entry.maxValue < kMinMeaningfulValue)
        return std::nullopt; // degenerate near-zero metric
    return entry;
}

HeapModel
MetricSummarizer::buildModel(const std::string &program_name) const
{
    HEAPMD_TRACE_SPAN("model.build");
    HEAPMD_COUNTER_INC("model.builds");
    HeapModel model;
    model.programName = program_name;
    model.trainingRuns = runs_.size();
    if (runs_.empty())
        return model;

    const auto needed = static_cast<std::size_t>(std::ceil(
        kStableInputFraction * static_cast<double>(runs_.size())));

    for (MetricId id : kAllMetrics) {
        const std::size_t stable_runs = stableRunCount(id);
        if (stable_runs < needed)
            continue;
        const auto entry = buildEntry(id, rangeContributors(id),
                                      stable_runs, false);
        if (entry)
            model.addEntry(*entry);
    }

    if (config_.includeLocallyStable) {
        // Future-work extension: metrics that are at least locally
        // stable (flat within phases) on enough inputs, and not
        // already in the model as globally stable.
        for (MetricId id : kAllMetrics) {
            if (model.isStable(id))
                continue;
            const std::size_t i = metricIndex(id);
            std::vector<bool> qualifying(runs_.size(), false);
            std::size_t count = 0;
            for (std::size_t r = 0; r < runs_.size(); ++r) {
                qualifying[r] =
                    runs_[r].klass[i] != Stability::Unstable;
                count += qualifying[r] ? 1 : 0;
            }
            if (count < needed)
                continue;
            const auto entry = buildEntry(
                id, rejectOutliers(id, std::move(qualifying)), count,
                true);
            if (entry)
                model.addEntry(*entry);
        }
    }

    // Metrics never stable on any input feed the pathological check;
    // a locally stable entry is already in the model.
    for (MetricId id : kAllMetrics) {
        if (stableRunCount(id) == 0 && !model.isStable(id))
            model.unstableMetrics.push_back(id);
    }
    return model;
}

std::vector<std::size_t>
MetricSummarizer::suspectTrainingRuns(const HeapModel &model) const
{
    std::vector<std::size_t> suspects;
    for (std::size_t r = 0; r < runs_.size(); ++r) {
        bool out_of_range = false;
        for (const HeapModel::Entry &e : model.entries()) {
            const std::size_t i = metricIndex(e.id);
            const FluctuationSummary &fs = runs_[r].perMetric[i];
            if (runs_[r].stable[i] && rangeContributors(e.id)[r])
                continue; // this run contributed to the range
            const double slack =
                std::max(kSuspectSlackFraction * (e.maxValue - e.minValue),
                         kSuspectSlackAbs);
            if (fs.minValue < e.minValue - slack ||
                fs.maxValue > e.maxValue + slack) {
                out_of_range = true;
                break;
            }
        }
        if (out_of_range)
            suspects.push_back(r);
    }
    return suspects;
}

} // namespace heapmd
