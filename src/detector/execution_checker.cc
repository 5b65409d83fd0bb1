#include "detector/execution_checker.hh"

#include <algorithm>
#include <cmath>

#include "support/stats.hh"
#include "telemetry/telemetry.hh"

namespace heapmd
{

namespace
{

/**
 * Poorly-disguised heuristic: the fraction of the calibrated span
 * that counts as "pinned at an extreme" ...
 */
constexpr double kExtremeBandFraction = 0.10;

/** ... and the fraction of samples that must sit in that band. */
constexpr double kExtremeOccupancy = 0.90;

/**
 * Post-run persistent-violation check: a stable metric whose trimmed
 * samples sit outside the (slacked) calibrated range for at least
 * this fraction of the run is reported even though the online
 * crossing happened inside the ignored startup window (how
 * startup-born bugs like the oct-DAG of Section 4.3 and the
 * localization bug manifest).
 */
constexpr double kPersistentViolationFraction = 0.50;

/** The post-run analyses judge stability by the paper's thresholds. */
constexpr StabilityThresholds kThresholds{};

} // namespace

std::size_t
CheckResult::countOf(BugClass klass) const
{
    return static_cast<std::size_t>(
        std::count_if(reports.begin(), reports.end(),
                      [klass](const BugReport &r) {
                          return r.klass == klass;
                      }));
}

ExecutionChecker::ExecutionChecker(const HeapModel &model)
    : model_(model), detector_(model)
{
}

void
ExecutionChecker::attach(Process &process)
{
    detector_.attach(process);
}

CheckResult
ExecutionChecker::finalize(const Process &process)
{
    return finalize(process.series(), process.now());
}

CheckResult
ExecutionChecker::finalize(const MetricSeries &series, Tick now)
{
    HEAPMD_TRACE_SPAN("checker.finalize");
    detector_.finish();

    CheckResult result;
    result.samplesChecked = detector_.samplesChecked();

    // The model was calibrated with the first and last kTrimFraction
    // of metric computation points ignored (startup/shutdown, Section
    // 2.1); violations inside those windows are expected and are not
    // anomalies.  Keep only reports from the calibrated window.
    const auto [first, last] = series.trimmedRange(kTrimFraction);
    for (const BugReport &report : detector_.reports()) {
        if (report.pointIndex >= first && report.pointIndex < last)
            result.reports.push_back(report);
    }

    checkPersistentViolation(series, now, result);
    checkPoorlyDisguised(series, now, result);
    checkPathological(series, now, result);
    return result;
}

void
ExecutionChecker::checkPersistentViolation(const MetricSeries &series,
                                           Tick now,
                                           CheckResult &result) const
{
    const auto [first, last] = series.trimmedRange(kTrimFraction);
    if (last <= first)
        return;

    for (const HeapModel::Entry &e : model_.entries()) {
        const bool already_reported = std::any_of(
            result.reports.begin(), result.reports.end(),
            [&e](const BugReport &r) { return r.metric == e.id; });
        if (already_reported)
            continue;

        const SlackedRange range = slackedRange(e);

        std::size_t below = 0, above = 0;
        double worst = 0.0;
        double worst_excess = -1.0;
        std::uint64_t worst_point = first;
        for (std::size_t i = first; i < last; ++i) {
            const double v = series.at(i).value(e.id);
            double excess = -1.0;
            if (v < range.lo) {
                ++below;
                excess = range.lo - v;
            } else if (v > range.hi) {
                ++above;
                excess = v - range.hi;
            }
            if (excess > worst_excess) {
                worst_excess = excess;
                worst = v;
                worst_point = series.at(i).pointIndex;
            }
        }
        const double n = static_cast<double>(last - first);
        const double frac =
            static_cast<double>(std::max(below, above)) / n;
        if (frac < kPersistentViolationFraction)
            continue;

        BugReport report;
        report.klass = BugClass::HeapAnomaly;
        report.metric = e.id;
        report.direction = above >= below
                               ? AnomalyDirection::AboveMax
                               : AnomalyDirection::BelowMin;
        report.observedValue = worst;
        report.calibratedMin = e.minValue;
        report.calibratedMax = e.maxValue;
        report.tick = now;
        report.pointIndex = worst_point;
        result.reports.push_back(std::move(report));
    }
}

void
ExecutionChecker::checkPoorlyDisguised(const MetricSeries &series,
                                       Tick now,
                                       CheckResult &result) const
{
    // A poorly-disguised bug leaves a stable metric *within* range but
    // pinned at a calibrated extreme (e.g. the oct-tree-becomes-DAG
    // bug of Section 4.3).  Skip metrics that already produced a
    // range-violation report: the anomaly subsumes this weaker signal.
    for (const HeapModel::Entry &e : model_.entries()) {
        if (e.locallyStable)
            continue; // spiky metrics cannot be "pinned" meaningfully
        const bool already_reported = std::any_of(
            result.reports.begin(), result.reports.end(),
            [&e](const BugReport &r) { return r.metric == e.id; });
        if (already_reported)
            continue;

        const std::vector<double> values =
            series.trimmedValuesOf(e.id, kTrimFraction);
        if (values.size() < 2)
            continue;

        const FluctuationSummary fs = analyzeMetric(series, e.id);
        if (!isGloballyStable(fs, kThresholds))
            continue; // poorly disguised requires *stability*

        const double span = std::max(e.maxValue - e.minValue, kMinSpan);
        const double band = kExtremeBandFraction * span;
        std::size_t at_min = 0, at_max = 0;
        for (double v : values) {
            if (v <= e.minValue + band)
                ++at_min;
            if (v >= e.maxValue - band)
                ++at_max;
        }
        const double n = static_cast<double>(values.size());
        const bool pinned_min =
            static_cast<double>(at_min) / n >= kExtremeOccupancy;
        const bool pinned_max =
            static_cast<double>(at_max) / n >= kExtremeOccupancy;
        if (!pinned_min && !pinned_max)
            continue;

        BugReport report;
        report.klass = BugClass::PoorlyDisguised;
        report.metric = e.id;
        report.direction = pinned_min ? AnomalyDirection::BelowMin
                                      : AnomalyDirection::AboveMax;
        report.observedValue = meanOf(values);
        report.calibratedMin = e.minValue;
        report.calibratedMax = e.maxValue;
        report.tick = now;
        report.pointIndex =
            series.empty() ? 0 : series.samples().back().pointIndex;
        result.reports.push_back(std::move(report));
    }
}

void
ExecutionChecker::checkPathological(const MetricSeries &series,
                                    Tick now,
                                    CheckResult &result) const
{
    // A pathological bug makes a normally *unstable* metric stable.
    if (series.size() < 10)
        return; // too short to call anything "stable"

    for (MetricId id : model_.unstableMetrics) {
        const FluctuationSummary fs = analyzeMetric(series, id);
        if (fs.changeCount == 0)
            continue; // degenerate series; not evidence
        if (!isGloballyStable(fs, kThresholds))
            continue;

        BugReport report;
        report.klass = BugClass::Pathological;
        report.metric = id;
        report.direction = AnomalyDirection::AboveMax;
        report.observedValue = (fs.minValue + fs.maxValue) / 2.0;
        report.calibratedMin = fs.minValue;
        report.calibratedMax = fs.maxValue;
        report.tick = now;
        report.pointIndex =
            series.empty() ? 0 : series.samples().back().pointIndex;
        result.reports.push_back(std::move(report));
    }
}

} // namespace heapmd
