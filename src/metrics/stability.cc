#include "metrics/stability.hh"

#include <array>
#include <cmath>

#include "support/stats.hh"

namespace heapmd
{

const std::string &
stabilityName(Stability s)
{
    static const std::array<std::string, 3> names = {
        "globally-stable", "locally-stable", "unstable",
    };
    return names[static_cast<std::size_t>(s)];
}

FluctuationSummary
analyzeMetric(const MetricSeries &series, MetricId id)
{
    FluctuationSummary out;
    const std::vector<double> values =
        series.trimmedValuesOf(id, kTrimFraction);
    if (values.empty())
        return out;

    MinMax envelope;
    for (double v : values)
        envelope.push(v);
    out.minValue = envelope.min();
    out.maxValue = envelope.max();

    RunningStats changes;
    for (double c : fluctuationOf(values))
        changes.push(c);
    out.avgChange = changes.mean();
    out.stdDev = changes.stddev();
    out.changeCount = changes.count();
    return out;
}

bool
isGloballyStable(const FluctuationSummary &summary,
                 const StabilityThresholds &thresholds)
{
    // A series with no measurable changes (e.g. constant zero) is
    // trivially flat.
    if (summary.changeCount == 0)
        return true;
    return std::fabs(summary.avgChange) <= thresholds.maxAbsAvgChange &&
           summary.stdDev <= thresholds.maxStdDev;
}

Stability
classify(const FluctuationSummary &summary,
         const StabilityThresholds &thresholds)
{
    if (isGloballyStable(summary, thresholds))
        return Stability::GloballyStable;
    if (std::fabs(summary.avgChange) <= thresholds.maxAbsAvgChange &&
        summary.stdDev <= kLocallyStableStdDev) {
        return Stability::LocallyStable;
    }
    return Stability::Unstable;
}

} // namespace heapmd
