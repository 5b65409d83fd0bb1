/**
 * @file
 * Stability classification of metric series (Section 3 of the paper).
 */

#ifndef HEAPMD_METRICS_STABILITY_HH
#define HEAPMD_METRICS_STABILITY_HH

#include <cstddef>
#include <string>

#include "metrics/series.hh"

namespace heapmd
{

/**
 * Fraction of metric computation points ignored at each end of a
 * run, as startup and shutdown (paper: first/last 10%).
 */
inline constexpr double kTrimFraction = 0.10;

/**
 * Upper stddev bound separating *locally stable* from *unstable*
 * when the average change is small.  Our extension (the paper
 * describes locally stable metrics qualitatively).
 */
inline constexpr double kLocallyStableStdDev = 25.0;

/**
 * Thresholds of the stability definition.  Paper values: a metric is
 * stable when the average change is within +/-1% and the standard
 * deviation of change is below 5, computed over consecutive metric
 * computation points after trimming kTrimFraction at each end.
 * These two stay settings because the threshold ablation sweeps
 * them.
 */
struct StabilityThresholds
{
    double maxAbsAvgChange = 1.0; //!< percent, paper: +/- 1%
    double maxStdDev = 5.0;       //!< paper: 5
};

/** Stability classes of Section 2.1's metric summarizer. */
enum class Stability
{
    GloballyStable, //!< flat change distribution, small stddev
    LocallyStable,  //!< flat on average, phase spikes
    Unstable,       //!< drifting or wildly varying
};

/** Display name of a Stability value. */
const std::string &stabilityName(Stability s);

/** Change-distribution summary of one metric in one run. */
struct FluctuationSummary
{
    double avgChange = 0.0; //!< mean percentage change
    double stdDev = 0.0;    //!< stddev of percentage change
    std::size_t changeCount = 0; //!< changes that survived zero-guard
    double minValue = 0.0;  //!< min metric value in the trimmed range
    double maxValue = 0.0;  //!< max metric value in the trimmed range
};

/**
 * Summarize one metric of one run: trim kTrimFraction at each end,
 * difference, average.
 */
FluctuationSummary analyzeMetric(const MetricSeries &series,
                                 MetricId id);

/** True when the summary meets the globally-stable thresholds. */
bool isGloballyStable(const FluctuationSummary &summary,
                      const StabilityThresholds &thresholds);

/** Three-way classification (globally / locally stable, unstable). */
Stability classify(const FluctuationSummary &summary,
                   const StabilityThresholds &thresholds);

} // namespace heapmd

#endif // HEAPMD_METRICS_STABILITY_HH
