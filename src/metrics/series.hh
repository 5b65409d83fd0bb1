/**
 * @file
 * The per-run metric time series and its derived views.
 */

#ifndef HEAPMD_METRICS_SERIES_HH
#define HEAPMD_METRICS_SERIES_HH

#include <cstddef>
#include <string>
#include <vector>

#include "metrics/metric_sample.hh"

namespace heapmd
{

/** One (point, tick, value) observation of a single metric. */
struct SeriesPoint
{
    std::uint64_t pointIndex = 0;
    Tick tick = 0;
    double value = 0.0;
};

/** Summary statistics of one metric over a whole series. */
struct SeriesSummary
{
    std::size_t count = 0;
    double min = 0.0;    //!< 0 when empty
    double max = 0.0;    //!< 0 when empty
    double mean = 0.0;
    double stddev = 0.0; //!< population standard deviation
};

/**
 * All metric samples collected during one run of a program on one
 * input, in collection order (one entry per metric computation point).
 */
class MetricSeries
{
  public:
    /** Append a sample (pointIndex is expected to be monotone). */
    void push(const MetricSample &sample);

    /** Number of metric computation points recorded. */
    std::size_t size() const { return samples_.size(); }

    bool empty() const { return samples_.empty(); }

    /** Sample at position @p i (collection order). */
    const MetricSample &at(std::size_t i) const;

    /** All samples, collection order. */
    const std::vector<MetricSample> &samples() const { return samples_; }

    /** The value series of one metric over all samples. */
    std::vector<double> valuesOf(MetricId id) const;

    /**
     * Index range [first, last) that survives trimming @p fraction of
     * the points at each end (the paper ignores the first and last 10%
     * as startup/shutdown).  Never trims the series to fewer than two
     * points when at least two exist.
     */
    std::pair<std::size_t, std::size_t>
    trimmedRange(double fraction) const;

    /** The value series of one metric within the trimmed range. */
    std::vector<double> trimmedValuesOf(MetricId id,
                                        double fraction) const;

    /**
     * The points of @p id whose pointIndex falls within
     * [center - radius, center + radius] -- the slice an incident
     * bundle captures around a range crossing.  Samples are matched
     * by their recorded pointIndex, not their position, so replayed
     * or subsampled series window correctly.
     */
    std::vector<SeriesPoint> window(MetricId id, std::uint64_t center,
                                    std::uint64_t radius) const;

    /** Whole-series summary statistics of @p id (manifests). */
    SeriesSummary summaryOf(MetricId id) const;

    /** Label for reports ("input 3 of vpr"). */
    std::string label;

  private:
    std::vector<MetricSample> samples_;
};

/**
 * Consecutive-point percentage changes of a value series:
 * (y[i+1] - y[i]) / y[i] * 100 (Section 3 of the paper).
 *
 * Entries whose base value |y[i]| < 1e-9 are skipped, since the
 * paper's formula divides by y[i].
 */
std::vector<double> fluctuationOf(const std::vector<double> &values);

} // namespace heapmd

#endif // HEAPMD_METRICS_SERIES_HH
