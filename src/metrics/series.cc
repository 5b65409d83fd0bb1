#include "metrics/series.hh"

#include <cmath>

#include "support/logging.hh"
#include "support/stats.hh"

namespace heapmd
{

void
MetricSeries::push(const MetricSample &sample)
{
    samples_.push_back(sample);
}

const MetricSample &
MetricSeries::at(std::size_t i) const
{
    if (i >= samples_.size())
        HEAPMD_PANIC("MetricSeries index ", i, " out of range ",
                     samples_.size());
    return samples_[i];
}

std::vector<double>
MetricSeries::valuesOf(MetricId id) const
{
    std::vector<double> out;
    out.reserve(samples_.size());
    for (const MetricSample &s : samples_)
        out.push_back(s.value(id));
    return out;
}

std::pair<std::size_t, std::size_t>
MetricSeries::trimmedRange(double fraction) const
{
    if (fraction < 0.0 || fraction >= 0.5)
        HEAPMD_PANIC("trim fraction ", fraction, " must be in [0, 0.5)");
    const std::size_t n = samples_.size();
    if (n < 2)
        return {0, n};
    std::size_t cut = static_cast<std::size_t>(
        std::floor(static_cast<double>(n) * fraction));
    // Keep at least two points so a change series exists.
    while (cut > 0 && n - 2 * cut < 2)
        --cut;
    return {cut, n - cut};
}

std::vector<double>
MetricSeries::trimmedValuesOf(MetricId id, double fraction) const
{
    const auto [first, last] = trimmedRange(fraction);
    std::vector<double> out;
    out.reserve(last - first);
    for (std::size_t i = first; i < last; ++i)
        out.push_back(samples_[i].value(id));
    return out;
}

std::vector<SeriesPoint>
MetricSeries::window(MetricId id, std::uint64_t center,
                     std::uint64_t radius) const
{
    const std::uint64_t first = center >= radius ? center - radius : 0;
    const std::uint64_t last = center + radius; // saturation unneeded:
                                                // pointIndex is dense
    std::vector<SeriesPoint> out;
    for (const MetricSample &s : samples_) {
        if (s.pointIndex < first || s.pointIndex > last)
            continue;
        out.push_back({s.pointIndex, s.tick, s.value(id)});
    }
    return out;
}

SeriesSummary
MetricSeries::summaryOf(MetricId id) const
{
    RunningStats stats;
    for (const MetricSample &s : samples_)
        stats.push(s.value(id));
    SeriesSummary summary;
    summary.count = stats.count();
    if (stats.count() > 0) {
        summary.min = stats.min();
        summary.max = stats.max();
    }
    summary.mean = stats.mean();
    summary.stddev = stats.stddev();
    return summary;
}

std::vector<double>
fluctuationOf(const std::vector<double> &values)
{
    // Changes from a base this close to zero are skipped: the paper's
    // formula divides by it.
    constexpr double kZeroGuard = 1e-9;

    std::vector<double> out;
    if (values.size() < 2)
        return out;
    out.reserve(values.size() - 1);
    for (std::size_t i = 0; i + 1 < values.size(); ++i) {
        const double base = values[i];
        if (std::fabs(base) < kZeroGuard)
            continue;
        out.push_back((values[i + 1] - base) / base * 100.0);
    }
    return out;
}

} // namespace heapmd
