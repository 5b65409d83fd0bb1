/**
 * @file
 * The metric summarizer: consolidates per-run metric reports into a
 * HeapModel (Section 2.1, "The metric summarizer").
 */

#ifndef HEAPMD_MODEL_SUMMARIZER_HH
#define HEAPMD_MODEL_SUMMARIZER_HH

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "metrics/stability.hh"
#include "model/model.hh"

namespace heapmd
{

/** Settings of the summarizer that the ablation benches sweep. */
struct SummarizerConfig
{
    /** Stability thresholds (paper: +/-1% avg, stddev 5). */
    StabilityThresholds thresholds;

    /**
     * Also admit *locally stable* metrics into the model (Section
     * 2.1's classification; the paper lists this as future work,
     * Section 4.4 item 3).  Local entries calibrate the same min/max
     * range but are checked by the detector against a widened band,
     * since phase spikes are expected excursions for them.
     */
    bool includeLocallyStable = false;
};

/** Per-run, per-metric analysis retained for reporting (Figure 7). */
struct RunAnalysis
{
    std::string label; //!< copied from the series
    std::array<FluctuationSummary, kNumMetrics> perMetric{};
    std::array<bool, kNumMetrics> stable{};
    std::array<Stability, kNumMetrics> klass{};
};

/**
 * Consumes the MetricSeries of each training run and produces the
 * calibrated model: metrics stable on enough inputs become model
 * entries whose range is the min/max those metrics attained across
 * their *stable* runs.
 */
class MetricSummarizer
{
  public:
    explicit MetricSummarizer(SummarizerConfig config = {})
        : config_(config)
    {
    }

    /** Analyze one training run and retain its summary. */
    void addRun(const MetricSeries &series);

    /** Number of runs consumed. */
    std::size_t runCount() const { return runs_.size(); }

    /** Per-run analyses, in addRun order. */
    const std::vector<RunAnalysis> &runs() const { return runs_; }

    /** Number of runs on which @p id met the stability thresholds. */
    std::size_t stableRunCount(MetricId id) const;

    /** Build the calibrated model from the runs consumed so far. */
    HeapModel buildModel(const std::string &program_name) const;

    /**
     * Indices of training runs where some model-stable metric leaves
     * the calibrated range; the paper treats such training inputs as
     * buggy (Section 4.1).
     */
    std::vector<std::size_t>
    suspectTrainingRuns(const HeapModel &model) const;

    const SummarizerConfig &config() const { return config_; }

  private:
    /**
     * For metric @p id: which stable runs contribute to the range
     * after leave-one-out outlier rejection.  Entries are false for
     * unstable runs and for rejected outliers.
     */
    std::vector<bool> rangeContributors(MetricId id) const;

    /** Shared gap-rejection pass over an arbitrary qualifying mask. */
    std::vector<bool>
    rejectOutliers(MetricId id, std::vector<bool> qualifying) const;

    /** Build one model entry from the qualifying runs, or nothing. */
    std::optional<HeapModel::Entry>
    buildEntry(MetricId id, const std::vector<bool> &included,
               std::size_t stable_runs, bool locally_stable) const;

    SummarizerConfig config_;
    std::vector<RunAnalysis> runs_;
};

} // namespace heapmd

#endif // HEAPMD_MODEL_SUMMARIZER_HH
