/**
 * @file
 * Static linter for calibrated heap-behaviour model documents.
 *
 * Re-parses the line-oriented format of HeapModel::save() leniently
 * (HeapModel::load() exits on the first syntax error and panics on
 * min > max, so it cannot be used to *audit* a suspect file) and
 * checks the parsed content for degenerate calibrations,
 * cross-checking the stability invariants of
 * metrics/stability.hh:StabilityThresholds.  Findings carry 1-based
 * line numbers.
 *
 * Rule catalog (see DESIGN.md, "The audit subsystem"):
 *   model.io               unreadable input file
 *   model.bad-header       first line is not "heapmd-model v1"
 *   model.syntax           malformed or unknown line
 *   model.unknown-metric   metric name not in the paper's seven
 *   model.duplicate-metric metric calibrated twice, or both stable
 *                          and unstable
 *   model.range-inverted   entry with min > max
 *   model.non-finite       NaN or infinity in a calibrated field
 *   model.threshold-bounds avg change / stddev outside the stability
 *                          thresholds the summarizer enforces
 *   model.stable-runs      stableRuns of 0 or > training runs
 *   model.empty-stable-set no calibrated metric at all
 *   model.no-end           document missing the "end" terminator
 */

#ifndef HEAPMD_ANALYSIS_MODEL_LINT_HH
#define HEAPMD_ANALYSIS_MODEL_LINT_HH

#include <istream>
#include <string>

#include "analysis/report.hh"

namespace heapmd
{

namespace analysis
{

/** Scan statistics of one model lint pass. */
struct ModelLintStats
{
    std::size_t lines = 0;           //!< lines scanned
    std::size_t stableMetrics = 0;   //!< calibrated entries seen
    std::size_t unstableMetrics = 0; //!< "unstable" lines seen
};

/**
 * Lint one model document from @p is against the paper's stability
 * thresholds.
 */
ModelLintStats lintModel(std::istream &is, Report &report);

/** Lint the model file at @p path. */
ModelLintStats lintModelFile(const std::string &path, Report &report);

} // namespace analysis

} // namespace heapmd

#endif // HEAPMD_ANALYSIS_MODEL_LINT_HH
