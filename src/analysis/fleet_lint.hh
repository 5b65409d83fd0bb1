/**
 * @file
 * Static linter for fleet population models (`heapmd fleet-merge`
 * output).
 *
 * Works on the raw JSON, not the fleet loader structs, so a document
 * the loader would reject can still be audited field by field and so
 * the analysis layer stays independent of src/fleet.  The header
 * lint and the field checker are diag_lint's, run under the fleet.
 * rule family.
 *
 * Rule catalog (see DESIGN.md §15):
 *   fleet.io               unreadable input file
 *   fleet.parse            not valid JSON
 *   fleet.kind             missing/wrong "kind" tag
 *   fleet.version          missing or unsupported schemaVersion
 *   fleet.missing-field    required member absent or mistyped (a
 *                          count that is not a whole number)
 *   fleet.count-mismatch   processes != members array length
 *   fleet.member-order     members not strictly sorted by path
 *   fleet.bad-metric       metric name not in the paper's seven
 *   fleet.range-inverted   a pooled range with min > max
 *   fleet.outlier-unknown  an outlier path naming no member
 *   fleet.incident-order   incident clusters not sorted by
 *                          (count desc, signature)
 *   fleet.incident-count   a cluster counting fewer bundles than
 *                          the members it lists
 */

#ifndef HEAPMD_ANALYSIS_FLEET_LINT_HH
#define HEAPMD_ANALYSIS_FLEET_LINT_HH

#include <cstddef>
#include <string>

#include "analysis/report.hh"

namespace heapmd
{

namespace analysis
{

/** Scan statistics of one fleet lint pass. */
struct FleetLintStats
{
    std::size_t members = 0;   //!< processes listed
    std::size_t metrics = 0;   //!< pooled metric ranges
    std::size_t outliers = 0;  //!< outlier attributions
    std::size_t incidents = 0; //!< incident clusters
};

/** Lint one fleet-model document given as text. */
FleetLintStats lintFleetText(const std::string &text, Report &report);

/** Lint the fleet-model file at @p path. */
FleetLintStats lintFleetFile(const std::string &path, Report &report);

} // namespace analysis

} // namespace heapmd

#endif // HEAPMD_ANALYSIS_FLEET_LINT_HH
