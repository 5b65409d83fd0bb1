/**
 * @file
 * End-to-end execution checking: online anomaly detection plus the
 * post-run checks for poorly-disguised and pathological bugs.
 */

#ifndef HEAPMD_DETECTOR_EXECUTION_CHECKER_HH
#define HEAPMD_DETECTOR_EXECUTION_CHECKER_HH

#include <memory>
#include <vector>

#include "detector/anomaly_detector.hh"
#include "metrics/stability.hh"
#include "model/model.hh"
#include "runtime/process.hh"

namespace heapmd
{

/** Outcome of checking one execution against a model. */
struct CheckResult
{
    /** All finalized reports, online and post-run. */
    std::vector<BugReport> reports;

    /** Metric samples the online detector examined. */
    std::uint64_t samplesChecked = 0;

    /** True when any report exists. */
    bool anomalous() const { return !reports.empty(); }

    /** Number of reports of a given class. */
    std::size_t countOf(BugClass klass) const;
};

/**
 * Owns an AnomalyDetector for one monitored run and adds the post-run
 * whole-series checks.
 *
 * Usage:
 * @code
 *   Process process(cfg);
 *   ExecutionChecker checker(model);
 *   checker.attach(process);
 *   ... run the workload against process ...
 *   CheckResult result = checker.finalize(process);
 * @endcode
 */
class ExecutionChecker
{
  public:
    explicit ExecutionChecker(const HeapModel &model);

    /** Register the online detector with @p process. */
    void attach(Process &process);

    /** Flush the online detector and run the post-run checks. */
    CheckResult finalize(const Process &process);

    /**
     * Post-run checks over an explicit series (used by tests and by
     * offline trace analysis when no live Process is available).
     */
    CheckResult finalize(const MetricSeries &series, Tick now);

    /** The online detector (for incremental inspection). */
    const AnomalyDetector &detector() const { return detector_; }

  private:
    void checkPersistentViolation(const MetricSeries &series, Tick now,
                                  CheckResult &result) const;
    void checkPoorlyDisguised(const MetricSeries &series, Tick now,
                              CheckResult &result) const;
    void checkPathological(const MetricSeries &series, Tick now,
                           CheckResult &result) const;

    const HeapModel &model_;
    AnomalyDetector detector_;
};

} // namespace heapmd

#endif // HEAPMD_DETECTOR_EXECUTION_CHECKER_HH
