/**
 * @file
 * HeapMD end-to-end pipeline: the public API a tool user drives.
 *
 * Ties the pieces of Figure 2 together: instrumented execution
 * (runtime), the execution logger (Process), the metric summarizer
 * (model), and the execution checker (detector).
 */

#ifndef HEAPMD_CORE_HEAPMD_HH
#define HEAPMD_CORE_HEAPMD_HH

#include <vector>

#include "apps/app.hh"
#include "detector/execution_checker.hh"
#include "model/summarizer.hh"
#include "runtime/process.hh"

namespace heapmd
{

/** Configuration of the whole pipeline (the paper's Settings file). */
struct HeapMDConfig
{
    /** Execution-logger settings (metric frequency frq, etc.). */
    ProcessConfig process;

    /** Model-construction settings (thresholds, local metrics). */
    SummarizerConfig summarizer;

    /**
     * Worker threads for multi-input train/check (0 = one per
     * hardware thread, 1 = sequential).  Runs are independent -- one
     * Process per input -- and results merge in input order, so the
     * model and every derived artifact are bit-identical for any
     * value.
     */
    unsigned jobs = 1;
};

/** Everything produced by one monitored run of a program. */
struct RunOutcome
{
    MetricSeries series;        //!< all metric samples of the run
    AppResult app;              //!< ground truth from the workload
    HeapGraph::Stats graphStats; //!< event counters
    std::uint64_t liveBlocksAtExit = 0; //!< program-side leak count
    /** Function names by FnId, for symbolizing report stacks. */
    std::vector<std::string> functionNames;
    /** Event ticks consumed by the run (Process::now at exit). */
    Tick finalTick = 0;
    /** Wall-clock nanoseconds spent inside the monitored run. */
    std::uint64_t wallNanos = 0;
    /** CPU nanoseconds (std::clock) spent inside the monitored run. */
    std::uint64_t cpuNanos = 0;

    /** Rebuild a registry for BugReport::describe(). */
    FunctionRegistry registry() const;
};

/** Model plus the evidence it was built from. */
struct TrainingOutcome
{
    HeapModel model;
    MetricSummarizer summarizer; //!< retains per-run analyses (Fig 7)
    std::vector<std::size_t> suspectTrainingRuns;
};

/** Result of checking one run against a model. */
struct CheckOutcome
{
    CheckResult check;
    RunOutcome run;
};

/**
 * Facade over the two-phase design of Section 2.
 */
class HeapMD
{
  public:
    explicit HeapMD(HeapMDConfig config = {});

    /** Run @p app on one input, collecting metrics (no checking). */
    RunOutcome observe(SyntheticApp &app, const AppConfig &config) const;

    /**
     * Model-construction phase: run @p app on every training input
     * and summarize (Section 2.1).
     */
    TrainingOutcome train(SyntheticApp &app,
                          const std::vector<AppConfig> &inputs) const;

    /**
     * Execution-checking phase: run @p app on one input under the
     * anomaly detector (Section 2.2).
     */
    CheckOutcome check(SyntheticApp &app, const AppConfig &config,
                       const HeapModel &model) const;

    /**
     * Check a batch of inputs against one model, one Process +
     * checker per input, across config().jobs workers.  Results come
     * back in input order regardless of the worker count.
     */
    std::vector<CheckOutcome>
    checkMany(SyntheticApp &app, const std::vector<AppConfig> &inputs,
              const HeapModel &model) const;

    const HeapMDConfig &config() const { return config_; }

  private:
    HeapMDConfig config_;
};

/**
 * Convenience: training inputs with seeds first_seed .. first_seed +
 * count - 1, all at the given version and scale.
 */
std::vector<AppConfig> makeInputs(std::uint64_t first_seed,
                                  std::size_t count,
                                  std::uint32_t version = 1,
                                  double scale = 1.0);

/**
 * The "example stable metric" of Figure 7: the model entry stable on
 * the most training inputs (ties: narrowest calibrated range).
 * @return nullptr when the model is empty.
 */
const HeapModel::Entry *pickExampleMetric(const HeapModel &model);

} // namespace heapmd

#endif // HEAPMD_CORE_HEAPMD_HH
