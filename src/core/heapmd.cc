#include "core/heapmd.hh"

#include <chrono>
#include <ctime>

#include "support/parallel_for.hh"
#include "telemetry/telemetry.hh"

namespace heapmd
{

HeapMD::HeapMD(HeapMDConfig config)
    : config_(config)
{
}

namespace
{

void
captureNames(const Process &process, RunOutcome &outcome)
{
    const FunctionRegistry &registry = process.registry();
    outcome.functionNames.reserve(registry.size());
    for (std::size_t id = 0; id < registry.size(); ++id)
        outcome.functionNames.push_back(
            registry.name(static_cast<FnId>(id)));
}

/** Wall + CPU stopwatch for manifest accounting of one run. */
class RunTimer
{
  public:
    RunTimer()
        : wall_start_(std::chrono::steady_clock::now()),
          cpu_start_(std::clock())
    {
    }

    void
    stopInto(RunOutcome &outcome) const
    {
        const auto wall =
            std::chrono::steady_clock::now() - wall_start_;
        outcome.wallNanos = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(wall)
                .count());
        const std::clock_t cpu = std::clock();
        if (cpu != static_cast<std::clock_t>(-1) &&
            cpu_start_ != static_cast<std::clock_t>(-1)) {
            outcome.cpuNanos = static_cast<std::uint64_t>(
                (cpu - cpu_start_) * (1e9 / CLOCKS_PER_SEC));
        }
    }

  private:
    std::chrono::steady_clock::time_point wall_start_;
    std::clock_t cpu_start_;
};

} // namespace

FunctionRegistry
RunOutcome::registry() const
{
    FunctionRegistry registry;
    for (const std::string &name : functionNames)
        registry.intern(name);
    return registry;
}

RunOutcome
HeapMD::observe(SyntheticApp &app, const AppConfig &config) const
{
    HEAPMD_TRACE_SPAN("pipeline.observe");
    HEAPMD_PHASE_SPAN("phase.observe");
    HEAPMD_COUNTER_INC("pipeline.observe_runs");
    Process process(config_.process);
    RunOutcome outcome;
    const RunTimer timer;
    outcome.app = app.run(process, config);
    timer.stopInto(outcome);
    outcome.series = process.series();
    outcome.series.label = app.name() + " seed " +
                           std::to_string(config.inputSeed) + " v" +
                           std::to_string(config.version);
    outcome.graphStats = process.graph().stats();
    outcome.liveBlocksAtExit = process.graph().vertexCount();
    outcome.finalTick = process.now();
    captureNames(process, outcome);
    return outcome;
}

TrainingOutcome
HeapMD::train(SyntheticApp &app,
              const std::vector<AppConfig> &inputs) const
{
    HEAPMD_TRACE_SPAN("pipeline.train");
    HEAPMD_PHASE_SPAN("phase.train");
    HEAPMD_COUNTER_INC("pipeline.train_runs");
    TrainingOutcome outcome{HeapModel{},
                            MetricSummarizer(config_.summarizer),
                            {}};
    // One independent Process per input across the worker pool; the
    // summarizer then consumes the runs in input order, so the model
    // is bit-identical for any jobs value (1 runs inline).
    std::vector<RunOutcome> runs(inputs.size());
    parallelForIndexed(inputs.size(), config_.jobs,
                       [&](std::size_t i) {
                           runs[i] = observe(app, inputs[i]);
                       });
    for (const RunOutcome &run : runs)
        outcome.summarizer.addRun(run.series);
    outcome.model = outcome.summarizer.buildModel(app.name());
    outcome.suspectTrainingRuns =
        outcome.summarizer.suspectTrainingRuns(outcome.model);
    return outcome;
}

CheckOutcome
HeapMD::check(SyntheticApp &app, const AppConfig &config,
              const HeapModel &model) const
{
    HEAPMD_TRACE_SPAN("pipeline.check");
    HEAPMD_PHASE_SPAN("phase.check");
    HEAPMD_COUNTER_INC("pipeline.check_runs");
    Process process(config_.process);
    ExecutionChecker checker(model);
    checker.attach(process);

    CheckOutcome outcome;
    const RunTimer timer;
    outcome.run.app = app.run(process, config);
    timer.stopInto(outcome.run);
    outcome.run.series = process.series();
    outcome.run.series.label = app.name() + " seed " +
                               std::to_string(config.inputSeed) +
                               " v" + std::to_string(config.version);
    outcome.run.graphStats = process.graph().stats();
    outcome.run.liveBlocksAtExit = process.graph().vertexCount();
    outcome.run.finalTick = process.now();
    captureNames(process, outcome.run);
    outcome.check = checker.finalize(process);
    return outcome;
}

std::vector<CheckOutcome>
HeapMD::checkMany(SyntheticApp &app,
                  const std::vector<AppConfig> &inputs,
                  const HeapModel &model) const
{
    std::vector<CheckOutcome> outcomes(inputs.size());
    parallelForIndexed(inputs.size(), config_.jobs,
                       [&](std::size_t i) {
                           outcomes[i] =
                               check(app, inputs[i], model);
                       });
    return outcomes;
}

std::vector<AppConfig>
makeInputs(std::uint64_t first_seed, std::size_t count,
           std::uint32_t version, double scale)
{
    std::vector<AppConfig> inputs;
    inputs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        AppConfig config;
        config.inputSeed = first_seed + i;
        config.version = version;
        config.scale = scale;
        inputs.push_back(config);
    }
    return inputs;
}

const HeapModel::Entry *
pickExampleMetric(const HeapModel &model)
{
    const HeapModel::Entry *best = nullptr;
    for (const HeapModel::Entry &e : model.entries()) {
        if (best == nullptr || e.stableRuns > best->stableRuns ||
            (e.stableRuns == best->stableRuns &&
             (e.maxValue - e.minValue) <
                 (best->maxValue - best->minValue))) {
            best = &e;
        }
    }
    return best;
}

} // namespace heapmd
