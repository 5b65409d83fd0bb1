/**
 * @file
 * Regenerates Figure 6: average and standard deviation of the
 * percentage change of In=Out and Outdeg=1 for vpr on both inputs.
 * The paper's values: In=Out avg 2.47%/-0.18% with stddev 24.80/5.27
 * (unstable); Outdeg=1 avg -0.10%/-0.02% with stddev 1.72/1.79
 * (globally stable).
 */

#include "bench_common.hh"

using namespace heapmd;

int
main()
{
    bench::banner("Figure 6",
                  "vpr: avg / stddev of metric change on two inputs, "
                  "with the stability verdicts");

    const HeapMD tool(bench::standardConfig());
    auto vpr = makeApp("vpr");
    const auto [seed1, seed2] = bench::pickVprInputs(tool, *vpr);

    const StabilityThresholds thr;
    TextTable table({"Metric", "Input", "Average", "Std. Dev.",
                     "Verdict"});

    for (MetricId id : {MetricId::InEqOut, MetricId::Outdeg1}) {
        int which = 1;
        for (std::uint64_t seed : {seed1, seed2}) {
            AppConfig cfg;
            cfg.inputSeed = seed;
            cfg.scale = bench::kScale;
            const RunOutcome run = tool.observe(*vpr, cfg);
            const FluctuationSummary fs = analyzeMetric(run.series, id);
            table.addRow({metricName(id),
                          "Input" + std::to_string(which),
                          bench::pct(fs.avgChange, 2) + "%",
                          bench::pct(fs.stdDev, 2),
                          stabilityName(classify(fs, thr))});
            ++which;
        }
    }
    table.print(std::cout);
    std::printf("\nPaper shape: Outdeg=1 is globally stable "
                "(|avg| <= 1%%, stddev <= 5) on both inputs;\n"
                "In=Out fails the thresholds on at least one input "
                "and is not globally stable.\n");
    return 0;
}
