/**
 * @file
 * Regenerates Figure 5: fluctuation (consecutive-point percentage
 * change) of the Figure 4 metrics, after skipping the startup points.
 */

#include "bench_common.hh"

#include "support/csv.hh"

using namespace heapmd;

namespace
{

void
emitFluctuation(const char *label, const MetricSeries &series)
{
    const std::vector<double> in_eq_out = fluctuationOf(
        series.trimmedValuesOf(MetricId::InEqOut, kTrimFraction));
    const std::vector<double> outdeg1 = fluctuationOf(
        series.trimmedValuesOf(MetricId::Outdeg1, kTrimFraction));

    std::printf("\n# CSV fluctuation: %s (step, in_eq_out_change_pct, "
                "outdeg1_change_pct)\n",
                label);
    CsvWriter csv(std::cout);
    csv.writeRow({"step", "in_eq_out_change", "outdeg1_change"});
    const std::size_t n = std::min(in_eq_out.size(), outdeg1.size());
    for (std::size_t i = 0; i < n; ++i) {
        csv.writeNumericRow(
            {static_cast<double>(i), in_eq_out[i], outdeg1[i]}, 3);
    }
}

} // namespace

int
main()
{
    bench::banner("Figure 5",
                  "vpr: fluctuation of In=Out and Outdeg=1 after "
                  "skipping startup points");

    const HeapMD tool(bench::standardConfig());
    auto vpr = makeApp("vpr");
    const auto [seed1, seed2] = bench::pickVprInputs(tool, *vpr);

    AppConfig input1;
    input1.inputSeed = seed1;
    input1.scale = bench::kScale;
    AppConfig input2;
    input2.inputSeed = seed2;
    input2.scale = bench::kScale;

    const RunOutcome run1 = tool.observe(*vpr, input1);
    const RunOutcome run2 = tool.observe(*vpr, input2);

    std::printf("Paper shape: the Outdeg=1 fluctuation plot is flat "
                "and close to 0;\nthe In=Out plot shows spikes "
                "(phase changes), marking it unstable.\n");
    emitFluctuation("vpr Input1", run1.series);
    emitFluctuation("vpr Input2", run2.series);
    return 0;
}
