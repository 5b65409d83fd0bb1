/**
 * @file
 * Regenerates the Section 2 overhead claim: "our current prototype
 * results in a 2-3X slowdown", by running the same workload with the
 * execution logger's heap-graph maintenance enabled and disabled,
 * plus the two costs the perfbench ledger does not time: an
 * extended (O(V+E)) metric sample and (on UNIX) one stats-segment
 * read.  Per-event fold, metric-point and publish costs are ledger
 * metrics (runtime.fold_ns_per_event, metrics.point_ns_*,
 * obsv.publish_ns; see BENCH_pipeline.json).
 */

#include <benchmark/benchmark.h>

#include "apps/workload_engine.hh"
#include "core/heapmd.hh"
#include "metrics/metric_engine.hh"

#ifdef __unix__
#include <unistd.h>

#include "obsv/segment.hh"
#endif

using namespace heapmd;

namespace
{

apps::MixParams
standardMix()
{
    apps::MixParams p;
    p.dllCount = 4;
    p.dllTarget = 120;
    p.dllPayload = 32;
    p.hashCount = 1;
    p.hashBuckets = 256;
    p.hashTarget = 300;
    p.hashPayload = 32;
    p.bstCount = 2;
    p.bstTarget = 120;
    p.bufferCount = 200;
    p.bufferSize = 128;
    p.steadyOps = 6000;
    p.wDll = 0.30;
    p.wHash = 0.25;
    p.wBst = 0.20;
    p.wBuffer = 0.20;
    p.wTraverse = 0.05;
    return p;
}

void
runWorkload(bool instrumented)
{
    ProcessConfig cfg;
    cfg.metricFrequency = 400;
    cfg.instrumentationEnabled = instrumented;
    Process process(cfg);
    HeapApi heap(process);
    FaultPlan faults;
    istl::Context ctx(heap, faults, 99);
    AppResult result;
    apps::WorkloadEngine engine(ctx, standardMix(), result);
    engine.runAll();
}

void
BM_WorkloadInstrumented(benchmark::State &state)
{
    for (auto _ : state)
        runWorkload(true);
}
BENCHMARK(BM_WorkloadInstrumented)->Unit(benchmark::kMillisecond);

void
BM_WorkloadUninstrumented(benchmark::State &state)
{
    // Baseline: same program-side work (simulated heap, shadow
    // memory, events emitted) but the execution logger discards
    // events instead of maintaining the heap-graph image.  The ratio
    // instrumented/uninstrumented is the logger's slowdown, the
    // analogue of the paper's 2-3x claim.
    for (auto _ : state)
        runWorkload(false);
}
BENCHMARK(BM_WorkloadUninstrumented)->Unit(benchmark::kMillisecond);

void
BM_ExtendedSample(benchmark::State &state)
{
    // O(V+E) component metrics: the reason they sample at a lower
    // rate than the degree metrics.
    HeapGraph graph;
    for (int i = 0; i < 4096; ++i)
        graph.allocate(0x10000 + 0x40 * i, 64);
    Rng rng(6);
    for (int i = 0; i < 8192; ++i) {
        const Addr src = 0x10000 + 0x40 * rng.below(4096);
        const Addr dst = 0x10000 + 0x40 * rng.below(4096);
        graph.write(src + 8 * rng.below(8), dst);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            MetricEngine::sampleExtended(graph, 0, 0));
    }
}
BENCHMARK(BM_ExtendedSample);

#ifdef __unix__

void
BM_SegmentReaderSnapshot(benchmark::State &state)
{
    // What one `heapmd top` / Prometheus scrape pays per segment.
    // The writer side is the ledger's obsv.publish_ns.
    const std::uint32_t pid =
        3900000000u + static_cast<std::uint32_t>(::getpid() % 1000000);
    obsv::SegmentWriter writer;
    obsv::SegmentReader reader;
    std::string error;
    if (!writer.create(pid, "perf_overhead") ||
        !reader.attachPid(pid, &error)) {
        state.SkipWithError("shm unavailable");
        writer.unlinkAndClose();
        return;
    }
    obsv::SegmentSnapshot snapshot;
    for (auto _ : state) {
        if (!reader.read(snapshot, &error)) {
            state.SkipWithError("torn read");
            break;
        }
        benchmark::DoNotOptimize(snapshot);
    }
    writer.unlinkAndClose();
}
BENCHMARK(BM_SegmentReaderSnapshot);

#endif // __unix__

} // namespace

BENCHMARK_MAIN();
