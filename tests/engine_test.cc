/**
 * @file
 * Tests of the workload engine: phase structure, target feedback,
 * bulk rebuilds, generic leak scenarios and teardown hygiene.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "apps/workload_engine.hh"
#include "metrics/stability.hh"

namespace heapmd
{

namespace
{

class EngineTest : public ::testing::Test
{
  protected:
    EngineTest()
        : process_(makeConfig()), heap_(process_), faults_(),
          ctx_(heap_, faults_, 7)
    {
    }

    static ProcessConfig
    makeConfig()
    {
        ProcessConfig cfg;
        cfg.metricFrequency = 100;
        return cfg;
    }

    Process process_;
    HeapApi heap_;
    FaultPlan faults_;
    istl::Context ctx_;
    AppResult result_;
};

apps::MixParams
smallMix()
{
    apps::MixParams p;
    p.dllCount = 2;
    p.dllTarget = 60;
    p.dllPayload = 16;
    p.hashCount = 1;
    p.hashBuckets = 64;
    p.hashTarget = 80;
    p.hashPayload = 16;
    p.bufferCount = 40;
    p.bufferSize = 64;
    p.handleCount = 30;
    p.steadyOps = 4000;
    p.wDll = 0.30;
    p.wHash = 0.25;
    p.wBuffer = 0.20;
    p.wHandle = 0.15;
    p.wTraverse = 0.05;
    return p;
}

TEST_F(EngineTest, StartupBuildsToTargets)
{
    apps::MixParams p = smallMix();
    apps::WorkloadEngine engine(ctx_, p, result_);
    engine.startup();
    // 2 DLLs x 60 nodes (+payloads), hash 80 entries (+payloads),
    // 40 buffers, 30 handles (+payloads), bucket array, archive.
    EXPECT_GT(process_.graph().vertexCount(), 400u);
    engine.shutdown();
    EXPECT_EQ(process_.graph().vertexCount(), 0u);
    EXPECT_EQ(heap_.liveCount(), 0u);
}

TEST_F(EngineTest, SteadyStateHoversNearTargets)
{
    apps::MixParams p = smallMix();
    apps::WorkloadEngine engine(ctx_, p, result_);
    engine.startup();
    const std::uint64_t at_startup = process_.graph().vertexCount();
    engine.steady();
    const std::uint64_t after = process_.graph().vertexCount();
    // Stationary churn: the population stays within ~35% of the
    // startup level.
    EXPECT_GT(after, at_startup * 65 / 100);
    EXPECT_LT(after, at_startup * 135 / 100);
    engine.shutdown();
}

TEST_F(EngineTest, RunAllLeavesNothingBehindWithoutFaults)
{
    apps::MixParams p = smallMix();
    p.phases = 3;
    p.phaseWeightSwing = 0.5;
    p.phaseTargetSwing = 0.15;
    p.bulkDll = true;
    p.bulkHash = true;
    p.bulkBuffers = true;
    apps::WorkloadEngine(ctx_, p, result_).runAll();
    EXPECT_EQ(process_.graph().vertexCount(), 0u);
    EXPECT_EQ(heap_.liveCount(), 0u);
    EXPECT_EQ(result_.injectedLeakObjects, 0u);
    EXPECT_EQ(result_.reachableLeakObjects, 0u);
    process_.graph().checkConsistency();
}

TEST_F(EngineTest, PhasesProduceMoreSamplesVariance)
{
    // Bulk rebuilds at phase boundaries must destabilize at least
    // one metric relative to the single-phase run.
    apps::MixParams flat = smallMix();
    apps::MixParams phased = smallMix();
    phased.phases = 4;
    phased.phaseWeightSwing = 0.5;
    phased.phaseTargetSwing = 0.15;
    phased.bulkDll = true;
    phased.bulkHash = true;

    double flat_worst = 0.0, phased_worst = 0.0;
    {
        Process process(makeConfig());
        HeapApi heap(process);
        FaultPlan faults;
        istl::Context ctx(heap, faults, 11);
        AppResult result;
        apps::WorkloadEngine(ctx, flat, result).runAll();
        for (MetricId id : kAllMetrics) {
            flat_worst = std::max(
                flat_worst,
                analyzeMetric(process.series(), id).stdDev);
        }
    }
    {
        Process process(makeConfig());
        HeapApi heap(process);
        FaultPlan faults;
        istl::Context ctx(heap, faults, 11);
        AppResult result;
        apps::WorkloadEngine(ctx, phased, result).runAll();
        for (MetricId id : kAllMetrics) {
            phased_worst = std::max(
                phased_worst,
                analyzeMetric(process.series(), id).stdDev);
        }
    }
    EXPECT_GT(phased_worst, flat_worst);
}

TEST_F(EngineTest, SmallLeakBudgetHonoured)
{
    apps::MixParams p = smallMix();
    faults_.enable(FaultKind::SmallLeak, 1.0, 3);
    apps::WorkloadEngine(ctx_, p, result_).runAll();
    EXPECT_EQ(result_.injectedLeakObjects, 3u);
    EXPECT_EQ(result_.leakAddrs.size(), 3u);
    EXPECT_EQ(process_.graph().vertexCount(), 3u); // only the leaks
    for (Addr addr : result_.leakAddrs)
        EXPECT_NE(process_.graph().objectStartingAt(addr), nullptr);
}

TEST_F(EngineTest, ReachableLeaksParkedThenFreedAtExit)
{
    apps::MixParams p = smallMix();
    faults_.enable(FaultKind::ReachableLeak, 0.01);
    apps::WorkloadEngine(ctx_, p, result_).runAll();
    EXPECT_GT(result_.reachableLeakObjects, 0u);
    EXPECT_EQ(result_.reachableLeakObjects,
              result_.leakAddrs.size());
    // Archive teardown freed them: nothing live at exit.
    EXPECT_EQ(process_.graph().vertexCount(), 0u);
}

TEST_F(EngineTest, CacheObjectsRecordedAndIdle)
{
    apps::MixParams p = smallMix();
    p.cacheObjects = 20;
    p.cacheObjectSize = 32;

    apps::WorkloadEngine engine(ctx_, p, result_);
    engine.startup();
    EXPECT_EQ(result_.cacheObjects, 40u); // nodes + payloads
    EXPECT_EQ(result_.cacheAddrs.size(), 40u);
    for (Addr addr : result_.cacheAddrs)
        EXPECT_NE(process_.graph().objectStartingAt(addr), nullptr);

    // The steady loop never touches the cache: its objects see no
    // Read events after the warm-up traversal.
    const Tick warm_end = process_.now();
    engine.steady();
    // (Indirect check: SWAT-style staleness would flag them; here we
    // at least assert they are still live and untouched structurally.)
    for (Addr addr : result_.cacheAddrs)
        EXPECT_NE(process_.graph().objectStartingAt(addr), nullptr);
    EXPECT_GT(process_.now(), warm_end);
    engine.shutdown();
}

TEST_F(EngineTest, EmptyMixIsHarmless)
{
    apps::MixParams p; // nothing enabled
    p.steadyOps = 100;
    apps::WorkloadEngine(ctx_, p, result_).runAll();
    EXPECT_EQ(process_.graph().vertexCount(), 0u);
}

TEST_F(EngineTest, DeterministicAcrossIdenticalContexts)
{
    apps::MixParams p = smallMix();
    p.phases = 2;
    p.phaseWeightSwing = 0.4;
    p.bulkDll = true;

    std::uint64_t allocs[2];
    for (int round = 0; round < 2; ++round) {
        Process process(makeConfig());
        HeapApi heap(process);
        FaultPlan faults;
        istl::Context ctx(heap, faults, 99);
        AppResult result;
        apps::WorkloadEngine(ctx, p, result).runAll();
        allocs[round] = process.graph().stats().allocs;
    }
    EXPECT_EQ(allocs[0], allocs[1]);
}

} // namespace

} // namespace heapmd
