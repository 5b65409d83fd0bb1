/**
 * @file
 * Unit tests of the runtime substrate: address space, call stack,
 * and the execution-logger Process.
 */

#include <gtest/gtest.h>

#include "runtime/address_space.hh"
#include "runtime/call_stack.hh"
#include "runtime/process.hh"

namespace heapmd
{

namespace
{

TEST(AddressSpaceTest, AlignmentAndClasses)
{
    EXPECT_EQ(AddressSpace::roundToClass(0), 16u);
    EXPECT_EQ(AddressSpace::roundToClass(1), 16u);
    EXPECT_EQ(AddressSpace::roundToClass(16), 16u);
    EXPECT_EQ(AddressSpace::roundToClass(17), 32u);
    EXPECT_EQ(AddressSpace::roundToClass(256), 256u);
    EXPECT_EQ(AddressSpace::roundToClass(257), 320u);
    EXPECT_EQ(AddressSpace::roundToClass(4096), 4096u);
    EXPECT_EQ(AddressSpace::roundToClass(4097), 8192u);
}

TEST(AddressSpaceTest, AllocationsAreAlignedAndDisjoint)
{
    AddressSpace space;
    const Addr a = space.allocate(24);
    const Addr b = space.allocate(24);
    EXPECT_EQ(a % AddressSpace::kAlignment, 0u);
    EXPECT_EQ(b % AddressSpace::kAlignment, 0u);
    EXPECT_GE(b, a + 32); // 24 rounds to 32
    EXPECT_TRUE(space.isLive(a));
    EXPECT_EQ(space.blockSize(a), 32u);
    EXPECT_EQ(space.liveCount(), 2u);
}

TEST(AddressSpaceTest, FreeListReuseIsLifo)
{
    AddressSpace space;
    const Addr a = space.allocate(64);
    const Addr b = space.allocate(64);
    space.release(a);
    space.release(b);
    EXPECT_EQ(space.allocate(64), b); // LIFO
    EXPECT_EQ(space.allocate(64), a);
    EXPECT_EQ(space.stats().reusedBlocks, 2u);
}

TEST(AddressSpaceTest, DifferentClassesDoNotShareFreeLists)
{
    AddressSpace space;
    const Addr a = space.allocate(64);
    space.release(a);
    const Addr b = space.allocate(128);
    EXPECT_NE(b, a);
}

TEST(AddressSpaceTest, DoubleFreeRejected)
{
    AddressSpace space;
    const Addr a = space.allocate(16);
    EXPECT_TRUE(space.release(a));
    EXPECT_FALSE(space.release(a));
    EXPECT_EQ(space.stats().doubleFrees, 1u);
}

TEST(AddressSpaceTest, ReallocSameClassInPlace)
{
    AddressSpace space;
    const Addr a = space.allocate(20); // class 32
    EXPECT_EQ(space.reallocate(a, 30), a); // still class 32
    EXPECT_NE(space.reallocate(a, 200), a); // class change moves
}

TEST(AddressSpaceTest, ReallocNullAllocates)
{
    AddressSpace space;
    const Addr a = space.reallocate(kNullAddr, 64);
    EXPECT_TRUE(space.isLive(a));
}

TEST(AddressSpaceDeathTest, ReallocUnknownPanics)
{
    AddressSpace space;
    EXPECT_DEATH(space.reallocate(0xdeadbeef, 64), "unknown block");
}

TEST(FunctionRegistryTest, InternIsIdempotent)
{
    FunctionRegistry reg;
    const FnId a = reg.intern("foo");
    const FnId b = reg.intern("bar");
    EXPECT_NE(a, b);
    EXPECT_EQ(reg.intern("foo"), a);
    EXPECT_EQ(reg.name(a), "foo");
    EXPECT_EQ(reg.size(), 2u);
}

TEST(FunctionRegistryTest, UnknownIdHasPlaceholderName)
{
    FunctionRegistry reg;
    EXPECT_EQ(reg.name(42), "<fn#42>");
}

TEST(CallStackTest, PushPopBalance)
{
    CallStack stack;
    EXPECT_TRUE(stack.empty());
    EXPECT_EQ(stack.top(), kNoFunction);
    stack.push(1);
    stack.push(2);
    EXPECT_EQ(stack.top(), 2u);
    EXPECT_EQ(stack.depth(), 2u);
    stack.pop(2);
    EXPECT_EQ(stack.top(), 1u);
}

TEST(CallStackTest, UnbalancedPopUnwinds)
{
    CallStack stack;
    stack.push(1);
    stack.push(2);
    stack.push(3);
    stack.pop(1); // longjmp-style unwind past 3 and 2
    EXPECT_TRUE(stack.empty());
}

TEST(CallStackTest, PopOfAbsentFrameIgnored)
{
    CallStack stack;
    stack.push(1);
    stack.pop(99);
    EXPECT_EQ(stack.depth(), 1u);
}

TEST(CallStackTest, CaptureInnermostFirst)
{
    CallStack stack;
    stack.push(1);
    stack.push(2);
    stack.push(3);
    const std::vector<FnId> all = stack.capture();
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(all[0], 3u);
    EXPECT_EQ(all[2], 1u);
    const std::vector<FnId> top2 = stack.capture(2);
    ASSERT_EQ(top2.size(), 2u);
    EXPECT_EQ(top2[0], 3u);
    EXPECT_EQ(top2[1], 2u);
}

TEST(CallStackTest, FormatStack)
{
    FunctionRegistry reg;
    const FnId a = reg.intern("inner");
    const FnId b = reg.intern("outer");
    EXPECT_EQ(formatStack({a, b}, reg), "inner <- outer");
    EXPECT_EQ(formatStack({}, reg), "<empty stack>");
}

TEST(ProcessTest, SamplesEveryFrqFnEntries)
{
    ProcessConfig cfg;
    cfg.metricFrequency = 10;
    Process process(cfg);
    const FnId fn = process.registry().intern("f");
    for (int i = 0; i < 35; ++i) {
        process.onFnEnter(fn);
        process.onFnExit(fn);
    }
    EXPECT_EQ(process.fnEntries(), 35u);
    EXPECT_EQ(process.series().size(), 3u); // at 10, 20, 30
}

TEST(ProcessTest, SampleReflectsGraphState)
{
    ProcessConfig cfg;
    cfg.metricFrequency = 1;
    Process process(cfg);
    process.onAlloc(0x1000, 64);
    process.onAlloc(0x2000, 64);
    process.onWrite(0x1000, 0x2000);
    process.onFnEnter(0);
    const MetricSample &s = process.series().samples().back();
    EXPECT_EQ(s.vertexCount, 2u);
    EXPECT_EQ(s.edgeCount, 1u);
    EXPECT_DOUBLE_EQ(s.value(MetricId::Roots), 50.0);
}

TEST(ProcessTest, ForceSample)
{
    Process process;
    process.onAlloc(0x1000, 64);
    const MetricSample &s = process.forceSample();
    EXPECT_EQ(s.vertexCount, 1u);
    EXPECT_EQ(process.series().size(), 1u);
}

TEST(ProcessTest, AllocSiteIsTopOfStack)
{
    Process process;
    const FnId fn = process.registry().intern("allocator");
    process.onFnEnter(fn);
    process.onAlloc(0x1000, 64);
    process.onFnExit(fn);
    const ObjectRecord *rec = process.graph().objectAt(0x1000);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(process.graph().provenanceOf(*rec).allocSite, fn);
}

TEST(ProcessTest, TickAdvancesPerEvent)
{
    Process process;
    EXPECT_EQ(process.now(), 0u);
    process.onAlloc(0x1000, 8);
    process.onRead(0x1000);
    process.onFree(0x1000);
    EXPECT_EQ(process.now(), 3u);
}

class RecordingObserver : public EventObserver
{
  public:
    void
    onEvent(const Event &event, Tick tick) override
    {
        kinds.push_back(event.kind);
        ticks.push_back(tick);
    }

    std::vector<EventKind> kinds;
    std::vector<Tick> ticks;
};

TEST(ProcessTest, EventObserverSeesEverythingInOrder)
{
    Process process;
    RecordingObserver observer;
    process.addEventObserver(&observer);
    process.onAlloc(0x1000, 8);
    process.onWrite(0x1000, 0);
    process.onFree(0x1000);
    ASSERT_EQ(observer.kinds.size(), 3u);
    EXPECT_EQ(observer.kinds[0], EventKind::Alloc);
    EXPECT_EQ(observer.kinds[1], EventKind::Write);
    EXPECT_EQ(observer.kinds[2], EventKind::Free);
    EXPECT_EQ(observer.ticks[0], 1u);
    EXPECT_EQ(observer.ticks[2], 3u);
}

class CountingSampleObserver : public SampleObserver
{
  public:
    void
    onSample(const MetricSample &sample,
             const Process &process) override
    {
        (void)process;
        ++count;
        lastVertexCount = sample.vertexCount;
    }

    int count = 0;
    std::uint64_t lastVertexCount = 0;
};

TEST(ProcessTest, SampleObserverNotified)
{
    ProcessConfig cfg;
    cfg.metricFrequency = 2;
    Process process(cfg);
    CountingSampleObserver observer;
    process.addSampleObserver(&observer);
    process.onAlloc(0x1000, 8);
    const FnId fn = 0;
    process.onFnEnter(fn);
    process.onFnEnter(fn);
    EXPECT_EQ(observer.count, 1);
    EXPECT_EQ(observer.lastVertexCount, 1u);
}

TEST(ProcessTest, DisabledInstrumentationSkipsGraph)
{
    ProcessConfig cfg;
    cfg.instrumentationEnabled = false;
    Process process(cfg);
    process.onAlloc(0x1000, 8);
    process.onWrite(0x1000, 0x2000);
    process.onFnEnter(0);
    EXPECT_EQ(process.graph().vertexCount(), 0u);
    EXPECT_EQ(process.fnEntries(), 1u); // run length still tracked
    EXPECT_TRUE(process.series().empty());
}

TEST(ProcessDeathTest, ZeroFrequencyFatal)
{
    ProcessConfig cfg;
    cfg.metricFrequency = 0;
    EXPECT_DEATH(Process process(cfg), "metricFrequency");
}

TEST(ProcessDeathTest, NullObserverPanics)
{
    Process process;
    EXPECT_DEATH(process.addEventObserver(nullptr), "null");
    EXPECT_DEATH(process.addSampleObserver(nullptr), "null");
}

} // namespace

} // namespace heapmd
