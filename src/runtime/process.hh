/**
 * @file
 * The execution logger: consumes instrumentation events, mirrors the
 * heap-graph, and samples metrics at metric computation points.
 */

#ifndef HEAPMD_RUNTIME_PROCESS_HH
#define HEAPMD_RUNTIME_PROCESS_HH

#include <cstdint>
#include <vector>

#include "heapgraph/heap_graph.hh"
#include "metrics/metric_sample.hh"
#include "metrics/series.hh"
#include "runtime/call_stack.hh"
#include "runtime/events.hh"

namespace heapmd
{

class Process;

/** Receives every raw instrumentation event (e.g. SWAT, tracing). */
class EventObserver
{
  public:
    virtual ~EventObserver() = default;

    /** Called for each event, after the Process has folded it in. */
    virtual void onEvent(const Event &event, Tick tick) = 0;
};

/** Receives each metric sample (e.g. the anomaly detector). */
class SampleObserver
{
  public:
    virtual ~SampleObserver() = default;

    /** Called at every metric computation point. */
    virtual void onSample(const MetricSample &sample,
                          const Process &process) = 0;
};

/** Static configuration of a Process. */
struct ProcessConfig
{
    /**
     * Metric computation frequency: one sample per this many function
     * entries (the paper's frq; it used 1/100,000 on hours-long
     * commercial runs, our synthetic workloads default to 1/2,000).
     */
    std::uint64_t metricFrequency = 2000;

    /**
     * When false the logger discards events without maintaining the
     * heap-graph (the "uninstrumented" baseline of the overhead
     * bench).
     */
    bool instrumentationEnabled = true;

    /**
     * Tolerate the address-space reuse of real allocators when
     * folding in live-capture traces: an Alloc over a range we still
     * consider live implicitly frees the stale objects (their free
     * was missed, e.g. dropped as reentrant by the capture shim),
     * and zero-size allocations are promoted to one byte as malloc
     * does.  Off for synthetic runs, where such an event is a logger
     * bug and should panic.
     */
    bool tolerateAddressReuse = false;
};

/**
 * HeapMD's model of one monitored execution.
 *
 * Feed it the event stream of an instrumented program (live via
 * HeapApi, or recorded via trace replay); it maintains the heap-graph
 * image, the shadow call stack, and collects a MetricSeries with one
 * sample per metric computation point.
 */
class Process
{
  public:
    explicit Process(ProcessConfig config = {});

    Process(const Process &) = delete;
    Process &operator=(const Process &) = delete;

    /** Fold one event in and notify observers. */
    void onEvent(const Event &event);

    /** @name Typed event intake (thin wrappers over onEvent). */
    ///@{
    void onAlloc(Addr addr, std::uint64_t size);
    void onFree(Addr addr);
    void onRealloc(Addr old_addr, Addr new_addr, std::uint64_t size);
    void onWrite(Addr addr, Addr value);
    void onRead(Addr addr);
    void onFnEnter(FnId fn);
    void onFnExit(FnId fn);
    ///@}

    /** Force a metric sample now (e.g. at end of run). */
    const MetricSample &forceSample();

    /** The heap-graph image. */
    const HeapGraph &graph() const { return graph_; }

    /** Shadow call stack (innermost = most recent FnEnter). */
    const CallStack &callStack() const { return call_stack_; }

    /** Function-name registry shared with the instrumented program. */
    FunctionRegistry &registry() { return registry_; }
    const FunctionRegistry &registry() const { return registry_; }

    /** Metric samples collected so far. */
    const MetricSeries &series() const { return series_; }

    /** Event count so far (event time). */
    Tick now() const { return tick_; }

    /** Function entries observed so far. */
    std::uint64_t fnEntries() const { return fn_entries_; }

    /**
     * Stale objects implicitly freed by address-space reuse (always
     * 0 unless tolerateAddressReuse is on).
     */
    std::uint64_t reusedRangeFrees() const
    {
        return reused_range_frees_;
    }

    const ProcessConfig &config() const { return config_; }

    /**
     * Fold any batched graph-telemetry deltas into the Registry.
     * Call when a fold completes and a Registry snapshot (manifest,
     * stats table) is about to be taken while this Process is still
     * alive -- counters are otherwise only current as of the last
     * metric point or batch boundary.
     */
    void flushTelemetry() { graph_.flushTelemetry(); }

    /** Register a raw-event observer (not owned; must outlive us). */
    void addEventObserver(EventObserver *observer);

    /** Register a metric-sample observer (not owned). */
    void addSampleObserver(SampleObserver *observer);

  private:
    void takeSample();
    void reclaimReusedRange(Addr addr, std::uint64_t size,
                            Addr exclude);

    ProcessConfig config_;
    HeapGraph graph_;
    CallStack call_stack_;
    FunctionRegistry registry_;
    MetricSeries series_;
    std::vector<EventObserver *> event_observers_;
    std::vector<SampleObserver *> sample_observers_;
    Tick tick_ = 0;
    std::uint64_t fn_entries_ = 0;
    std::uint64_t sample_count_ = 0;
    std::uint64_t reused_range_frees_ = 0;
};

} // namespace heapmd

#endif // HEAPMD_RUNTIME_PROCESS_HH
