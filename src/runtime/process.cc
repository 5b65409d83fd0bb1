#include "runtime/process.hh"

#include <algorithm>

#include "metrics/metric_engine.hh"
#include "support/logging.hh"
#include "telemetry/telemetry.hh"

namespace heapmd
{

Process::Process(ProcessConfig config)
    : config_(config)
{
    if (config_.metricFrequency == 0)
        HEAPMD_FATAL("metricFrequency must be positive");
}

void
Process::onEvent(const Event &event)
{
    ++tick_;

    if (config_.instrumentationEnabled) {
        switch (event.kind) {
          case EventKind::Alloc: {
            std::uint64_t size = event.size;
            if (config_.tolerateAddressReuse) {
                size = std::max<std::uint64_t>(size, 1);
                reclaimReusedRange(event.addr, size, kNullAddr);
            }
            graph_.allocate(event.addr, size, call_stack_.top(),
                            tick_);
            break;
          }
          case EventKind::Free:
            graph_.free(event.addr);
            break;
          case EventKind::Realloc:
            if (config_.tolerateAddressReuse && event.size != 0) {
                // The stale-object sweep must spare the source
                // object: reallocate() itself frees (or resizes) it.
                reclaimReusedRange(event.value, event.size,
                                   event.addr);
            }
            graph_.reallocate(event.addr, event.value, event.size,
                              call_stack_.top(), tick_);
            break;
          case EventKind::Write:
            graph_.write(event.addr, event.value);
            break;
          case EventKind::Read:
            break; // reads do not alter connectivity
          case EventKind::FnEnter:
            call_stack_.push(event.fn);
            ++fn_entries_;
            if (fn_entries_ % config_.metricFrequency == 0)
                takeSample();
            break;
          case EventKind::FnExit:
            call_stack_.pop(event.fn);
            break;
        }
    } else if (event.kind == EventKind::FnEnter) {
        ++fn_entries_; // keep run-length accounting comparable
    }

    for (EventObserver *observer : event_observers_)
        observer->onEvent(event, tick_);
}

void
Process::onAlloc(Addr addr, std::uint64_t size)
{
    onEvent(Event::alloc(addr, size));
}

void
Process::onFree(Addr addr)
{
    onEvent(Event::free(addr));
}

void
Process::onRealloc(Addr old_addr, Addr new_addr, std::uint64_t size)
{
    onEvent(Event::realloc(old_addr, new_addr, size));
}

void
Process::onWrite(Addr addr, Addr value)
{
    onEvent(Event::write(addr, value));
}

void
Process::onRead(Addr addr)
{
    onEvent(Event::read(addr));
}

void
Process::onFnEnter(FnId fn)
{
    onEvent(Event::fnEnter(fn));
}

void
Process::onFnExit(FnId fn)
{
    onEvent(Event::fnExit(fn));
}

void
Process::reclaimReusedRange(Addr addr, std::uint64_t size,
                            Addr exclude)
{
    const std::size_t reclaimed =
        graph_.freeOverlapping(addr, size, exclude);
    if (reclaimed != 0) {
        reused_range_frees_ += reclaimed;
        HEAPMD_COUNTER_ADD("runtime.address_reuse_frees", reclaimed);
    }
}

const MetricSample &
Process::forceSample()
{
    takeSample();
    return series_.samples().back();
}

void
Process::addEventObserver(EventObserver *observer)
{
    if (observer == nullptr)
        HEAPMD_PANIC("null event observer");
    event_observers_.push_back(observer);
}

void
Process::addSampleObserver(SampleObserver *observer)
{
    if (observer == nullptr)
        HEAPMD_PANIC("null sample observer");
    sample_observers_.push_back(observer);
}

void
Process::takeSample()
{
    HEAPMD_TIMED_NS("metrics.compute_ns", "metrics.sample_ns");
    HEAPMD_COUNTER_INC("metrics.samples");

    const MetricSample sample =
        MetricEngine::sample(graph_, tick_, sample_count_);
    series_.push(sample);
    // Graph telemetry is batched off the per-event path; a metric
    // point is where mid-run Registry readers expect fresh values.
    graph_.flushTelemetry();
    HEAPMD_TRACE_COUNTER("graph.nodes_live", graph_.vertexCount());
    HEAPMD_TRACE_COUNTER("graph.edges_live", graph_.edgeCount());
    ++sample_count_;

    for (SampleObserver *observer : sample_observers_)
        observer->onSample(sample, *this);
}

} // namespace heapmd
