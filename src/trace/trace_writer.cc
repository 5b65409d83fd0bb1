#include "trace/trace_writer.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "support/logging.hh"

namespace heapmd
{

TraceWriter::TraceWriter(std::ostream &os,
                         const FunctionRegistry &registry,
                         TraceWriterOptions options)
    : os_(os), registry_(registry), options_(std::move(options))
{
    cur_ = trace::encodeHeader(cur_, options_.captureProvenance
                                         ? trace::kFlagCaptureProvenance
                                         : 0);
}

TraceWriter::~TraceWriter()
{
    drain();
}

void
TraceWriter::drain()
{
    os_.write(block_, static_cast<std::streamsize>(cur_ - block_));
    cur_ = block_;
}

void
TraceWriter::putBytes(const char *data, std::size_t size)
{
    while (size > 0) {
        reserve(1);
        const std::size_t chunk = std::min(
            size, static_cast<std::size_t>(block_ + kBlockBytes - cur_));
        std::memcpy(cur_, data, chunk);
        cur_ += chunk;
        data += chunk;
        size -= chunk;
    }
}

void
TraceWriter::onEvent(const Event &event, Tick tick)
{
    (void)tick; // ticks are implicit: one per event
    if (finished_)
        HEAPMD_PANIC("event appended to a finished trace");

    reserve(kMaxEventBytes);
    char *out = cur_;
    *out++ = static_cast<char>(event.kind);
    switch (event.kind) {
      case EventKind::Alloc:
        out = trace::encodeVarint(out, event.addr);
        out = trace::encodeVarint(out, event.size);
        break;
      case EventKind::Free:
        out = trace::encodeVarint(out, event.addr);
        break;
      case EventKind::Realloc:
        out = trace::encodeVarint(out, event.addr);
        out = trace::encodeVarint(out, event.value);
        out = trace::encodeVarint(out, event.size);
        break;
      case EventKind::Write:
        out = trace::encodeVarint(out, event.addr);
        out = trace::encodeVarint(out, event.value);
        break;
      case EventKind::Read:
        out = trace::encodeVarint(out, event.addr);
        break;
      case EventKind::FnEnter:
      case EventKind::FnExit:
        out = trace::encodeVarint(out, event.fn);
        break;
    }
    cur_ = out;
    ++events_;
}

void
TraceWriter::finish()
{
    if (finished_)
        return;
    finished_ = true;
    reserve(1 + trace::kMaxVarintBytes);
    *cur_++ = static_cast<char>(trace::kFooterMarker);
    cur_ = trace::encodeVarint(cur_, registry_.size());
    // By reference: a copy allocates, and inside the capture shim
    // that would count as an allocator op its guard dropped.
    for (const std::string &name : registry_.names()) {
        reserve(trace::kMaxVarintBytes);
        cur_ = trace::encodeVarint(cur_, name.size());
        putBytes(name.data(), name.size());
    }
    drain();
    os_.flush();
}

void
TraceWriter::flush()
{
    drain();
    os_.flush();
    if (options_.syncHook)
        options_.syncHook();
}

void
TraceWriter::finalize()
{
    finish();
    flush();
}

} // namespace heapmd
