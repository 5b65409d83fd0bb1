/**
 * @file
 * Streaming trace recorder.
 */

#ifndef HEAPMD_TRACE_TRACE_WRITER_HH
#define HEAPMD_TRACE_TRACE_WRITER_HH

#include <cstddef>
#include <functional>
#include <ostream>

#include "runtime/process.hh"
#include "trace/trace_format.hh"

namespace heapmd
{

/** Construction-time options of a TraceWriter. */
struct TraceWriterOptions
{
    /**
     * Declare capture provenance in the header: the trace is being
     * recorded live from a real process by the interposition shim,
     * so consumers treat a missing footer as a killed process rather
     * than a corrupt artifact.  Emits a version-2 header.
     */
    bool captureProvenance = false;

    /**
     * Durability hook invoked after every flush(); the live-capture
     * sink uses it to fsync the underlying file descriptor so a
     * crashed or SIGKILL'd child still leaves the flushed prefix on
     * disk.  May be empty.
     */
    std::function<void()> syncHook;
};

/**
 * Records the instrumentation event stream to an ostream in the
 * format of trace_format.hh.  Register it as an EventObserver on the
 * monitored Process; call finish() once the run completes to append
 * the function-name footer.
 *
 * Encoding is the mirror of TraceReader: a flat cursor fills a fixed
 * block held inside the writer, and the stream sees one write() per
 * block.  The block drains at three points only: when the next record
 * might not fit, in flush(), and in finish().  Until then the stream
 * lags the encoded trace by pendingBytes().
 *
 * Durability: flush() pushes the buffered prefix to the stream (and
 * through the options' syncHook, to disk) without terminating the
 * stream -- everything written so far is then a readable, truncated
 * trace.  finalize() is finish() + flush(): the form the live-capture
 * shim registers via atexit so even an _exit()ing child finalizes.
 */
class TraceWriter : public EventObserver
{
  public:
    /**
     * @param os       destination stream (binary); must outlive us.
     * @param registry registry whose names the footer will carry.
     * @param options  provenance flag and durability hook.
     */
    TraceWriter(std::ostream &os, const FunctionRegistry &registry,
                TraceWriterOptions options = {});

    /**
     * Drains the block, so a writer dropped without flush() still
     * leaves its events in the stream; the stream must be alive.
     */
    ~TraceWriter() override;

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one event to the stream. */
    void onEvent(const Event &event, Tick tick) override;

    /**
     * Terminate the event stream and write the function table.
     * Idempotent; no events may be appended afterwards.
     */
    void finish();

    /**
     * Push buffered bytes to the stream and run the durability hook.
     * Safe at any point: the flushed prefix is a readable (truncated
     * but lintable) trace.
     */
    void flush();

    /** finish() + flush(): the atexit-safe terminal operation. */
    void finalize();

    /** Events written so far. */
    std::uint64_t eventCount() const { return events_; }

    /** True once finish()/finalize() wrote the footer. */
    bool finished() const { return finished_; }

    /**
     * Encoded bytes still in the block, not yet handed to the stream.
     * The trace's size is the stream's byte count plus this.
     */
    std::size_t
    pendingBytes() const
    {
        return static_cast<std::size_t>(cur_ - block_);
    }

    /** Size of the encode block; the stream sees writes this large. */
    static constexpr std::size_t kBlockBytes = 4096;

  private:
    /** Longest event record: the tag and three varints. */
    static constexpr std::size_t kMaxEventBytes =
        1 + 3 * trace::kMaxVarintBytes;

    /** Drain the block unless @p bytes more fit behind the cursor. */
    void
    reserve(std::size_t bytes)
    {
        if (static_cast<std::size_t>(block_ + kBlockBytes - cur_) < bytes)
            drain();
    }

    /** Hand the block to the stream in one write and rewind. */
    void drain();

    /** Copy @p size bytes through the cursor, draining as it fills. */
    void putBytes(const char *data, std::size_t size);

    std::ostream &os_;
    const FunctionRegistry &registry_;
    TraceWriterOptions options_;
    std::uint64_t events_ = 0;
    bool finished_ = false;
    char *cur_ = block_;
    char block_[kBlockBytes];
};

} // namespace heapmd

#endif // HEAPMD_TRACE_TRACE_WRITER_HH
