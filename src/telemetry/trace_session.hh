/**
 * @file
 * Chrome trace-event recording: scoped spans, instants, and counter
 * tracks serialized to the JSON format understood by Perfetto
 * (https://ui.perfetto.dev) and chrome://tracing.
 *
 * One process-wide session: start() opens it, instrumentation sites
 * append events to an in-memory buffer while active() is true, and
 * stop() serializes everything to the output file.  The active() gate
 * is a single relaxed atomic load, so dormant instrumentation costs a
 * predictable branch.  Instrument through the macros in
 * telemetry/telemetry.hh.
 */

#ifndef HEAPMD_TELEMETRY_TRACE_SESSION_HH
#define HEAPMD_TELEMETRY_TRACE_SESSION_HH

#include <cstdint>
#include <string>

namespace heapmd
{
namespace telemetry
{

/**
 * The process-wide trace recorder (all-static interface).
 *
 * Event names are copied, so callers may pass temporaries.  The
 * buffer is bounded (kMaxEvents); once full, further events are
 * dropped and counted, and stop() reports the loss.
 */
class TraceSession
{
  public:
    /** Buffer bound: ~1M events, a few hundred MB of JSON at most. */
    static constexpr std::size_t kMaxEvents = 1u << 20;

    /**
     * Open a session writing to @p path on stop().
     * @return false (and log a warning) when a session is already
     *         active or the file cannot be created.
     */
    static bool start(const std::string &path);

    /** True while a session is recording. */
    static bool active();

    /**
     * Serialize the buffered events to the output file and close the
     * session.  No-op when inactive.
     * @return number of events written.
     */
    static std::uint64_t stop();

    /** Microseconds since session start (0 when inactive). */
    static std::uint64_t nowMicros();

    /** Complete span (ph "X") covering [start_us, end_us]. */
    static void complete(const std::string &name,
                         const std::string &category,
                         std::uint64_t start_us, std::uint64_t end_us);

    /** Instant event (ph "i"). */
    static void instant(const std::string &name,
                        const std::string &category);

    /** Counter-track sample (ph "C"). */
    static void counter(const std::string &name, double value);

    /** Events currently buffered (tests, progress reporting). */
    static std::uint64_t eventCount();

    /** Events dropped because the buffer was full. */
    static std::uint64_t droppedCount();

    /** Output path of the active session ("" when inactive). */
    static std::string outputPath();
};

/**
 * RAII span: records a complete event covering the enclosing scope.
 * Armed only when a session is active at construction; a session that
 * stops mid-scope drops the span rather than emitting a torn one.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(std::string name,
                        std::string category = "heapmd")
        : armed_(TraceSession::active())
    {
        if (armed_) {
            name_ = std::move(name);
            category_ = std::move(category);
            start_ = TraceSession::nowMicros();
        }
    }

    ~ScopedSpan()
    {
        if (armed_ && TraceSession::active()) {
            TraceSession::complete(name_, category_, start_,
                                   TraceSession::nowMicros());
        }
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    bool armed_;
    std::uint64_t start_ = 0;
    std::string name_;
    std::string category_;
};

} // namespace telemetry
} // namespace heapmd

#endif // HEAPMD_TELEMETRY_TRACE_SESSION_HH
