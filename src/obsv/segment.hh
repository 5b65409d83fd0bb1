/**
 * @file
 * Writer/reader endpoints of the shared-memory stats segment.
 *
 * SegmentWriter lives inside the capture shim: after create() it is
 * allocation-free — publish() is a seqlock write of pre-gathered
 * values plus a heartbeat stamp, safe to call from allocator
 * interposers (under the shim's own serialisation; the protocol is
 * single-writer).  SegmentReader lives in the CLI: it attaches to a
 * live process's segment read-only and copies consistent snapshots
 * without ever blocking the writer.
 *
 * Enumeration helpers scan /dev/shm for `heapmd.<pid>` entries so
 * `heapmd top --all` and the Prometheus exporter can discover every
 * captured process on the host, and reap the segments of dead pids
 * (SIGKILL skips the shim's atexit unlink).
 */

#ifndef HEAPMD_OBSV_SEGMENT_HH
#define HEAPMD_OBSV_SEGMENT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obsv/shm_layout.hh"

namespace heapmd
{
namespace obsv
{

/** CLOCK_MONOTONIC now, in milliseconds (0 if the clock fails). */
std::uint64_t monotonicMs();

/** shm name ("/heapmd.<pid>") for @p pid into @p out (>= 32 bytes). */
void segmentName(std::uint32_t pid, char *out, std::size_t out_len);

/**
 * Shim-side endpoint.  create() may allocate (it runs during shim
 * init, before interposition is hot); everything after it is
 * async-signal-tame: no allocation, no syscalls beyond the mapped
 * stores.
 */
class SegmentWriter
{
  public:
    SegmentWriter() = default;
    SegmentWriter(const SegmentWriter &) = delete;
    SegmentWriter &operator=(const SegmentWriter &) = delete;
    ~SegmentWriter();

    /**
     * Create and map "/heapmd.<pid>", stamping identity from
     * @p program (truncated to 63 chars).  Returns false (and stays
     * invalid) if shm is unavailable; the shim then just runs dark.
     */
    bool create(std::uint32_t pid, const char *program);

    bool valid() const { return header_ != nullptr; }

    /**
     * Publish all @p values under one seqlock write section and
     * refresh the heartbeat.  Slots not being published this round
     * should carry their previous value (the writer owns them all).
     */
    void publish(const std::array<std::uint64_t, kSlotCount> &values);

    /**
     * Cheap partial publish for allocator hot paths: updates the
     * first @p count slots only (the gauge/counter prefix), still
     * under the seqlock so readers never see a half-applied batch.
     */
    void publishPrefix(const std::uint64_t *values, std::size_t count);

    /** Unmap and shm_unlink: the normal finalize/atexit path. */
    void unlinkAndClose();

  private:
    SegmentHeader *header_ = nullptr;
    char name_[32] = {0};
};

/** One consistent copy of a segment, plus its identity fields. */
struct SegmentSnapshot
{
    std::uint32_t pid = 0;
    std::uint32_t layoutVersion = 0;
    std::string program;
    std::uint64_t startMonoMs = 0;
    std::uint64_t heartbeatMonoMs = 0;
    std::array<std::uint64_t, kSlotCount> values{};

    std::uint64_t value(Slot s) const { return values[slotIndex(s)]; }

    /** True once the shim has published at least one scan's metrics. */
    bool hasMetrics() const
    {
        return values[metricSlotIndex(MetricId::Roots)] != kMetricAbsent;
    }

    /** Degree-metric percentage (0..100); 0 when absent. */
    double metricPercent(MetricId id) const
    {
        const std::uint64_t raw = values[metricSlotIndex(id)];
        return raw == kMetricAbsent
                   ? 0.0
                   : static_cast<double>(raw) /
                         static_cast<double>(kMetricScale);
    }

    /** Milliseconds since the writer's last publish, given mono now. */
    std::uint64_t staleMs(std::uint64_t now_mono_ms) const
    {
        return now_mono_ms > heartbeatMonoMs
                   ? now_mono_ms - heartbeatMonoMs
                   : 0;
    }
};

/** CLI-side endpoint: attach read-only, copy snapshots via seqlock. */
class SegmentReader
{
  public:
    SegmentReader() = default;
    SegmentReader(const SegmentReader &) = delete;
    SegmentReader &operator=(const SegmentReader &) = delete;
    ~SegmentReader();

    /** Attach to the segment of @p pid; false + @p error on failure. */
    bool attachPid(std::uint32_t pid, std::string *error);

    /** Attach by raw shm name (tests / future fleet tooling). */
    bool attachName(const std::string &shm_name, std::string *error);

    bool valid() const { return header_ != nullptr; }

    /**
     * Copy one consistent snapshot.  Retries the seqlock a bounded
     * number of times; fails (false + @p error) on version skew, a
     * missing magic, or a writer that never quiesces.
     */
    bool read(SegmentSnapshot &out, std::string *error) const;

    void close();

  private:
    const SegmentHeader *header_ = nullptr;
};

/** Pids with a "/heapmd.<pid>" segment in /dev/shm, ascending. */
std::vector<std::uint32_t> listSegmentPids();

/** True if @p pid exists (kill(pid, 0) semantics; EPERM counts). */
bool pidAlive(std::uint32_t pid);

/** Unlink @p pid's segment; true if an entry was removed. */
bool unlinkSegmentForPid(std::uint32_t pid);

/** Segments whose writers are gone, removed; survivors, kept. */
struct ReapResult
{
    std::vector<std::uint32_t> reaped;
    std::vector<std::uint32_t> alive;
};

/**
 * Garbage-collect the segments of dead pids among @p pids; by
 * default every segment in /dev/shm (`heapmd top --reap`).
 */
ReapResult
reapDeadSegments(const std::vector<std::uint32_t> &pids =
                     listSegmentPids());

} // namespace obsv
} // namespace heapmd

#endif // HEAPMD_OBSV_SEGMENT_HH
