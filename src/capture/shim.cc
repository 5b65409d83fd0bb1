/**
 * @file
 * The allocator-interposition shim: libheapmd_capture.so.
 *
 * Preloaded into a real process (LD_PRELOAD, arranged by `heapmd
 * capture`), it interposes malloc/free/calloc/realloc/aligned_alloc/
 * posix_memalign, mirrors the live-object set, and records the heapmd
 * trace format the offline pipeline already consumes.  Pointer edges
 * -- which the paper recovered by instrumenting stores -- are
 * reconstructed by a periodic conservative scan over the live objects
 * (see live_table.hh and DESIGN.md section 10).
 *
 * Survival rules of an interposer, all load-bearing:
 *  - real entry points come from dlsym(RTLD_NEXT, ...), and glibc's
 *    dlsym itself calls calloc, so allocations made while resolution
 *    is in flight are served from a static bootstrap arena;
 *  - a thread-local guard makes the shim's own bookkeeping
 *    allocations (table arena growth, trace buffers) invisible: any
 *    allocator entry while the guard is up passes straight through to
 *    the real allocator, counted as dropped reentrant;
 *  - one global mutex serializes table + writer access (correct event
 *    order beats parallel recording);
 *  - the trace is finalized via atexit, and periodically
 *    flushed+fsynced at scan points so a killed child still leaves a
 *    readable truncated trace (the capture-provenance header flag
 *    downgrades the missing footer to a lint warning);
 *  - a pthread_atfork child handler and a pid armed in the
 *    environment keep forked children and exec'd grandchildren from
 *    corrupting the parent's trace file.
 */

#include <atomic>
#include <cerrno>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <new>
#include <ostream>

#include <dlfcn.h>
#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include "capture/bootstrap_arena.hh"
#include "capture/capture_env.hh"
#include "capture/fd_stream.hh"
#include "capture/gzip_stream.hh"
#include "capture/live_table.hh"
#include "trace/gzip_source.hh"
#include "capture/stats_sidecar.hh"
#include "obsv/segment.hh"
#include "trace/segment_set.hh"
#include "runtime/call_stack.hh"
#include "runtime/events.hh"
#include "trace/trace_writer.hh"

namespace
{

using heapmd::Event;
using heapmd::FnId;
using heapmd::FunctionRegistry;
using heapmd::TraceWriter;
using heapmd::TraceWriterOptions;
using heapmd::capture::BootstrapArena;
using heapmd::capture::CaptureStreamBuf;
using heapmd::capture::FdStreamBuf;
using heapmd::capture::GzipStreamBuf;
using heapmd::capture::LiveTable;
using heapmd::capture::ScanStats;
using heapmd::obsv::LocalCounter;
using heapmd::obsv::Slot;

namespace obsv = heapmd::obsv;

struct RealAllocFns
{
    void *(*malloc)(std::size_t) = nullptr;
    void (*free)(void *) = nullptr;
    void *(*calloc)(std::size_t, std::size_t) = nullptr;
    void *(*realloc)(void *, std::size_t) = nullptr;
    void *(*aligned_alloc)(std::size_t, std::size_t) = nullptr;
    int (*posix_memalign)(void **, std::size_t, std::size_t) = nullptr;
};

alignas(BootstrapArena::kMinAlign) char g_arena_buffer[1 << 20];
constinit BootstrapArena g_arena(g_arena_buffer,
                                 sizeof(g_arena_buffer));

RealAllocFns g_real;

/** 0 = unresolved, 1 = dlsym in flight, 2 = ready. */
std::atomic<int> g_resolve_state{0};

/**
 * Thread-local flags with initial-exec TLS: the default dynamic TLS
 * model can call malloc from __tls_get_addr on first access, which
 * would recurse straight back into the interposer.
 */
__thread bool t_resolving __attribute__((tls_model("initial-exec")));
__thread bool t_busy __attribute__((tls_model("initial-exec")));

/** Allocator ops that passed through unrecorded (guard was up). */
std::atomic<std::uint64_t> g_dropped{0};

pthread_mutex_t g_mutex = PTHREAD_MUTEX_INITIALIZER;

/** 0 = not decided, 1 = active, 2 = disabled (or finalized). */
std::atomic<int> g_sink_state{0};

/**
 * One trace file being written: fd buffer, stream, encoder.  Under
 * segment rotation the Sink replaces its TraceFile per segment while
 * the registry, live table, and counters live on in the Sink -- the
 * function registry in particular must persist so FnIds stay stable
 * across segments (each segment's footer then carries a superset of
 * its predecessor's table).
 */
struct TraceFile
{
    /**
     * FdStreamBuf, or GzipStreamBuf when compressing.  Declared first
     * so it is destroyed last: the writer drains its block into it
     * on destruction.
     */
    std::unique_ptr<CaptureStreamBuf> buf;
    std::ostream os;
    TraceWriter writer;

    TraceFile(int fd, bool compress, FunctionRegistry &registry,
              std::uint64_t &flushes)
        : buf(makeBuf(fd, compress)),
          os(buf.get()),
          writer(os, registry,
                 TraceWriterOptions{true,
                                    [this, &flushes] {
                                        if (buf != nullptr)
                                            buf->syncToDisk();
                                        ++flushes;
                                    }})
    {
    }

    TraceFile(const TraceFile &) = delete;
    TraceFile &operator=(const TraceFile &) = delete;

    /** False when the buf could not be set up (alloc/zlib failure). */
    bool ok() const { return buf != nullptr && !buf->hadError(); }

    /**
     * Raw trace bytes so far: what the buf accepted plus what the
     * writer still holds in its block.  Rotation and the manifest
     * count this, so segment boundaries do not depend on when the
     * block drains.
     */
    std::uint64_t
    rawBytes() const
    {
        return buf->totalBytes() + writer.pendingBytes();
    }

  private:
    static CaptureStreamBuf *
    makeBuf(int fd, bool compress)
    {
        if (compress) {
            auto *gz = new (std::nothrow) GzipStreamBuf(fd, 1 << 18);
            if (gz != nullptr && !gz->ok()) {
                delete gz; // fd stays open; the caller closes it
                return nullptr;
            }
            return gz;
        }
        return new (std::nothrow) FdStreamBuf(fd, 1 << 18);
    }
};

/** Everything the recording side owns; heap-allocated, never freed. */
struct Sink
{
    FunctionRegistry registry;
    LiveTable table;
    /**
     * Every catalog counter; `counters.slots` is also the staging
     * buffer of the seqlock publishes, so publishing copies nothing.
     */
    heapmd::capture::CounterValues counters;
    /** Active segment; replaced on rotation, null only mid-rotate. */
    TraceFile *file = nullptr;
    /** Configured output path (segment names derive from it). */
    std::string base_path;
    /** Rotation threshold in bytes; 0 = one monolithic trace. */
    std::uint64_t rotate_bytes;
    /** Gzip each segment (".heapmd.gz"); implies rotation. */
    bool compress = false;
    /** Raw trace bytes in *finished* segments. */
    std::uint64_t raw_bytes_done = 0;
    /** On-disk bytes of those finished segments. */
    std::uint64_t compressed_bytes_done = 0;
    /** Index of the active segment (meaningful when rotating). */
    std::uint64_t segment_index = 0;
    std::uint64_t scan_frequency;
    std::uint64_t allocs_since_scan = 0;
    FnId scan_fn;
    std::string stats_path;
    bool log;
    bool finalized = false;
    /** Live stats segment (/dev/shm/heapmd.<pid>); may be invalid. */
    heapmd::obsv::SegmentWriter segment;
    /** Recorded ops since the last gauge publish (throttling). */
    std::uint64_t ops_since_publish = 0;

    Sink(int fd, std::string out, std::uint64_t rotate, bool gz,
         std::uint64_t frq, std::string stats, bool verbose)
        : file(new (std::nothrow)
                   TraceFile(fd, gz, registry, counters[Slot::Flushes])),
          base_path(std::move(out)),
          rotate_bytes(rotate),
          compress(gz),
          scan_frequency(frq),
          scan_fn(registry.intern(
              heapmd::capture::kScanFunctionName)),
          stats_path(std::move(stats)),
          log(verbose)
    {
    }
};

Sink *g_sink = nullptr;

void
shimLog(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

void
shimLog(const char *fmt, ...)
{
    char line[256];
    va_list args;
    va_start(args, fmt);
    const int n = std::vsnprintf(line, sizeof(line), fmt, args);
    va_end(args);
    if (n > 0) {
        ssize_t ignored [[maybe_unused]] =
            ::write(2, line, static_cast<std::size_t>(
                                 n < static_cast<int>(sizeof(line))
                                     ? n
                                     : sizeof(line) - 1));
    }
}

/** Resolve the real allocator entry points exactly once. */
void
ensureResolved()
{
    for (;;) {
        int state = g_resolve_state.load(std::memory_order_acquire);
        if (state == 2)
            return;
        int expected = 0;
        if (g_resolve_state.compare_exchange_strong(
                expected, 1, std::memory_order_acq_rel)) {
            t_resolving = true;
            g_real.malloc = reinterpret_cast<void *(*)(std::size_t)>(
                ::dlsym(RTLD_NEXT, "malloc"));
            g_real.free = reinterpret_cast<void (*)(void *)>(
                ::dlsym(RTLD_NEXT, "free"));
            g_real.calloc =
                reinterpret_cast<void *(*)(std::size_t, std::size_t)>(
                    ::dlsym(RTLD_NEXT, "calloc"));
            g_real.realloc =
                reinterpret_cast<void *(*)(void *, std::size_t)>(
                    ::dlsym(RTLD_NEXT, "realloc"));
            g_real.aligned_alloc =
                reinterpret_cast<void *(*)(std::size_t, std::size_t)>(
                    ::dlsym(RTLD_NEXT, "aligned_alloc"));
            g_real.posix_memalign = reinterpret_cast<int (*)(
                void **, std::size_t, std::size_t)>(
                ::dlsym(RTLD_NEXT, "posix_memalign"));
            t_resolving = false;
            g_resolve_state.store(2, std::memory_order_release);
            return;
        }
        // Another thread is resolving; its dlsym calls are short.
        ::sched_yield();
    }
}

void finalizeLocked(Sink &sink);

void
finalizeAtExit()
{
    // A forked child that exits via exit() runs this inherited
    // handler: onForkChild disabled the sink, and the mutex was
    // cloned in an unknown (possibly locked) state, so the disabled
    // check must come before the lock -- locking could deadlock, and
    // finalizing would write into the trace fd shared with the
    // parent.  The same check makes a second explicit finalize a
    // no-op without taking the lock.
    if (g_sink_state.load(std::memory_order_acquire) == 2)
        return;
    t_busy = true;
    ::pthread_mutex_lock(&g_mutex);
    if (g_sink != nullptr)
        finalizeLocked(*g_sink);
    ::pthread_mutex_unlock(&g_mutex);
    t_busy = false;
}

void
onForkChild()
{
    // The trace fd is shared with the parent: any write from the
    // child corrupts the parent's stream.  Go dark; the mutex was
    // cloned in an unknown state, so do not touch it either (the
    // disabled check precedes every lock acquisition).  The writer's
    // block, a copy of the parent's undrained bytes, is never drained
    // here: the sink is never freed, and state 2 keeps every flush,
    // rotation and finalize away from it.
    g_sink_state.store(2, std::memory_order_release);
}

/**
 * Refresh the advisory segment manifest (tmp + rename).  No-op for a
 * monolithic capture; failure is tolerated -- readers fall back to
 * directory listing and pid liveness.
 */
void
writeManifestLocked(Sink &sink, bool closed)
{
    if (sink.rotate_bytes == 0)
        return;
    heapmd::trace::SegmentManifest manifest;
    manifest.pid = static_cast<std::uint32_t>(::getpid());
    manifest.rotateBytes = sink.rotate_bytes;
    manifest.segments = sink.segment_index + 1;
    manifest.closed = closed;
    manifest.compress = sink.compress;
    manifest.rawBytes = sink.raw_bytes_done;
    manifest.compressedBytes = sink.compressed_bytes_done;
    if (sink.file != nullptr && sink.file->buf != nullptr) {
        manifest.rawBytes += sink.file->rawBytes();
        manifest.compressedBytes += sink.file->buf->bytesWritten();
    }
    heapmd::trace::saveSegmentManifest(
        heapmd::trace::segmentManifestPath(sink.base_path), manifest);
}

/** Build the sink on first recorded operation; may disable capture. */
Sink *
sinkLocked()
{
    const int state = g_sink_state.load(std::memory_order_relaxed);
    if (state == 1)
        return g_sink->finalized ? nullptr : g_sink;
    if (state == 2)
        return nullptr;

    g_sink_state.store(2, std::memory_order_relaxed); // until proven
    const char *out = ::getenv(heapmd::capture::kEnvOut);
    if (out == nullptr || *out == '\0')
        return nullptr; // preloaded without a capture armed
    const bool verbose = [] {
        const char *log = ::getenv(heapmd::capture::kEnvLog);
        return log != nullptr && log[0] == '1';
    }();
    const char *pid_env = ::getenv(heapmd::capture::kEnvPid);
    if (pid_env != nullptr && *pid_env != '\0') {
        const std::uint64_t armed =
            heapmd::capture::envToU64(pid_env, 0);
        if (armed != static_cast<std::uint64_t>(::getpid())) {
            if (verbose)
                shimLog("[heapmd-capture] pid %d not armed (%s); "
                        "capture stays off\n",
                        static_cast<int>(::getpid()), pid_env);
            return nullptr;
        }
    }

    // With rotation armed the first file is segment 000000; without
    // it, the classic monolithic trace at the configured path.
    const std::uint64_t rotate = heapmd::capture::envToU64(
        ::getenv(heapmd::capture::kEnvRotateBytes), 0);
    bool compress = [] {
        const char *v = ::getenv(heapmd::capture::kEnvCompress);
        return v != nullptr && v[0] == '1';
    }();
    if (compress && rotate == 0) {
        if (verbose)
            shimLog("[heapmd-capture] compression needs rotation "
                    "(HEAPMD_CAPTURE_ROTATE_BYTES); recording "
                    "uncompressed\n");
        compress = false;
    }
    if (compress && !heapmd::trace::gzipSupported()) {
        shimLog("[heapmd-capture] built without zlib; recording "
                "uncompressed segments\n");
        compress = false;
    }
    const std::string trace_path =
        rotate > 0 ? heapmd::trace::segmentPath(out, 0, compress)
                   : std::string(out);

    const int fd = ::open(trace_path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                          0644);
    if (fd < 0) {
        shimLog("[heapmd-capture] cannot open trace '%s': %s\n",
                trace_path.c_str(), std::strerror(errno));
        return nullptr;
    }

    const std::uint64_t frq = heapmd::capture::envToU64(
        ::getenv(heapmd::capture::kEnvFrq),
        heapmd::capture::kDefaultScanFrequency);
    const char *stats_env =
        ::getenv(heapmd::capture::kEnvStatsOut);
    std::string stats_path =
        (stats_env != nullptr && *stats_env != '\0')
            ? std::string(stats_env)
            : heapmd::capture::defaultStatsPath(out);

    g_sink = new (std::nothrow) Sink(fd, out, rotate, compress, frq,
                                     std::move(stats_path), verbose);
    if (g_sink == nullptr) {
        ::close(fd);
        return nullptr;
    }
    if (g_sink->file == nullptr || !g_sink->file->ok()) {
        delete g_sink->file;
        g_sink->file = nullptr;
        delete g_sink;
        g_sink = nullptr;
        ::close(fd);
        return nullptr;
    }
    std::atexit(finalizeAtExit);
    ::pthread_atfork(nullptr, nullptr, onForkChild);
    // Live stats segment for `heapmd top` / `stats` / `export`.
    // Failure just means running dark -- capture itself is unharmed.
    char comm[64] = {0};
    const int comm_fd = ::open("/proc/self/comm", O_RDONLY | O_CLOEXEC);
    if (comm_fd >= 0) {
        const ssize_t n = ::read(comm_fd, comm, sizeof comm - 1);
        ::close(comm_fd);
        if (n > 0)
            comm[comm[n - 1] == '\n' ? n - 1 : n] = '\0';
        else
            comm[0] = '\0';
    }
    g_sink->segment.create(static_cast<std::uint32_t>(::getpid()),
                           comm);
    // Push the header to disk immediately: a child that _exit()s (or
    // is killed) before the first scan point must still leave a
    // readable, truncated trace rather than an empty file.
    g_sink->file->writer.flush();
    writeManifestLocked(*g_sink, false);
    g_sink_state.store(1, std::memory_order_release);
    if (verbose)
        shimLog("[heapmd-capture] recording pid %d to '%s' "
                "(scan frq %llu)\n",
                static_cast<int>(::getpid()), out,
                static_cast<unsigned long long>(frq));
    return g_sink;
}

void
writeEvent(Sink &sink, const Event &event)
{
    sink.file->writer.onEvent(event, 0);
    ++sink.counters[Slot::EventsEmitted];
}

/**
 * Stamp the counters that settle only when recording ends -- the
 * guard's drops, the bootstrap arena's use, the byte totals of the
 * finished segments -- and write the counter sidecar.
 */
void
writeSidecarLocked(Sink &sink)
{
    sink.counters[Slot::DroppedReentrant] =
        g_dropped.load(std::memory_order_relaxed);
    sink.counters[LocalCounter::BootstrapBytes] = g_arena.bytesUsed();
    sink.counters[LocalCounter::BootstrapAllocs] =
        g_arena.allocationCount();
    sink.counters[LocalCounter::TraceRawBytes] = sink.raw_bytes_done;
    sink.counters[LocalCounter::TraceCompressedBytes] =
        sink.compressed_bytes_done;
    std::ofstream stats(sink.stats_path, std::ios::trunc);
    if (stats)
        heapmd::capture::writeStatsSidecar(stats, sink.counters);
}

/**
 * Stop recording mid-run (segment I/O failure): persist the counter
 * sidecar and close out the manifest so readers stop waiting, keep
 * every finished segment on disk, and go dark.
 */
void
goDarkLocked(Sink &sink)
{
    sink.finalized = true;
    writeSidecarLocked(sink);
    writeManifestLocked(sink, true);
    sink.segment.unlinkAndClose();
    g_sink_state.store(2, std::memory_order_release);
}

/**
 * Close out the active segment and open its successor.
 *
 * Ordering is the reader's whole contract: the old segment gets its
 * footer, fsync, and close *before* the successor file is created, so
 * "segment N+1 exists" proves segment N is complete and only the
 * newest segment can ever be truncated by a crash.
 */
void
rotateLocked(Sink &sink)
{
    sink.file->writer.finalize();
    sink.file->buf->closeFd();
    // Fold the finished segment into the set-wide byte totals the
    // manifest advertises (equal values when not compressing).
    sink.raw_bytes_done += sink.file->rawBytes();
    sink.compressed_bytes_done += sink.file->buf->bytesWritten();
    delete sink.file;
    sink.file = nullptr;
    ++sink.counters[LocalCounter::SegmentsRotated];

    const std::uint64_t next_index = sink.segment_index + 1;
    const std::string next_path = heapmd::trace::segmentPath(
        sink.base_path, next_index, sink.compress);
    const int fd = ::open(next_path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                          0644);
    TraceFile *file =
        fd >= 0 ? new (std::nothrow)
                      TraceFile(fd, sink.compress, sink.registry,
                                sink.counters[Slot::Flushes])
                : nullptr;
    if (file != nullptr && !file->ok()) {
        delete file;
        file = nullptr;
    }
    if (file == nullptr) {
        if (fd >= 0)
            ::close(fd);
        shimLog("[heapmd-capture] cannot open segment '%s': %s; "
                "capture stops after %llu finished segment(s)\n",
                next_path.c_str(), std::strerror(errno),
                static_cast<unsigned long long>(
                    sink.counters[LocalCounter::SegmentsRotated]));
        goDarkLocked(sink);
        return;
    }
    sink.file = file;
    sink.segment_index = next_index;
    // Durable header before any event, same as the first segment.
    sink.file->writer.flush();
    writeManifestLocked(sink, false);
    if (sink.log)
        shimLog("[heapmd-capture] rotated to segment %llu ('%s')\n",
                static_cast<unsigned long long>(next_index),
                next_path.c_str());
}

/**
 * Rotate when the active segment has reached the threshold.  Called
 * only *after* an allocator operation is fully recorded (and after
 * any scan pass the op triggered), so no event record -- and no scan
 * marker pair -- is ever split across a segment boundary.
 */
void
maybeRotateLocked(Sink &sink)
{
    if (sink.rotate_bytes == 0 || sink.finalized)
        return;
    if (sink.file->rawBytes() < sink.rotate_bytes)
        return;
    rotateLocked(sink);
}

/** CLOCK_MONOTONIC nanos for scan timing (0 if the clock fails). */
std::uint64_t
nowNanos()
{
    struct timespec ts;
    if (::clock_gettime(CLOCK_MONOTONIC, &ts) != 0)
        return 0;
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

// The allocator hot path publishes only the gauge/event prefix of
// the slot array.
constexpr std::size_t kOpPublishSlots =
    obsv::slotIndex(Slot::EventsEmitted) + 1;

/**
 * Gauge publishes happen at most once per this many recorded ops.
 * An unthrottled publish (a heartbeat clock read plus ~10 atomic
 * stores, ~50ns) costs 10-15% of an allocation-dominated capture;
 * at 1/32 it is under 1% of capture wall time (`obsv.publish` in the
 * capture step's shim_detail, BENCH_pipeline.json), and a slow
 * allocator (one op per 50ms) still refreshes the heartbeat every
 * ~1.6s -- well inside `top`'s 5s staleness window.  Scan-time
 * publishes are never throttled.
 */
constexpr std::uint64_t kOpPublishPeriod = 32;

/** Copy the live table's three gauges into their slots. */
void
refreshGaugesLocked(Sink &sink)
{
    sink.counters[Slot::LiveObjects] = sink.table.objectCount();
    sink.counters[Slot::LiveBytes] = sink.table.liveBytes();
    sink.counters[Slot::LiveEdges] = sink.table.edgeCount();
}

/**
 * Light per-operation publish: refresh the live gauges, then publish
 * them and the event counters (first kOpPublishSlots slots) plus the
 * heartbeat, under one seqlock write.  Allocation-free; called with
 * the shim mutex held after every recorded allocator op so `heapmd
 * top` tracks the heap between scans (throttled to every
 * kOpPublishPeriod'th op).
 */
void
publishOpLocked(Sink &sink)
{
    if (!sink.segment.valid())
        return;
    if (++sink.ops_since_publish < kOpPublishPeriod)
        return;
    sink.ops_since_publish = 0;
    ++sink.counters[LocalCounter::SegmentPublishes];
    refreshGaugesLocked(sink);
    sink.segment.publishPrefix(sink.counters.slots.data(),
                               kOpPublishSlots);
}

/**
 * Full scan-time publish: every slot, with the degree-metric
 * percentages from a fresh census.  The census allocates only when
 * the table has outgrown its counters (the caller holds the
 * reentrancy guard, so those allocations pass through unrecorded);
 * the publish itself is one seqlock write of the counters' slots.
 */
void
publishScanLocked(Sink &sink)
{
    if (!sink.segment.valid())
        return;
    sink.ops_since_publish = 0; // a full publish just refreshed all
    ++sink.counters[LocalCounter::SegmentPublishes];
    refreshGaugesLocked(sink);
    sink.counters[Slot::DroppedReentrant] =
        g_dropped.load(std::memory_order_relaxed);
    sink.counters[Slot::MetricPoints] = sink.counters[Slot::ScanPasses];
    const heapmd::capture::DegreeCensus census =
        sink.table.degreeCensus();
    for (const heapmd::MetricId id : heapmd::kAllMetrics)
        sink.counters.slots[obsv::metricSlotIndex(id)] =
            static_cast<std::uint64_t>(
                census.percent[heapmd::metricIndex(id)] *
                    static_cast<double>(obsv::kMetricScale) +
                0.5);
    sink.segment.publish(sink.counters.slots);
}

/**
 * Drop live-table entries whose memory is no longer mapped.
 *
 * The allocator entry points call the real allocator before taking
 * the lock, so a pointer freed by another thread in that window is
 * recorded as live with no Free ever pairing it.  For large chunks
 * glibc munmaps on free, and a conservative scan dereferencing the
 * stale range would fault; the table's residency sweep asks mincore
 * "still mapped?" once per contiguous page run, without touching the
 * memory.  Each dead extent gets the Free the race swallowed,
 * keeping the trace alloc/free-paired.  (Stale entries
 * over still-mapped heap pages are safe to read -- conservative
 * scanning tolerates garbage -- and are repaired by
 * reclaimOverlapLocked when the range is recycled.)
 */
void
reclaimUnmappedLocked(Sink &sink)
{
    for (const std::uintptr_t addr : sink.table.unmappedExtents()) {
        writeEvent(sink, Event::free(addr));
        ++sink.counters[Slot::FreeEvents];
        ++sink.counters[Slot::ScanReclaimedDead];
        sink.table.erase(addr);
    }
}

/** One conservative pass: edge delta, scan marker, durability point. */
void
scanLocked(Sink &sink)
{
    const std::uint64_t scan_start = nowNanos();
    reclaimUnmappedLocked(sink);
    const ScanStats stats = sink.table.scan(
        [&sink](std::uintptr_t slot, std::uintptr_t value) {
            writeEvent(sink, Event::write(slot, value));
        });
    ++sink.counters[Slot::ScanPasses];
    sink.counters[Slot::ScanWords] += stats.wordsScanned;
    sink.counters[Slot::ScanEdgeWrites] += stats.writesEmitted;
    sink.counters[Slot::ScanEdgeClears] += stats.clearsEmitted;

    // The marker pair makes the replayed Process take one metric
    // sample here (FnEnter is the sampling trigger), after the edge
    // delta so the sample sees the refreshed graph.
    writeEvent(sink, Event::fnEnter(sink.scan_fn));
    writeEvent(sink, Event::fnExit(sink.scan_fn));
    sink.file->writer.flush(); // + fsync via the sync hook
    sink.counters[Slot::ScanNanos] += nowNanos() - scan_start;
    publishScanLocked(sink); // counters + fresh degree metrics
}

void
maybeScanLocked(Sink &sink)
{
    if (++sink.allocs_since_scan < sink.scan_frequency)
        return;
    sink.allocs_since_scan = 0;
    scanLocked(sink);
}

/**
 * Emit Free for stale objects overlapping a range the allocator just
 * handed out: their frees were missed (dropped under the guard), and
 * the trace must stay overlap-clean for the audit.
 */
void
reclaimOverlapLocked(Sink &sink, std::uintptr_t addr,
                     std::size_t size, std::uintptr_t exclude)
{
    for (const std::uintptr_t start :
         sink.table.overlapping(addr, size, exclude)) {
        writeEvent(sink, Event::free(start));
        ++sink.counters[Slot::FreeEvents];
        sink.table.erase(start);
    }
}

void
finalizeLocked(Sink &sink)
{
    if (sink.finalized)
        return;
    sink.finalized = true;

    scanLocked(sink); // final edge refresh + end-state sample point
    sink.file->writer.finalize();
    sink.file->buf->closeFd();
    sink.raw_bytes_done += sink.file->rawBytes();
    sink.compressed_bytes_done += sink.file->buf->bytesWritten();
    // Before the file is freed: the guard drops those frees, and
    // dropped_reentrant counts only what recording missed.
    writeSidecarLocked(sink);
    delete sink.file;
    sink.file = nullptr;
    writeManifestLocked(sink, true); // closed: readers stop waiting

    // Retire the live stats segment with the process.  Only this
    // normal-finalize path unlinks: a forked child goes dark through
    // onForkChild (state 2) and must never tear the segment down
    // under the parent, and a SIGKILLed process leaves the entry for
    // the host-side reap (`heapmd capture` harvest or `top --reap`).
    sink.segment.unlinkAndClose();

    g_sink_state.store(2, std::memory_order_release);
    if (sink.log)
        shimLog("[heapmd-capture] finalized: %llu events, "
                "%llu scan passes, %llu dropped reentrant\n",
                static_cast<unsigned long long>(
                    sink.counters[Slot::EventsEmitted]),
                static_cast<unsigned long long>(
                    sink.counters[Slot::ScanPasses]),
                static_cast<unsigned long long>(
                    sink.counters[Slot::DroppedReentrant]));
}

/** True when the calling thread should try to record this op. */
bool
captureArmed()
{
    return g_sink_state.load(std::memory_order_acquire) != 2;
}

void
recordAlloc(void *ptr, std::size_t size)
{
    if (ptr == nullptr)
        return;
    if (!captureArmed())
        return;
    if (t_busy) {
        g_dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    t_busy = true;
    ::pthread_mutex_lock(&g_mutex);
    if (Sink *sink = sinkLocked()) {
        const auto addr = reinterpret_cast<std::uintptr_t>(ptr);
        const std::uint64_t recorded =
            size > 0 ? size : 1; // malloc(0) returns a unique extent
        reclaimOverlapLocked(*sink, addr, recorded, 0);
        sink->table.insert(addr, recorded);
        if (sink->table.objectCount() >
            sink->counters[Slot::PeakLiveObjects])
            sink->counters[Slot::PeakLiveObjects] =
                sink->table.objectCount();
        writeEvent(*sink, Event::alloc(addr, recorded));
        ++sink->counters[Slot::AllocEvents];
        maybeScanLocked(*sink);
        maybeRotateLocked(*sink);
        publishOpLocked(*sink);
    }
    ::pthread_mutex_unlock(&g_mutex);
    t_busy = false;
}

/** Record the free of @p ptr; returns with the table entry gone. */
void
recordFree(void *ptr)
{
    if (ptr == nullptr || !captureArmed())
        return;
    if (t_busy) {
        g_dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    t_busy = true;
    ::pthread_mutex_lock(&g_mutex);
    if (Sink *sink = sinkLocked()) {
        const auto addr = reinterpret_cast<std::uintptr_t>(ptr);
        // Only extents we recorded may emit Free: anything else
        // (pre-capture or guard-dropped allocations) would lint as
        // trace.free-before-alloc.
        if (sink->table.erase(addr) != 0) {
            writeEvent(*sink, Event::free(addr));
            ++sink->counters[Slot::FreeEvents];
            maybeRotateLocked(*sink);
            publishOpLocked(*sink);
        }
    }
    ::pthread_mutex_unlock(&g_mutex);
    t_busy = false;
}

/**
 * Largest safe memcpy length out of @p ptr for a realloc of @p size
 * bytes.  The bootstrap arena stores no per-block sizes, so copies
 * out of an arena block are clamped to the bytes the arena has
 * actually handed out past @p ptr -- over-copying stale neighbour
 * bytes is harmless, reading past the static buffer is not.
 */
std::size_t
arenaCopyLimit(const void *ptr, std::size_t size)
{
    if (!g_arena.contains(ptr))
        return size;
    const std::size_t avail = g_arena.bytesBeyond(ptr);
    return size < avail ? size : avail;
}

} // namespace

extern "C"
{

void *
malloc(std::size_t size)
{
    if (g_resolve_state.load(std::memory_order_acquire) != 2) {
        if (t_resolving)
            return g_arena.allocate(size);
        ensureResolved();
    }
    void *ptr = g_real.malloc(size);
    recordAlloc(ptr, size);
    return ptr;
}

void *
calloc(std::size_t count, std::size_t size)
{
    if (g_resolve_state.load(std::memory_order_acquire) != 2) {
        // dlsym's own calloc lands here; arena memory is static and
        // therefore already zeroed.  Real calloc rejects count*size
        // overflow, so the arena path must too.
        if (t_resolving) {
            if (count != 0 && size > SIZE_MAX / count)
                return nullptr;
            return g_arena.allocate(count * size);
        }
        ensureResolved();
    }
    void *ptr = g_real.calloc(count, size);
    recordAlloc(ptr, count * size);
    return ptr;
}

void
free(void *ptr)
{
    if (ptr == nullptr)
        return;
    if (g_arena.contains(ptr))
        return; // bootstrap allocations are never reclaimed
    if (g_resolve_state.load(std::memory_order_acquire) != 2) {
        if (t_resolving)
            return; // cannot reach the real free yet; leak it
        ensureResolved();
    }
    // Record first: once the real free runs, another thread may be
    // handed this address and record its Alloc, which must sort
    // after our Free in the trace.
    recordFree(ptr);
    g_real.free(ptr);
}

void *
realloc(void *ptr, std::size_t size)
{
    if (g_resolve_state.load(std::memory_order_acquire) != 2) {
        if (t_resolving) {
            // Arena block with unknown size: realloc within the arena
            // by over-copying up to the bytes the arena has handed
            // out past ptr (worst case stale neighbour bytes, never a
            // read past the static buffer).
            void *fresh = g_arena.allocate(size);
            if (fresh != nullptr && ptr != nullptr)
                std::memcpy(fresh, ptr, arenaCopyLimit(ptr, size));
            return fresh;
        }
        ensureResolved();
    }
    if (ptr != nullptr && g_arena.contains(ptr)) {
        void *fresh = malloc(size);
        if (fresh != nullptr)
            std::memcpy(fresh, ptr,
                        arenaCopyLimit(ptr, size)); // see arena note
        return fresh;
    }
    if (!captureArmed() || t_busy) {
        if (captureArmed())
            g_dropped.fetch_add(1, std::memory_order_relaxed);
        return g_real.realloc(ptr, size);
    }

    // Unlike malloc, the real call runs under the lock: it can free
    // the old extent, and a concurrent allocation reusing that range
    // must not get its Alloc recorded before our Realloc.
    t_busy = true;
    ::pthread_mutex_lock(&g_mutex);
    void *fresh = g_real.realloc(ptr, size);
    if (Sink *sink = sinkLocked()) {
        const auto old_addr = reinterpret_cast<std::uintptr_t>(ptr);
        const auto new_addr = reinterpret_cast<std::uintptr_t>(fresh);
        const std::uint64_t recorded = size > 0 ? size : 1;
        const bool old_tracked =
            ptr != nullptr && sink->table.contains(old_addr);
        if (ptr == nullptr) {
            // Pure allocation.
            if (fresh != nullptr) {
                reclaimOverlapLocked(*sink, new_addr, recorded, 0);
                sink->table.insert(new_addr, recorded);
                writeEvent(*sink, Event::alloc(new_addr, recorded));
                ++sink->counters[Slot::AllocEvents];
                maybeScanLocked(*sink);
            }
        } else if (size == 0) {
            // Pure free (C23 made this undefined; glibc frees).
            if (old_tracked) {
                sink->table.erase(old_addr);
                writeEvent(*sink, Event::free(old_addr));
                ++sink->counters[Slot::FreeEvents];
            }
        } else if (fresh != nullptr) {
            if (!old_tracked) {
                // The old extent predates capture; record the result
                // as a plain allocation.
                reclaimOverlapLocked(*sink, new_addr, recorded, 0);
                sink->table.insert(new_addr, recorded);
                writeEvent(*sink, Event::alloc(new_addr, recorded));
                ++sink->counters[Slot::AllocEvents];
            } else {
                // Moved or not, the table keeps the out-edges replay
                // keeps, so a copied slot overwritten before the next
                // scan still gets its Write(slot, 0).
                reclaimOverlapLocked(*sink, new_addr, recorded,
                                     old_addr);
                sink->table.reallocate(old_addr, new_addr, recorded);
                writeEvent(*sink, Event::realloc(old_addr, new_addr,
                                                 recorded));
                ++sink->counters[Slot::ReallocEvents];
            }
            maybeScanLocked(*sink);
        }
        if (sink->table.objectCount() >
            sink->counters[Slot::PeakLiveObjects])
            sink->counters[Slot::PeakLiveObjects] =
                sink->table.objectCount();
        maybeRotateLocked(*sink);
        publishOpLocked(*sink);
    }
    ::pthread_mutex_unlock(&g_mutex);
    t_busy = false;
    return fresh;
}

void *
aligned_alloc(std::size_t alignment, std::size_t size)
{
    if (g_resolve_state.load(std::memory_order_acquire) != 2) {
        if (t_resolving)
            return g_arena.allocate(size, alignment);
        ensureResolved();
    }
    void *ptr = g_real.aligned_alloc(alignment, size);
    recordAlloc(ptr, size);
    return ptr;
}

int
posix_memalign(void **out, std::size_t alignment, std::size_t size)
{
    if (g_resolve_state.load(std::memory_order_acquire) != 2) {
        if (t_resolving) {
            void *ptr = g_arena.allocate(size, alignment);
            if (ptr == nullptr)
                return ENOMEM;
            *out = ptr;
            return 0;
        }
        ensureResolved();
    }
    const int rc = g_real.posix_memalign(out, alignment, size);
    if (rc == 0)
        recordAlloc(*out, size);
    return rc;
}

/**
 * Finalize the capture now (flush, footer, sidecar).  Exported for
 * monitored programs that terminate via paths atexit cannot observe
 * (_exit, exec); `heapmd capture` itself relies on atexit.
 */
void
heapmd_capture_finalize(void)
{
    finalizeAtExit();
}

} // extern "C"
