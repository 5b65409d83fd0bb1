/**
 * @file
 * Fixed-layout shared-memory stats segment published by the capture
 * shim and attached read-only by `heapmd top` / `stats` / `export`.
 *
 * One segment per captured process, named `/heapmd.<pid>` under
 * /dev/shm.  The layout is a versioned header followed by a flat
 * array of 64-bit slots guarded by a seqlock: the writer never
 * blocks on readers, readers never stop the writer, and a reader
 * that races a write simply retries.  Every mutable word is a
 * `std::atomic<std::uint64_t>` so individual loads and stores are
 * untearable (and TSan-clean); the seqlock only adds *cross-slot*
 * consistency so a snapshot is a single point in time.
 *
 * Protocol (single writer — the shim publishes under its own mutex):
 *
 *   writer: sequence.fetch_add(1, acq_rel)      // odd = in progress
 *           relaxed stores into slots[]
 *           sequence.fetch_add(1, release)      // even = stable
 *
 *   reader: s1 = sequence.load(acquire); retry if odd
 *           relaxed loads of slots[]
 *           atomic_thread_fence(acquire)
 *           s2 = sequence.load(relaxed); done iff s1 == s2
 *
 * Layout changes must bump kLayoutVersion; readers reject segments
 * with a version they do not know (see SegmentReader::read), so a
 * newer shim never feeds garbage to an older CLI.
 */

#ifndef HEAPMD_OBSV_SHM_LAYOUT_HH
#define HEAPMD_OBSV_SHM_LAYOUT_HH

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "metrics/metric.hh"

namespace heapmd
{
namespace obsv
{

/** "HEAPMDSG" little-endian; first word of every segment. */
inline constexpr std::uint64_t kSegmentMagic = 0x4753444d50414548ull;

/** Bumped on any layout change; readers reject unknown versions. */
inline constexpr std::uint32_t kLayoutVersion = 1;

/** shm_open name prefix; full name is "/heapmd.<pid>". */
inline constexpr const char *kSegmentPrefix = "heapmd.";

/** Fixed-point scale for the metric slots: percent × 1e4. */
inline constexpr std::uint64_t kMetricScale = 10000;

/** Sentinel slot value: no metric sample published yet. */
inline constexpr std::uint64_t kMetricAbsent = ~0ull;

/** How a slot's Prometheus family renders the raw u64. */
enum class Rendering { Integer, NanosAsSeconds };

/**
 * The capture shim's counter catalog, the one declaration of each
 * shim counter.  SLOT(Id, sidecar, family, type, rendering, help) is
 * published in stats-segment slot Slot::Id (rows in slot order) and
 * exported as a Prometheus family; LOCAL(Id, sidecar) is written to
 * the after-exit sidecar only.  `sidecar` is the "capture.*" name in
 * capture/stats_sidecar.hh, or nullptr for a value that only means
 * something live.  DESIGN.md sections 8 and 13 list every name.
 */
#define HEAPMD_SHIM_COUNTERS(SLOT, LOCAL)                              \
    SLOT(LiveObjects, nullptr, "heapmd_live_objects", "gauge",          \
         Integer, "Live heap objects tracked by the capture shim.")     \
    SLOT(LiveBytes, nullptr, "heapmd_live_bytes", "gauge", Integer,     \
         "Bytes in live tracked heap objects.")                         \
    SLOT(LiveEdges, nullptr, "heapmd_live_edges", "gauge", Integer,     \
         "Pointer edges tracked by the conservative scan.")             \
    SLOT(PeakLiveObjects, "capture.peak_live_objects",                  \
         "heapmd_peak_live_objects", "gauge", Integer,                  \
         "High-water mark of live tracked heap objects.")               \
    SLOT(AllocEvents, "capture.alloc_events",                           \
         "heapmd_alloc_events_total", "counter", Integer,               \
         "Allocation events recorded by the shim.")                     \
    SLOT(FreeEvents, "capture.free_events", "heapmd_free_events_total", \
         "counter", Integer, "Free events recorded by the shim.")       \
    SLOT(ReallocEvents, "capture.realloc_events",                       \
         "heapmd_realloc_events_total", "counter", Integer,             \
         "Realloc events recorded by the shim.")                        \
    SLOT(EventsEmitted, "capture.events_emitted",                       \
         "heapmd_trace_events_total", "counter", Integer,               \
         "Trace events written to the capture stream.")                 \
    SLOT(ScanPasses, "capture.scan_passes", "heapmd_scan_passes_total", \
         "counter", Integer, "Conservative pointer-scan passes completed.") \
    SLOT(ScanWords, "capture.scan_words", "heapmd_scan_words_total",    \
         "counter", Integer, "Words visited by pointer scans.")         \
    SLOT(ScanEdgeWrites, "capture.scan_edge_writes",                    \
         "heapmd_scan_edge_writes_total", "counter", Integer,           \
         "Edge-write deltas emitted by pointer scans.")                 \
    SLOT(ScanEdgeClears, "capture.scan_edge_clears",                    \
         "heapmd_scan_edge_clears_total", "counter", Integer,           \
         "Edge-clear deltas emitted by pointer scans.")                 \
    SLOT(ScanReclaimedDead, "capture.scan_reclaimed_dead",              \
         "heapmd_scan_reclaimed_dead_total", "counter", Integer,        \
         "Stale live-table extents reclaimed at scan time.")            \
    SLOT(DroppedReentrant, "capture.dropped_reentrant",                 \
         "heapmd_dropped_reentrant_total", "counter", Integer,          \
         "Allocator events dropped by the reentrancy guard.")           \
    SLOT(Flushes, "capture.flushes", "heapmd_flushes_total", "counter", \
         Integer, "Capture-stream flush+fsync durability points.")      \
    SLOT(ScanNanos, "capture.scan_ns", "heapmd_scan_seconds_total",     \
         "counter", NanosAsSeconds,                                     \
         "Wall-clock seconds spent inside pointer scans.")              \
    SLOT(MetricPoints, nullptr, "heapmd_metric_points_total", "counter", \
         Integer, "Degree-metric samples published by the shim.")       \
    LOCAL(BootstrapBytes, "capture.bootstrap_bytes")                    \
    LOCAL(BootstrapAllocs, "capture.bootstrap_allocs")                  \
    LOCAL(SegmentPublishes, "capture.segment_publishes")                \
    LOCAL(SegmentsRotated, "capture.segments_rotated")                  \
    LOCAL(TraceRawBytes, "capture.trace_raw_bytes")                     \
    LOCAL(TraceCompressedBytes, "capture.trace_compressed_bytes")

#define HEAPMD_CATALOG_ID(id, ...) id,
#define HEAPMD_CATALOG_SKIP(...)

/**
 * Index of each published 64-bit value: the catalog's SLOT rows,
 * then the seven degree-metric percentages (fixed point
 * ×kMetricScale, or kMetricAbsent before the first scan).
 * Append-only: reordering or removing a slot is a layout change and
 * must bump kLayoutVersion; the static_asserts below pin it.
 */
enum class Slot : std::size_t
{
    HEAPMD_SHIM_COUNTERS(HEAPMD_CATALOG_ID, HEAPMD_CATALOG_SKIP)
    MetricBase, //!< first of kNumMetrics degree-metric slots
};

/** The catalog's sidecar-only counters. */
enum class LocalCounter : std::size_t
{
    HEAPMD_SHIM_COUNTERS(HEAPMD_CATALOG_SKIP, HEAPMD_CATALOG_ID)
};

#undef HEAPMD_CATALOG_ID
#undef HEAPMD_CATALOG_SKIP

/** Index of a slot in SegmentHeader::slots. */
constexpr std::size_t
slotIndex(Slot s)
{
    return static_cast<std::size_t>(s);
}

/** Slot holding the fixed-point percentage for @p id. */
constexpr std::size_t
metricSlotIndex(MetricId id)
{
    return slotIndex(Slot::MetricBase) + metricIndex(id);
}

/** Total number of value slots in the segment. */
inline constexpr std::size_t kSlotCount =
    slotIndex(Slot::MetricBase) + kNumMetrics;

// The layout pin: every slot keeps the index version 1 gave it.
static_assert(slotIndex(Slot::LiveObjects) == 0);
static_assert(slotIndex(Slot::LiveBytes) == 1);
static_assert(slotIndex(Slot::LiveEdges) == 2);
static_assert(slotIndex(Slot::PeakLiveObjects) == 3);
static_assert(slotIndex(Slot::AllocEvents) == 4);
static_assert(slotIndex(Slot::FreeEvents) == 5);
static_assert(slotIndex(Slot::ReallocEvents) == 6);
static_assert(slotIndex(Slot::EventsEmitted) == 7);
static_assert(slotIndex(Slot::ScanPasses) == 8);
static_assert(slotIndex(Slot::ScanWords) == 9);
static_assert(slotIndex(Slot::ScanEdgeWrites) == 10);
static_assert(slotIndex(Slot::ScanEdgeClears) == 11);
static_assert(slotIndex(Slot::ScanReclaimedDead) == 12);
static_assert(slotIndex(Slot::DroppedReentrant) == 13);
static_assert(slotIndex(Slot::Flushes) == 14);
static_assert(slotIndex(Slot::ScanNanos) == 15);
static_assert(slotIndex(Slot::MetricPoints) == 16);
static_assert(slotIndex(Slot::MetricBase) == 17);
static_assert(kSlotCount == 24);

/** One catalog row, as the sidecar and the exporter read it. */
struct CounterRow
{
    const char *sidecar; //!< "capture.*" name, or nullptr
    bool inSlot;         //!< index is a Slot, else a LocalCounter
    std::size_t index;   //!< slotIndex() or LocalCounter value
    const char *family = nullptr; //!< Prometheus family, if inSlot
    const char *type = nullptr;   //!< "gauge" or "counter"
    Rendering rendering = Rendering::Integer;
    const char *help = nullptr;
};

#define HEAPMD_CATALOG_SLOT_ROW(id, sidecar, family, type, rendering,   \
                                help)                                   \
    {sidecar, true, slotIndex(Slot::id), family, type,                  \
     Rendering::rendering, help},
#define HEAPMD_CATALOG_LOCAL_ROW(id, sidecar)                           \
    {sidecar, false, static_cast<std::size_t>(LocalCounter::id)},

/** Every catalog row, SLOT rows first in slot order. */
inline constexpr CounterRow kCounterCatalog[] = {
    HEAPMD_SHIM_COUNTERS(HEAPMD_CATALOG_SLOT_ROW,
                         HEAPMD_CATALOG_LOCAL_ROW)};

#undef HEAPMD_CATALOG_SLOT_ROW
#undef HEAPMD_CATALOG_LOCAL_ROW

/** Number of sidecar-only counters: the rows that have no slot. */
inline constexpr std::size_t kLocalCounterCount =
    sizeof(kCounterCatalog) / sizeof(CounterRow) -
    slotIndex(Slot::MetricBase);

/**
 * The mapped segment.  The creating writer zero-fills via ftruncate,
 * fills in the identity fields, then stores `magic` with release
 * ordering as the very last step — a reader that sees the magic is
 * guaranteed a fully initialised header.
 */
struct SegmentHeader
{
    std::atomic<std::uint64_t> magic;           //!< kSegmentMagic when ready
    std::uint32_t layoutVersion;                //!< kLayoutVersion of writer
    std::uint32_t pid;                          //!< writer process id
    char program[64];                           //!< NUL-padded short name
    std::uint64_t startMonoMs;                  //!< CLOCK_MONOTONIC at create
    std::atomic<std::uint64_t> sequence;        //!< seqlock generation
    std::atomic<std::uint64_t> heartbeatMonoMs; //!< CLOCK_MONOTONIC, each publish
    std::uint64_t reserved[4];                  //!< zero; future layout room
    std::atomic<std::uint64_t> slots[kSlotCount];
};

static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "seqlock slots must be lock-free plain words");
static_assert(sizeof(SegmentHeader) <= 4096,
              "segment must fit one page");

/** Bytes to ftruncate/mmap for one segment. */
inline constexpr std::size_t kSegmentBytes = sizeof(SegmentHeader);

} // namespace obsv
} // namespace heapmd

#endif // HEAPMD_OBSV_SHM_LAYOUT_HH
