/**
 * @file
 * Environment-variable contract between `heapmd capture` (the host
 * side) and the preloaded shim (the child side).
 *
 * The host sets these before exec'ing the child; the shim reads them
 * during lazy initialization.  The full reference table is in
 * README.md ("Capturing a real process") and DESIGN.md section 10.
 */

#ifndef HEAPMD_CAPTURE_CAPTURE_ENV_HH
#define HEAPMD_CAPTURE_CAPTURE_ENV_HH

#include <cstdint>
#include <string>

namespace heapmd
{

namespace capture
{

/** Trace output path; capture is disabled when unset. */
inline constexpr const char *kEnvOut = "HEAPMD_CAPTURE_OUT";

/** Conservative-scan frequency, in allocation events. */
inline constexpr const char *kEnvFrq = "HEAPMD_CAPTURE_FRQ";

/** Counter-sidecar path (default: "<trace>.stats"). */
inline constexpr const char *kEnvStatsOut = "HEAPMD_CAPTURE_STATS_OUT";

/**
 * Pid the capture is armed for.  The host cannot know the child's
 * pid before fork, so the child hook sets it between fork and exec;
 * the shim stays disabled in any *other* process that inherits the
 * environment (grandchildren would otherwise truncate the trace).
 */
inline constexpr const char *kEnvPid = "HEAPMD_CAPTURE_PID";

/** "1": shim logs its lifecycle to stderr. */
inline constexpr const char *kEnvLog = "HEAPMD_CAPTURE_LOG";

/**
 * Segment rotation threshold in bytes.  Unset or 0 records one
 * monolithic trace at HEAPMD_CAPTURE_OUT (the pre-rotation behavior).
 * Any positive value switches the shim to rotating segment files
 * ("<out>.000000.heapmd", "<out>.000001.heapmd", ...): whenever the
 * active segment reaches the threshold the shim finalizes it
 * (footer + fsync + close) at an operation boundary and opens the
 * next one, so a crash loses at most the in-progress segment and
 * `heapmd monitor` can consume finished segments while the process
 * still runs.  Rotation happens only *between* recorded allocator
 * operations -- an event record is never split across segments.
 */
inline constexpr const char *kEnvRotateBytes =
    "HEAPMD_CAPTURE_ROTATE_BYTES";

/**
 * "1": gzip each rotation segment (".heapmd.gz" instead of
 * ".heapmd").  Requires rotation (HEAPMD_CAPTURE_ROTATE_BYTES > 0)
 * and a zlib-enabled build; otherwise the shim logs a notice and
 * records uncompressed.  The rotation threshold keeps counting RAW
 * trace bytes, so compression changes segment sizes on disk but not
 * the events per segment.  The segment manifest records the
 * raw/compressed byte totals (the compression ratio).
 */
inline constexpr const char *kEnvCompress = "HEAPMD_CAPTURE_COMPRESS";

/** Host-side override of the shim library path. */
inline constexpr const char *kEnvLib = "HEAPMD_CAPTURE_LIB";

/**
 * Default scan frequency: one conservative edge-recovery pass per
 * this many allocation events (the capture analogue of the paper's
 * frq; production deployments raise it, e.g. 100000).
 */
inline constexpr std::uint64_t kDefaultScanFrequency = 10000;

/** Name interned for the scan-pass marker function (always FnId 0). */
inline constexpr const char *kScanFunctionName =
    "heapmd.capture.scan";

/** Derive the default sidecar path from the trace path. */
std::string defaultStatsPath(const std::string &trace_path);

/**
 * Parse a positive integer environment value; falls back on missing,
 * empty, malformed, or zero input.
 */
std::uint64_t envToU64(const char *value, std::uint64_t fallback);

} // namespace capture

} // namespace heapmd

#endif // HEAPMD_CAPTURE_CAPTURE_ENV_HH
