/**
 * @file
 * Host side of live capture: arranging the preload, running the
 * child, and harvesting its artifacts.
 *
 * `heapmd capture -- <cmd> [args]` builds the child environment
 * (LD_PRELOAD plus the HEAPMD_CAPTURE_* contract of capture_env.hh),
 * fork/execs the command, reaps it, and merges the shim's counter
 * sidecar into the host telemetry registry so `--stats` and run
 * manifests see capture.* counters.
 */

#ifndef HEAPMD_CAPTURE_CAPTURE_SESSION_HH
#define HEAPMD_CAPTURE_CAPTURE_SESSION_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "capture/capture_env.hh"

namespace heapmd
{

namespace capture
{

/** Host-side knobs of one capture run. */
struct SessionOptions
{
    /** Trace destination (HEAPMD_CAPTURE_OUT). */
    std::string tracePath = "capture.trace";

    /** Conservative-scan frequency (HEAPMD_CAPTURE_FRQ). */
    std::uint64_t scanFrequency = kDefaultScanFrequency;

    /** Shim path; empty = discover next to the running binary. */
    std::string shimPath;

    /** Forward HEAPMD_CAPTURE_LOG=1 to the shim. */
    bool verbose = false;

    /**
     * Segment-rotation threshold (HEAPMD_CAPTURE_ROTATE_BYTES).
     * 0 = one monolithic trace at tracePath; positive = the shim
     * records rotating "<tracePath>.NNNNNN.heapmd" segments plus a
     * manifest, which `heapmd monitor` can follow live.
     */
    std::uint64_t rotateBytes = 0;

    /**
     * Gzip each rotation segment (HEAPMD_CAPTURE_COMPRESS=1):
     * segments become "<tracePath>.NNNNNN.heapmd.gz".  Requires
     * rotateBytes > 0 and a zlib-enabled build; the CLI validates
     * both before arming.
     */
    bool compress = false;
};

/** Outcome of one capture run. */
struct SessionResult
{
    /** Child terminated normally (vs. by signal). */
    bool exited = false;

    /** exit(3) status when @ref exited. */
    int exitCode = 0;

    /** Terminating signal when not @ref exited. */
    int termSignal = 0;

    /**
     * The child's pid, which names its stats segment
     * (`/dev/shm/heapmd.<pid>`); 0 when the fork failed.
     */
    std::uint32_t pid = 0;

    /**
     * Paths actually used.  Under rotation tracePath is the *base*
     * path segment names derive from (the file itself is not
     * created); segmentPaths lists the segments that exist after the
     * run, in index order.
     */
    std::string tracePath;
    std::string statsPath;
    std::vector<std::string> segmentPaths;

    /** capture.* counters parsed from the sidecar (may be empty). */
    std::map<std::string, std::uint64_t> counters;
};

/**
 * Locate libheapmd_capture.so.
 *
 * Order: the HEAPMD_CAPTURE_LIB environment override, the directory
 * of the running executable, then the build-tree layout relative to
 * it (src/capture/).  Returns an empty string when nothing exists.
 */
std::string findShimLibrary();

/**
 * Run @p argv under the capture preload.
 *
 * Blocks until the child is reaped.  Returns false (with @p error
 * set) only when the capture could not be *started* — shim missing,
 * fork failure, exec failure, or no trace produced; a child that ran
 * and failed is reported through @p result instead.
 */
bool runCapture(const std::vector<std::string> &argv,
                const SessionOptions &options, SessionResult &result,
                std::string &error);

} // namespace capture

} // namespace heapmd

#endif // HEAPMD_CAPTURE_CAPTURE_SESSION_HH
