#include "capture/capture_session.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <sys/wait.h>
#include <unistd.h>

#include "capture/stats_sidecar.hh"
#include "obsv/segment.hh"
#include "telemetry/registry.hh"
#include "trace/segment_set.hh"

extern char **environ;

namespace heapmd
{

namespace capture
{

namespace
{

namespace fs = std::filesystem;

/** Directory of the running executable, or empty. */
fs::path
selfExeDir()
{
    std::error_code ec;
    const fs::path exe =
        fs::read_symlink("/proc/self/exe", ec);
    if (ec)
        return {};
    return exe.parent_path();
}

/** "a" + ":" + existing LD_PRELOAD (ours first wins symbol lookup). */
std::string
preloadValue(const std::string &shim)
{
    const char *existing = ::getenv("LD_PRELOAD");
    if (existing == nullptr || *existing == '\0')
        return shim;
    return shim + ":" + existing;
}

} // namespace

std::string
findShimLibrary()
{
    constexpr const char *kSoName = "libheapmd_capture.so";
    std::error_code ec;

    const char *override = ::getenv(kEnvLib);
    if (override != nullptr && *override != '\0') {
        if (fs::exists(override, ec))
            return override;
        return {}; // an explicit override must not fall through
    }

    const fs::path exe_dir = selfExeDir();
    if (exe_dir.empty())
        return {};
    for (const fs::path &candidate : {
             exe_dir / kSoName,
             // Build tree: tools/heapmd and src/capture/ are siblings.
             exe_dir / ".." / "src" / "capture" / kSoName,
             exe_dir / ".." / "lib" / kSoName,
         }) {
        if (fs::exists(candidate, ec))
            return fs::weakly_canonical(candidate, ec).string();
    }
    return {};
}

bool
runCapture(const std::vector<std::string> &argv,
           const SessionOptions &options, SessionResult &result,
           std::string &error)
{
    if (argv.empty()) {
        error = "no command to capture";
        return false;
    }

    std::string shim = options.shimPath;
    if (shim.empty())
        shim = findShimLibrary();
    std::error_code ec;
    if (shim.empty() || !fs::exists(shim, ec)) {
        error = "cannot locate libheapmd_capture.so (set " +
                std::string(kEnvLib) +
                " or pass --lib; was the build configured with "
                "HEAPMD_BUILD_CAPTURE=ON?)";
        return false;
    }

    result.tracePath = options.tracePath;
    result.statsPath = defaultStatsPath(options.tracePath);

    // A stale trace must not masquerade as this run's output when
    // the child dies before the shim opens the file.
    fs::remove(result.tracePath, ec);
    fs::remove(result.statsPath, ec);
    if (options.rotateBytes > 0) {
        for (const std::uint64_t idx :
             trace::listSegmentIndices(result.tracePath)) {
            fs::remove(trace::segmentPath(result.tracePath, idx),
                       ec);
            fs::remove(
                trace::segmentPath(result.tracePath, idx, true), ec);
        }
        fs::remove(trace::segmentManifestPath(result.tracePath), ec);
    }

    const pid_t pid = ::fork();
    if (pid < 0) {
        error = std::string("fork: ") + std::strerror(errno);
        return false;
    }

    if (pid == 0) {
        // Child: finish wiring the environment (the armed pid can
        // only be known here) and exec.  Only async-signal-unsafe in
        // ways that do not matter pre-exec in practice (setenv).
        ::setenv("LD_PRELOAD", preloadValue(shim).c_str(), 1);
        ::setenv(kEnvOut, options.tracePath.c_str(), 1);
        ::setenv(kEnvStatsOut, result.statsPath.c_str(), 1);
        char number[32];
        std::snprintf(number, sizeof(number), "%llu",
                      static_cast<unsigned long long>(
                          options.scanFrequency));
        ::setenv(kEnvFrq, number, 1);
        std::snprintf(number, sizeof(number), "%d",
                      static_cast<int>(::getpid()));
        ::setenv(kEnvPid, number, 1);
        if (options.verbose)
            ::setenv(kEnvLog, "1", 1);
        if (options.rotateBytes > 0) {
            std::snprintf(number, sizeof(number), "%llu",
                          static_cast<unsigned long long>(
                              options.rotateBytes));
            ::setenv(kEnvRotateBytes, number, 1);
        }
        if (options.compress)
            ::setenv(kEnvCompress, "1", 1);

        std::vector<char *> child_argv;
        child_argv.reserve(argv.size() + 1);
        for (const std::string &arg : argv)
            child_argv.push_back(const_cast<char *>(arg.c_str()));
        child_argv.push_back(nullptr);
        ::execvp(child_argv[0], child_argv.data());
        std::fprintf(stderr, "heapmd capture: exec %s: %s\n",
                     child_argv[0], std::strerror(errno));
        ::_exit(127);
    }

    result.pid = static_cast<std::uint32_t>(pid);
    int status = 0;
    for (;;) {
        if (::waitpid(pid, &status, 0) >= 0)
            break;
        if (errno != EINTR) {
            error = std::string("waitpid: ") + std::strerror(errno);
            return false;
        }
    }

    if (WIFEXITED(status)) {
        result.exited = true;
        result.exitCode = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
        result.exited = false;
        result.termSignal = WTERMSIG(status);
    }

    // The shim unlinks its live stats segment from atexit, but a
    // child killed by signal (or _exit before finalize) cannot; the
    // host owns the cleanup so no run leaks a /dev/shm entry.  ENOENT
    // after a clean exit is the expected case.
    obsv::unlinkSegmentForPid(result.pid);

    if (result.exited && result.exitCode == 127) {
        error = "child failed to exec '" + argv.front() + "'";
        return false;
    }
    if (options.rotateBytes > 0) {
        for (const std::uint64_t idx :
             trace::listSegmentIndices(result.tracePath)) {
            const std::string seg =
                trace::resolveSegmentPath(result.tracePath, idx);
            if (!seg.empty())
                result.segmentPaths.push_back(seg);
        }
        if (result.segmentPaths.empty()) {
            error = "child produced no trace segments under '" +
                    result.tracePath + "' (did it allocate at all?)";
            return false;
        }
    } else if (!fs::exists(result.tracePath, ec)) {
        error = "child produced no trace at '" + result.tracePath +
                "' (did it allocate at all?)";
        return false;
    }

    // A missing sidecar (the child never finalized) reads as empty.
    std::ifstream sidecar(result.statsPath);
    result.counters = readStatsSidecar(sidecar);
    for (const auto &[name, value] : result.counters)
        telemetry::Registry::instance().counter(name).add(value);
    return true;
}

} // namespace capture

} // namespace heapmd
