/**
 * @file
 * POSIX shm implementation of the stats-segment endpoints.
 */

#include "obsv/segment.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace heapmd
{
namespace obsv
{

namespace
{

/** Bounded seqlock retries before read() gives up on a hot writer. */
constexpr int kReadRetries = 1000;

/** mmap a segment fd; returns nullptr on failure. */
SegmentHeader *
mapSegment(int fd, bool writable)
{
    const int prot = writable ? PROT_READ | PROT_WRITE : PROT_READ;
    void *mem = ::mmap(nullptr, kSegmentBytes, prot, MAP_SHARED, fd, 0);
    return mem == MAP_FAILED ? nullptr
                             : static_cast<SegmentHeader *>(mem);
}

} // namespace

std::uint64_t
monotonicMs()
{
    struct timespec ts;
    if (::clock_gettime(CLOCK_MONOTONIC, &ts) != 0)
        return 0;
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000u +
           static_cast<std::uint64_t>(ts.tv_nsec) / 1000000u;
}

void
segmentName(std::uint32_t pid, char *out, std::size_t out_len)
{
    std::snprintf(out, out_len, "/%s%u", kSegmentPrefix, pid);
}

SegmentWriter::~SegmentWriter()
{
    // Deliberately no unlink here: only the shim's normal finalize
    // calls unlinkAndClose.  A forked child inherits the parent's
    // mapping and never tears it down; a plain destructor unmaps.
    if (header_ != nullptr)
        ::munmap(header_, kSegmentBytes);
}

bool
SegmentWriter::create(std::uint32_t pid, const char *program)
{
    if (header_ != nullptr)
        return true;
    segmentName(pid, name_, sizeof name_);
    // O_EXCL after unlinking any stale entry: a previous process with
    // the same (recycled) pid that was SIGKILLed may have left one.
    ::shm_unlink(name_);
    const int fd =
        ::shm_open(name_, O_CREAT | O_EXCL | O_RDWR, 0600);
    if (fd < 0)
        return false;
    if (::ftruncate(fd, static_cast<off_t>(kSegmentBytes)) != 0) {
        ::close(fd);
        ::shm_unlink(name_);
        return false;
    }
    SegmentHeader *h = mapSegment(fd, /*writable=*/true);
    ::close(fd);
    if (h == nullptr) {
        ::shm_unlink(name_);
        return false;
    }
    // ftruncate zero-filled the page: sequence == 0 (stable), all
    // slots 0.  Fill identity, mark the metric slots absent, then
    // publish the magic last so a racing reader never sees a
    // half-initialised header.
    h->layoutVersion = kLayoutVersion;
    h->pid = pid;
    std::strncpy(h->program, program == nullptr ? "" : program,
                 sizeof h->program - 1);
    h->startMonoMs = monotonicMs();
    h->heartbeatMonoMs.store(h->startMonoMs,
                             std::memory_order_relaxed);
    for (std::size_t i = 0; i < kNumMetrics; ++i)
        h->slots[slotIndex(Slot::MetricBase) + i].store(
            kMetricAbsent, std::memory_order_relaxed);
    h->magic.store(kSegmentMagic, std::memory_order_release);
    header_ = h;
    return true;
}

void
SegmentWriter::publish(
    const std::array<std::uint64_t, kSlotCount> &values)
{
    publishPrefix(values.data(), values.size());
}

void
SegmentWriter::publishPrefix(const std::uint64_t *values,
                             std::size_t count)
{
    if (header_ == nullptr)
        return;
    SegmentHeader &h = *header_;
    h.sequence.fetch_add(1, std::memory_order_acq_rel);
    if (count > kSlotCount)
        count = kSlotCount;
    for (std::size_t i = 0; i < count; ++i)
        h.slots[i].store(values[i], std::memory_order_relaxed);
    h.heartbeatMonoMs.store(monotonicMs(),
                            std::memory_order_relaxed);
    h.sequence.fetch_add(1, std::memory_order_release);
}

void
SegmentWriter::unlinkAndClose()
{
    if (header_ == nullptr)
        return;
    ::munmap(header_, kSegmentBytes);
    header_ = nullptr;
    ::shm_unlink(name_);
}

SegmentReader::~SegmentReader() { close(); }

bool
SegmentReader::attachPid(std::uint32_t pid, std::string *error)
{
    char name[32];
    segmentName(pid, name, sizeof name);
    return attachName(name, error);
}

bool
SegmentReader::attachName(const std::string &shm_name,
                          std::string *error)
{
    close();
    const int fd = ::shm_open(shm_name.c_str(), O_RDONLY, 0);
    if (fd < 0) {
        if (error != nullptr)
            *error = "cannot open shm segment " + shm_name + ": " +
                     std::strerror(errno);
        return false;
    }
    struct stat st;
    if (::fstat(fd, &st) != 0 ||
        st.st_size < static_cast<off_t>(kSegmentBytes)) {
        ::close(fd);
        if (error != nullptr)
            *error = "shm segment " + shm_name +
                     " is smaller than a stats segment";
        return false;
    }
    const SegmentHeader *h = mapSegment(fd, /*writable=*/false);
    ::close(fd);
    if (h == nullptr) {
        if (error != nullptr)
            *error = "cannot map shm segment " + shm_name;
        return false;
    }
    header_ = h;
    return true;
}

bool
SegmentReader::read(SegmentSnapshot &out, std::string *error) const
{
    if (header_ == nullptr) {
        if (error != nullptr)
            *error = "segment reader is not attached";
        return false;
    }
    const SegmentHeader &h = *header_;
    if (h.magic.load(std::memory_order_acquire) != kSegmentMagic) {
        if (error != nullptr)
            *error = "segment has no heapmd magic "
                     "(writer still initialising, or not a stats "
                     "segment)";
        return false;
    }
    // Version skew: a segment written by a *newer* layout is
    // rejected outright — slot meanings may have moved.  (Older
    // versions would be handled here once there are any.)
    if (h.layoutVersion != kLayoutVersion) {
        if (error != nullptr)
            *error = "segment layout version " +
                     std::to_string(h.layoutVersion) +
                     " is not supported by this binary (expects " +
                     std::to_string(kLayoutVersion) + ")";
        return false;
    }
    for (int attempt = 0; attempt < kReadRetries; ++attempt) {
        const std::uint64_t s1 =
            h.sequence.load(std::memory_order_acquire);
        if ((s1 & 1u) != 0u)
            continue; // write in progress
        SegmentSnapshot snap;
        snap.pid = h.pid;
        snap.layoutVersion = h.layoutVersion;
        snap.program.assign(
            h.program,
            ::strnlen(h.program, sizeof h.program));
        snap.startMonoMs = h.startMonoMs;
        for (std::size_t i = 0; i < kSlotCount; ++i)
            snap.values[i] =
                h.slots[i].load(std::memory_order_relaxed);
        snap.heartbeatMonoMs =
            h.heartbeatMonoMs.load(std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_acquire);
        const std::uint64_t s2 =
            h.sequence.load(std::memory_order_relaxed);
        if (s1 == s2) {
            out = snap;
            return true;
        }
    }
    if (error != nullptr)
        *error = "segment writer never quiesced across " +
                 std::to_string(kReadRetries) + " snapshot attempts";
    return false;
}

void
SegmentReader::close()
{
    if (header_ != nullptr) {
        ::munmap(const_cast<SegmentHeader *>(header_),
                 kSegmentBytes);
        header_ = nullptr;
    }
}

std::vector<std::uint32_t>
listSegmentPids()
{
    std::vector<std::uint32_t> pids;
    DIR *dir = ::opendir("/dev/shm");
    if (dir == nullptr)
        return pids;
    const std::size_t prefix_len = std::strlen(kSegmentPrefix);
    while (const dirent *entry = ::readdir(dir)) {
        const char *name = entry->d_name;
        if (std::strncmp(name, kSegmentPrefix, prefix_len) != 0)
            continue;
        const char *digits = name + prefix_len;
        if (*digits == '\0')
            continue;
        char *end = nullptr;
        const unsigned long pid = std::strtoul(digits, &end, 10);
        if (end == nullptr || *end != '\0' || pid == 0)
            continue;
        pids.push_back(static_cast<std::uint32_t>(pid));
    }
    ::closedir(dir);
    std::sort(pids.begin(), pids.end());
    return pids;
}

bool
pidAlive(std::uint32_t pid)
{
    if (::kill(static_cast<pid_t>(pid), 0) == 0)
        return true;
    return errno == EPERM; // exists, just not ours
}

bool
unlinkSegmentForPid(std::uint32_t pid)
{
    char name[32];
    segmentName(pid, name, sizeof name);
    return ::shm_unlink(name) == 0;
}

ReapResult
reapDeadSegments(const std::vector<std::uint32_t> &pids)
{
    ReapResult result;
    for (const std::uint32_t pid : pids) {
        if (pidAlive(pid)) {
            result.alive.push_back(pid);
        } else if (unlinkSegmentForPid(pid)) {
            result.reaped.push_back(pid);
        }
    }
    return result;
}

} // namespace obsv
} // namespace heapmd
