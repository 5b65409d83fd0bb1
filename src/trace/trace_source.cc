#include "trace/trace_source.hh"

#include <algorithm>
#include <cstring>

#include "telemetry/telemetry.hh"
#include "trace/gzip_source.hh"

#if defined(__unix__) || defined(__APPLE__)
#define HEAPMD_TRACE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define HEAPMD_TRACE_HAVE_MMAP 0
#include <fstream>
#endif

namespace heapmd
{

namespace trace
{

StreamSource::StreamSource(std::istream &is, std::size_t chunk_size)
    : is_(is), buffer_(chunk_size == 0 ? 1 : chunk_size)
{
}

std::size_t
StreamSource::next(const unsigned char *&data)
{
    is_.read(reinterpret_cast<char *>(buffer_.data()),
             static_cast<std::streamsize>(buffer_.size()));
    const auto got = static_cast<std::size_t>(is_.gcount());
    if (got == 0)
        return 0;
    HEAPMD_COUNTER_INC("trace.source_refills");
    data = buffer_.data();
    return got;
}

std::size_t
MemorySource::next(const unsigned char *&data)
{
    if (consumed_ || size_ == 0)
        return 0;
    consumed_ = true;
    data = data_;
    return size_;
}

FileSource::FileSource(const std::string &path)
{
#if HEAPMD_TRACE_HAVE_MMAP
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        error_ = "cannot open '" + path + "'";
        return;
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
        error_ = "cannot stat '" + path + "'";
        ::close(fd);
        return;
    }
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ == 0) {
        // mmap rejects zero-length mappings; an empty file is a
        // valid (if malformed) trace, so succeed with no data.
        ::close(fd);
        ok_ = true;
        return;
    }
    void *map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
#if defined(POSIX_MADV_SEQUENTIAL)
        ::posix_madvise(map, size_, POSIX_MADV_SEQUENTIAL);
#endif
        data_ = static_cast<const unsigned char *>(map);
        mapped_ = true;
        ok_ = true;
        ::close(fd);
        HEAPMD_COUNTER_INC("trace.mmap_opens");
        return;
    }
    // mmap can fail on special filesystems; fall back to a read.
    HEAPMD_COUNTER_INC("trace.mmap_fallbacks");
    fallback_.resize(size_);
    std::size_t off = 0;
    while (off < size_) {
        const ::ssize_t n =
            ::read(fd, fallback_.data() + off, size_ - off);
        if (n <= 0) {
            error_ = "cannot read '" + path + "'";
            ::close(fd);
            size_ = 0;
            return;
        }
        off += static_cast<std::size_t>(n);
    }
    ::close(fd);
    data_ = fallback_.data();
    ok_ = true;
#else
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error_ = "cannot open '" + path + "'";
        return;
    }
    fallback_.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    size_ = fallback_.size();
    data_ = fallback_.data();
    ok_ = true;
#endif
}

FileSource::~FileSource()
{
#if HEAPMD_TRACE_HAVE_MMAP
    if (mapped_)
        ::munmap(const_cast<unsigned char *>(data_), size_);
#endif
}

std::size_t
FileSource::next(const unsigned char *&data)
{
    if (consumed_ || size_ == 0)
        return 0;
    consumed_ = true;
    data = data_;
    return size_;
}

LoadedTrace::LoadedTrace(const std::string &path)
    : path_(path), compressed_(isGzipPath(path))
{
    if (compressed_) {
        ok_ = gzipDecodeFile(path, inflated_, error_);
        if (ok_) {
            data_ = inflated_.data();
            size_ = inflated_.size();
        }
        return;
    }
    const FileSource &file = file_.emplace(path);
    ok_ = file.ok();
    data_ = file.data();
    size_ = file.size();
}

void
LoadedTrace::releaseBefore(std::size_t offset) const
{
#if HEAPMD_TRACE_HAVE_MMAP
    if (!file_ || !file_->mapped())
        return;
    // The mapping starts on a page boundary; release whole pages only.
    static const std::size_t page =
        static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t end = std::min(offset, size_) / page * page;
    if (end <= released_)
        return;
    ::madvise(const_cast<unsigned char *>(data_) + released_,
              end - released_, MADV_DONTNEED);
    released_ = end;
#else
    (void)offset;
#endif
}

} // namespace trace

} // namespace heapmd
