/**
 * @file
 * Byte sources feeding the buffered trace decoder.
 *
 * A Source hands the decoder whole chunks of raw bytes (zero-copy
 * where the backing storage allows), replacing the per-byte virtual
 * istream::get() calls of the original reader.  Three implementations:
 *
 *  - StreamSource: wraps any std::istream behind an internal block
 *    buffer (64 KiB refills by default; the chunk size is overridable
 *    so tests can force refill boundaries through every decode path);
 *  - MemorySource: a single in-memory chunk;
 *  - FileSource: mmap(2)s a whole trace file read-only (falling back
 *    to a heap read where mmap is unavailable) and exposes the
 *    mapping as one flat buffer.
 *
 * LoadedTrace sits on top: the one place a trace path becomes HMDT
 * bytes, shared by every stage that reads the trace.
 */

#ifndef HEAPMD_TRACE_TRACE_SOURCE_HH
#define HEAPMD_TRACE_TRACE_SOURCE_HH

#include <cstddef>
#include <istream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace heapmd
{

namespace trace
{

/** Default StreamSource refill size. */
inline constexpr std::size_t kDefaultChunkSize = 64 * 1024;

/** Pull-based chunk supplier for the buffered decoder. */
class Source
{
  public:
    virtual ~Source() = default;

    /**
     * Fetch the next chunk.  @p data points at the chunk on return
     * and stays valid until the next call; the return value is the
     * chunk size, 0 at end of input.
     */
    virtual std::size_t next(const unsigned char *&data) = 0;
};

/** Block-buffered adapter over any istream. */
class StreamSource : public Source
{
  public:
    explicit StreamSource(std::istream &is,
                          std::size_t chunk_size = kDefaultChunkSize);

    std::size_t next(const unsigned char *&data) override;

  private:
    std::istream &is_;
    std::vector<unsigned char> buffer_;
};

/** A single chunk over caller-owned memory. */
class MemorySource : public Source
{
  public:
    MemorySource(const unsigned char *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    std::size_t next(const unsigned char *&data) override;

  private:
    const unsigned char *data_;
    std::size_t size_;
    bool consumed_ = false;
};

/**
 * Whole-file source, mmap-backed where possible.
 *
 * Construct, then test ok() before use; error() describes an open
 * failure.  data()/size() expose the whole file for consumers that
 * want the flat buffer (LoadedTrace).
 */
class FileSource : public Source
{
  public:
    explicit FileSource(const std::string &path);
    ~FileSource() override;

    FileSource(const FileSource &) = delete;
    FileSource &operator=(const FileSource &) = delete;

    /** False when the file could not be opened or read. */
    bool ok() const { return ok_; }

    /** Why ok() is false; empty on success. */
    const std::string &error() const { return error_; }

    const unsigned char *data() const { return data_; }
    std::size_t size() const { return size_; }

    /** The bytes are a read-only file mapping, not a heap copy. */
    bool mapped() const { return mapped_; }

    std::size_t next(const unsigned char *&data) override;

  private:
    const unsigned char *data_ = nullptr;
    std::size_t size_ = 0;
    std::vector<unsigned char> fallback_;
    std::string error_;
    bool mapped_ = false;
    bool ok_ = false;
    bool consumed_ = false;
};

/**
 * A whole trace file as HMDT bytes, loaded once for every stage that
 * reads it (lint, flow lint, replay).  A plain file is mapped in
 * place (FileSource); a `.heapmd.gz` file is inflated once into
 * memory (gzipDecodeFile), so both kinds get the same checks.
 *
 * Construct, then test ok() before use.
 */
class LoadedTrace
{
  public:
    explicit LoadedTrace(const std::string &path);

    LoadedTrace(const LoadedTrace &) = delete;
    LoadedTrace &operator=(const LoadedTrace &) = delete;

    /** False when the file could not be opened or inflated. */
    bool ok() const { return ok_; }

    /** The path named a gzip trace, so a failure is a decode one. */
    bool compressed() const { return compressed_; }

    /** The gzip error when a compressed trace failed; else empty. */
    const std::string &error() const { return error_; }

    const std::string &path() const { return path_; }

    /** The trace bytes; empty when !ok(). */
    std::string_view
    bytes() const
    {
        return {reinterpret_cast<const char *>(data_), size_};
    }

    /**
     * Drop the resident pages that lie wholly before byte @p offset,
     * once a single forward pass has decoded them.  A mapped file's
     * pages fault back in from the file if read again, so bytes()
     * never changes; inflated gzip bytes and the read() fallback live
     * on the heap, where the release would zero them, so for those it
     * does nothing.
     */
    void releaseBefore(std::size_t offset) const;

  private:
    std::string path_;
    std::optional<FileSource> file_;
    std::vector<unsigned char> inflated_;
    const unsigned char *data_ = nullptr;
    std::size_t size_ = 0;
    /** Bytes before this offset are already released. */
    mutable std::size_t released_ = 0;
    std::string error_;
    bool compressed_ = false;
    bool ok_ = false;
};

} // namespace trace

} // namespace heapmd

#endif // HEAPMD_TRACE_TRACE_SOURCE_HH
