/**
 * @file
 * File-descriptor streambuf with explicit durability control.
 *
 * The shim's TraceWriter encodes into its own fixed block and hands
 * the stream one write per block; this buf is the std::ostream behind
 * it.  It supplies two things std::ofstream cannot promise: a fixed
 * internal buffer that never reallocates inside interposed calls, and
 * an fsync hook so flushed prefixes survive a crashing child.
 */

#ifndef HEAPMD_CAPTURE_FD_STREAM_HH
#define HEAPMD_CAPTURE_FD_STREAM_HH

#include <cstddef>
#include <streambuf>
#include <vector>

namespace heapmd
{

namespace capture
{

/**
 * Shim-facing streambuf contract: fixed buffering (no reallocation
 * inside interposed calls), explicit durability, and byte accounting
 * for segment rotation.  FdStreamBuf writes raw bytes; GzipStreamBuf
 * (gzip_stream.hh) deflates them first.
 */
class CaptureStreamBuf : public std::streambuf
{
  public:
    ~CaptureStreamBuf() override = default;

    /** Flush to the kernel and fsync(2).  @return false on error. */
    virtual bool syncToDisk() = 0;

    /** Flush, fsync, and close(2) the fd.  @return false on error. */
    virtual bool closeFd() = 0;

    /** True once any write(2) or fsync(2) has failed. */
    virtual bool hadError() const = 0;

    /** Bytes pushed to the fd so far (compressed when gzipping). */
    virtual std::size_t bytesWritten() const = 0;

    /**
     * Raw (pre-compression) bytes accepted so far, including bytes
     * still pending in the put area.  Segment rotation compares this
     * plus the writer's TraceWriter::pendingBytes() against its byte
     * threshold -- always in raw-trace terms, so the event count per
     * segment does not depend on compressibility.
     */
    virtual std::size_t totalBytes() const = 0;
};

/**
 * CaptureStreamBuf over a POSIX file descriptor (output only).
 *
 * The buffer is allocated once in the constructor; overflow and
 * sync() push it to the fd with write(2), retrying on EINTR and
 * short writes.
 */
class FdStreamBuf : public CaptureStreamBuf
{
  public:
    /** Wraps @p fd; the caller keeps ownership unless closeFd(). */
    explicit FdStreamBuf(int fd, std::size_t buffer_bytes = 1 << 16);

    FdStreamBuf(const FdStreamBuf &) = delete;
    FdStreamBuf &operator=(const FdStreamBuf &) = delete;

    /** Flushes buffered bytes; never closes the fd. */
    ~FdStreamBuf() override;

    bool syncToDisk() override;
    bool closeFd() override;
    bool hadError() const override { return had_error_; }
    std::size_t bytesWritten() const override
    {
        return bytes_written_;
    }

    std::size_t
    totalBytes() const override
    {
        return bytes_written_ +
               static_cast<std::size_t>(pptr() - pbase());
    }

  protected:
    int_type overflow(int_type ch) override;
    int sync() override;

  private:
    bool flushBuffer();

    int fd_;
    std::vector<char> buffer_;
    std::size_t bytes_written_ = 0;
    bool had_error_ = false;
};

} // namespace capture

} // namespace heapmd

#endif // HEAPMD_CAPTURE_FD_STREAM_HH
