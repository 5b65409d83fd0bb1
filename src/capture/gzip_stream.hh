/**
 * @file
 * Deflating CaptureStreamBuf: the writer half of gzip segment
 * compression (HEAPMD_CAPTURE_COMPRESS).
 *
 * The shim's TraceWriter hands its encoded blocks to the same
 * std::ostream either way; this buf deflates the raw trace bytes into
 * a single gzip member on the way to the fd.  Durability mirrors
 * FdStreamBuf: syncToDisk() emits a Z_SYNC_FLUSH block and fsyncs,
 * so the decodable prefix of a ".heapmd.gz" segment grows in lockstep
 * with the fsync'd prefix and a killed writer leaves a truncated-but-
 * decodable tail; closeFd() finishes the member (Z_FINISH, with the
 * gzip CRC trailer) before closing.
 *
 * Shim survival rules are honored: every buffer -- the raw put area,
 * the deflate output staging area, and zlib's internal state -- is
 * allocated once during construction (which runs under the shim's
 * reentrancy guard) and never grows afterward.
 *
 * totalBytes() reports RAW bytes accepted, so segment rotation keeps
 * its threshold in uncompressed-trace terms and the number of events
 * per segment does not depend on how well they compress.
 *
 * Without zlib (HEAPMD_HAVE_ZLIB undefined) construction fails
 * cleanly: ok() is false and every write errors.
 */

#ifndef HEAPMD_CAPTURE_GZIP_STREAM_HH
#define HEAPMD_CAPTURE_GZIP_STREAM_HH

#include <cstddef>
#include <vector>

#include "capture/fd_stream.hh"

namespace heapmd
{

namespace capture
{

/** Deflating CaptureStreamBuf over a POSIX file descriptor. */
class GzipStreamBuf : public CaptureStreamBuf
{
  public:
    /** Wraps @p fd; the caller keeps ownership unless closeFd(). */
    explicit GzipStreamBuf(int fd,
                           std::size_t buffer_bytes = 1 << 16);

    GzipStreamBuf(const GzipStreamBuf &) = delete;
    GzipStreamBuf &operator=(const GzipStreamBuf &) = delete;

    /** Flushes buffered bytes; never closes the fd. */
    ~GzipStreamBuf() override;

    /** False when deflate could not be initialized (or no zlib). */
    bool ok() const { return stream_ != nullptr; }

    bool syncToDisk() override;
    bool closeFd() override;
    bool hadError() const override { return had_error_; }

    /** Compressed bytes pushed to the fd so far. */
    std::size_t bytesWritten() const override
    {
        return compressed_bytes_;
    }

    /** Raw bytes accepted so far (deflated plus pending put area). */
    std::size_t
    totalBytes() const override
    {
        return raw_bytes_ +
               static_cast<std::size_t>(pptr() - pbase());
    }

  protected:
    int_type overflow(int_type ch) override;
    int sync() override;

  private:
    /** Deflate the put area with @p flush_mode; resets the area. */
    bool deflateBuffer(int flush_mode);
    bool writeAll(const unsigned char *data, std::size_t size);

    int fd_;
    std::vector<char> buffer_; //!< raw put area
    std::vector<unsigned char> out_; //!< deflate staging
    void *stream_ = nullptr; //!< opaque z_stream
    std::size_t raw_bytes_ = 0; //!< raw bytes deflated
    std::size_t compressed_bytes_ = 0; //!< bytes pushed to the fd
    bool had_error_ = false;
    bool finished_ = false;
};

} // namespace capture

} // namespace heapmd

#endif // HEAPMD_CAPTURE_GZIP_STREAM_HH
