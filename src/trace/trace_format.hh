/**
 * @file
 * On-disk format of HeapMD event traces.
 *
 * Layout:
 *   magic "HMDT" | u32 version | [u32 flags] | event* | 0xFF
 *   | function table
 *
 * Version 1 headers are magic + version; version 2 headers append a
 * u32 flags word.  The only flag so far is capture provenance: the
 * trace was recorded by the live-capture shim from a real process,
 * so a missing footer means the process was killed mid-run, not that
 * the artifact is corrupt (the trace linter downgrades the
 * truncation rules accordingly).
 *
 * Events are encoded as a one-byte kind tag followed by the kind's
 * fields as LEB128 varints.  The function table (names interned during
 * the run, in id order) is appended as a footer so call stacks can be
 * symbolized after replay.
 *
 * This header holds the byte encoders, which write through a flat
 * cursor; TraceWriter (trace_writer.hh) is the one writer and
 * TraceReader (trace_reader.hh) the one decoder.
 */

#ifndef HEAPMD_TRACE_TRACE_FORMAT_HH
#define HEAPMD_TRACE_TRACE_FORMAT_HH

#include <cstddef>
#include <cstdint>

namespace heapmd
{

namespace trace
{

/** File magic, little-endian "HMDT". */
inline constexpr std::uint32_t kMagic = 0x54444d48u;

/** Current format version (header without a flags word). */
inline constexpr std::uint32_t kVersion = 1;

/** Format version whose header carries a u32 flags word. */
inline constexpr std::uint32_t kVersionFlags = 2;

/** Header flag: recorded live by the allocator-interposition shim. */
inline constexpr std::uint32_t kFlagCaptureProvenance = 1u << 0;

/** Footer marker byte terminating the event stream. */
inline constexpr std::uint8_t kFooterMarker = 0xFF;

/** Decoded trace header. */
struct Header
{
    std::uint32_t version = kVersion;
    std::uint32_t flags = 0;

    bool captureProvenance() const
    {
        return (flags & kFlagCaptureProvenance) != 0;
    }

    /** Header size in bytes (8 for v1, 12 for v2). */
    std::uint64_t byteSize() const
    {
        return version >= kVersionFlags ? 12 : 8;
    }
};

/**
 * Longest legal LEB128 encoding of a 64-bit value.  Encodings using
 * more bytes are rejected as overlong (audit rule
 * trace.varint-overlong).
 */
inline constexpr int kMaxVarintBytes = 10;

/** Longest header: magic, version and the v2 flags word. */
inline constexpr std::size_t kMaxHeaderBytes = 12;

/**
 * Encode @p value as an unsigned LEB128 varint at @p out.
 * @return one past the last byte written (at most kMaxVarintBytes).
 */
inline char *
encodeVarint(char *out, std::uint64_t value)
{
    while (value >= 0x80) {
        *out++ = static_cast<char>((value & 0x7F) | 0x80);
        value >>= 7;
    }
    *out++ = static_cast<char>(value);
    return out;
}

/** Encode a fixed-width little-endian u32 at @p out. */
inline char *
encodeU32(char *out, std::uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        *out++ = static_cast<char>((value >> (8 * i)) & 0xFF);
    return out;
}

/**
 * Encode a trace header at @p out (at most kMaxHeaderBytes).  Zero
 * @p flags emits the compact version-1 header; any flag promotes the
 * header to version 2.
 */
inline char *
encodeHeader(char *out, std::uint32_t flags = 0)
{
    out = encodeU32(out, kMagic);
    out = encodeU32(out, flags == 0 ? kVersion : kVersionFlags);
    return flags == 0 ? out : encodeU32(out, flags);
}

} // namespace trace

} // namespace heapmd

#endif // HEAPMD_TRACE_TRACE_FORMAT_HH
