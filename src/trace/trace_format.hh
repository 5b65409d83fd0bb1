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
 * This header holds the encoder; TraceReader (trace_reader.hh) is the
 * one decoder.
 */

#ifndef HEAPMD_TRACE_TRACE_FORMAT_HH
#define HEAPMD_TRACE_TRACE_FORMAT_HH

#include <cstdint>
#include <ostream>

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
 * Write a trace header.  Zero @p flags emits the compact version-1
 * header; any flag promotes the header to version 2.
 */
void putHeader(std::ostream &os, std::uint32_t flags = 0);

/**
 * Longest legal LEB128 encoding of a 64-bit value.  Encodings using
 * more bytes are rejected as overlong (audit rule
 * trace.varint-overlong).
 */
inline constexpr int kMaxVarintBytes = 10;

/** Write an unsigned LEB128 varint. */
void putVarint(std::ostream &os, std::uint64_t value);

/** Write a fixed-width little-endian u32. */
void putU32(std::ostream &os, std::uint32_t value);

} // namespace trace

} // namespace heapmd

#endif // HEAPMD_TRACE_TRACE_FORMAT_HH
