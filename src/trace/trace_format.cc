#include "trace/trace_format.hh"

namespace heapmd
{

namespace trace
{

void
putVarint(std::ostream &os, std::uint64_t value)
{
    while (value >= 0x80) {
        os.put(static_cast<char>((value & 0x7F) | 0x80));
        value >>= 7;
    }
    os.put(static_cast<char>(value));
}

void
putU32(std::ostream &os, std::uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        os.put(static_cast<char>((value >> (8 * i)) & 0xFF));
}

void
putHeader(std::ostream &os, std::uint32_t flags)
{
    putU32(os, kMagic);
    putU32(os, flags == 0 ? kVersion : kVersionFlags);
    if (flags != 0)
        putU32(os, flags);
}

} // namespace trace

} // namespace heapmd
