#include "trace/trace_reader.hh"

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "runtime/process.hh"
#include "support/logging.hh"
#include "telemetry/telemetry.hh"
#include "trace/trace_format.hh"

namespace heapmd
{

namespace
{

using Fault = trace::Fault;
using Site = trace::Fault::Site;

constexpr const char *kOverlongRule = "trace.varint-overlong";

/** Varints carried by each event kind, indexed by tag. */
constexpr int kFieldCount[] = {2, 1, 3, 2, 1, 1, 1};
constexpr int kLastTag = static_cast<int>(EventKind::FnExit);

/** Description of a bad varint, with its rule id. */
std::string
varintErrorText(const Fault &fault)
{
    if (fault.recoverable())
        return "LEB128 varint longer than " +
               std::to_string(trace::kMaxVarintBytes) +
               " bytes [trace.varint-overlong]";
    return "stream ends inside a LEB128 varint "
           "[trace.varint-truncated]";
}

/** The replay message of @p fault (TraceReader::error()). */
std::string
replayText(const Fault &fault)
{
    const std::string at = std::to_string(fault.eventOffset);
    switch (fault.site) {
      case Site::None:
        break;
      case Site::ShortHeader:
      case Site::Magic:
      case Site::Version:
      case Site::Flags:
        return fault.headerText() + " [" + fault.rule + "]";
      case Site::NoFooter:
        return "stream ends at byte " + at +
               " without the footer marker [trace.no-footer]";
      case Site::Event:
        if (fault.tag > kLastTag)
            return "unknown event tag " + std::to_string(fault.tag) +
                   " at byte " + at + " [trace.unknown-tag]";
        return varintErrorText(fault) + " in " +
               eventKindName(static_cast<EventKind>(fault.tag)) +
               " event at byte " + at;
      case Site::FooterCount:
        return varintErrorText(fault) +
               " in the function-table count [trace.footer-truncated]";
      case Site::NameLength:
        return varintErrorText(fault) + " in the name length of "
               "function " + std::to_string(fault.index) + " of " +
               std::to_string(fault.count) + " [trace.footer-truncated]";
      case Site::Name:
        return "stream ends inside the name of function " +
               std::to_string(fault.index) + " of " +
               std::to_string(fault.count) + " [trace.footer-truncated]";
    }
    return {};
}

} // namespace

namespace trace
{

bool
Fault::recoverable() const
{
    return rule != nullptr && std::string_view(rule) == kOverlongRule;
}

std::string
Fault::headerText() const
{
    switch (site) {
      case Site::ShortHeader:
        return "file too short for the 8-byte header";
      case Site::Magic: {
        char buf[64];
        std::snprintf(buf, sizeof buf,
                      "bad magic 0x%x (expected 0x%x \"HMDT\")", word,
                      kMagic);
        return buf;
      }
      case Site::Version:
        return "unsupported trace version " + std::to_string(word) +
               " (expected " + std::to_string(kVersion) + " or " +
               std::to_string(kVersionFlags) + ")";
      case Site::Flags:
        return "version-2 header is missing its flags word";
      default:
        return {};
    }
}

} // namespace trace

TraceReader::TraceReader(std::istream &is, std::size_t chunk_size)
    : owned_(std::make_unique<trace::StreamSource>(is, chunk_size)),
      source_(owned_.get())
{
    readHeader();
}

TraceReader::TraceReader(trace::Source &source, Mode mode)
    : source_(&source), mode_(mode)
{
    readHeader();
}

TraceReader::~TraceReader()
{
    // Covers callers that stop decoding before the stream ends.
    flushEventCounter();
}

void
TraceReader::flushEventCounter()
{
    if (mode_ == Mode::Replay && events_ != counted_) {
        HEAPMD_COUNTER_ADD("trace.events_decoded",
                           events_ - counted_);
        counted_ = events_;
    }
}

bool
TraceReader::refill()
{
    base_ += static_cast<std::uint64_t>(cur_ - chunk_);
    const unsigned char *data = nullptr;
    const std::size_t got = source_->next(data);
    if (got == 0) {
        chunk_ = cur_ = end_ = nullptr;
        return false;
    }
    chunk_ = cur_ = data;
    end_ = data + got;
    return true;
}

int
TraceReader::getByte()
{
    if (cur_ == end_ && !refill())
        return -1;
    return *cur_++;
}

inline TraceReader::Varint
TraceReader::getVarint(std::uint64_t &value)
{
    // Fast path: a longest-legal varint plus its overlong witness
    // byte fit in the current chunk, so decode with no bounds checks.
    // It stays small enough to inline into every field decode.
    if (end_ - cur_ > trace::kMaxVarintBytes) {
        const unsigned char *p = cur_;
        std::uint64_t v = 0;
        int shift = 0;
        for (int i = 0; i < trace::kMaxVarintBytes; ++i) {
            const std::uint64_t byte = *p++;
            v |= (byte & 0x7F) << shift;
            if ((byte & 0x80) == 0) {
                cur_ = p;
                value = v;
                return Varint::Ok;
            }
            shift += 7;
        }
    }
    return getVarintSlow(value);
}

/** Per-byte decode: across refill boundaries, and overlong varints. */
TraceReader::Varint
TraceReader::getVarintSlow(std::uint64_t &value)
{
    value = 0;
    int shift = 0;
    for (int length = 1;; ++length) {
        const int ch = getByte();
        if (ch < 0)
            return Varint::Truncated;
        const auto byte = static_cast<std::uint64_t>(ch);
        value |= (byte & 0x7F) << shift;
        if ((byte & 0x80) == 0)
            return Varint::Ok;
        if (length == trace::kMaxVarintBytes)
            return skipOverlong();
        shift += 7;
    }
}

/**
 * Ten continuation bytes make a varint overlong.  Its value keeps
 * their payload; the rest of the encoding is consumed through its
 * terminating byte, so framing survives the fault.
 */
TraceReader::Varint
TraceReader::skipOverlong()
{
    for (;;) {
        const int ch = getByte();
        if (ch < 0)
            return Varint::Truncated;
        if ((ch & 0x80) == 0)
            return Varint::Overlong;
    }
}

bool
TraceReader::getU32(std::uint32_t &value)
{
    value = 0;
    for (int i = 0; i < 4; ++i) {
        const int ch = getByte();
        if (ch < 0)
            return false;
        value |= static_cast<std::uint32_t>(ch) << (8 * i);
    }
    return true;
}

void
TraceReader::readHeader()
{
    Fault fault;
    std::uint32_t magic = 0;
    if (!getU32(magic) || !getU32(header_.version)) {
        fault.site = Site::ShortHeader;
        fault.rule = "trace.bad-magic";
    } else if (magic != trace::kMagic) {
        fault.site = Site::Magic;
        fault.rule = "trace.bad-magic";
        fault.word = magic;
    } else if (header_.version != trace::kVersion &&
               header_.version != trace::kVersionFlags) {
        fault.site = Site::Version;
        fault.rule = "trace.bad-version";
        fault.offset = 4;
        fault.word = header_.version;
    } else if (header_.version == trace::kVersionFlags &&
               !getU32(header_.flags)) {
        fault.site = Site::Flags;
        fault.rule = "trace.bad-version";
        fault.offset = 8;
    }
    if (fault.site == Site::None)
        return;
    header_ = trace::Header{};
    fail(fault);
    if (mode_ == Mode::Replay)
        HEAPMD_FATAL("unreadable trace header: ", error_);
}

void
TraceReader::fail(const Fault &fault)
{
    done_ = true;
    malformed_ = true;
    fault_ = fault;
    error_ = replayText(fault);
    if (mode_ == Mode::Replay) {
        flushEventCounter();
        HEAPMD_COUNTER_INC("trace.malformed");
    }
}

bool
TraceReader::resume()
{
    if (!fault_.recoverable())
        return false;
    fault_ = Fault{};
    error_.clear();
    malformed_ = false;
    done_ = false;
    return true;
}

bool
TraceReader::next(Event &event)
{
    if (done_)
        return false;
    if (saw_footer_) {
        readFooter(); // resumed inside the function table
        return false;
    }

    int tag = 0;
    int field = 0;
    std::uint64_t f[3] = {0, 0, 0};
    if (resume_.pending) {
        resume_.pending = false;
        tag = resume_.tag;
        field = resume_.field;
        std::copy(resume_.fields, resume_.fields + 3, f);
    } else {
        event_offset_ = offset();
        tag = getByte();
        if (tag < 0) {
            Fault fault;
            fault.site = Site::NoFooter;
            fault.rule = "trace.no-footer";
            fault.offset = fault.eventOffset = event_offset_;
            fail(fault);
            return false;
        }
        if (static_cast<std::uint8_t>(tag) == trace::kFooterMarker) {
            saw_footer_ = true;
            flushEventCounter();
            readFooter();
            return false;
        }
        if (tag > kLastTag) {
            Fault fault;
            fault.site = Site::Event;
            fault.rule = "trace.unknown-tag";
            fault.offset = fault.eventOffset = event_offset_;
            fault.tag = tag;
            fail(fault);
            return false;
        }
    }

    for (const int count = kFieldCount[tag]; field < count; ++field) {
        const std::uint64_t field_offset = offset();
        const Varint status = getVarint(f[field]);
        if (status == Varint::Ok)
            continue;
        Fault fault;
        fault.site = Site::Event;
        fault.rule = status == Varint::Overlong
                         ? kOverlongRule
                         : "trace.varint-truncated";
        fault.offset = field_offset;
        fault.eventOffset = event_offset_;
        fault.tag = tag;
        if (status == Varint::Overlong) {
            resume_.pending = true;
            resume_.tag = tag;
            resume_.field = field + 1;
            std::copy(f, f + 3, resume_.fields);
        }
        fail(fault);
        return false;
    }

    event = Event{};
    event.kind = static_cast<EventKind>(tag);
    switch (event.kind) {
      case EventKind::Alloc:
        event.addr = f[0];
        event.size = f[1];
        break;
      case EventKind::Free:
      case EventKind::Read:
        event.addr = f[0];
        break;
      case EventKind::Realloc:
        event.addr = f[0];
        event.value = f[1];
        event.size = f[2];
        break;
      case EventKind::Write:
        event.addr = f[0];
        event.value = f[1];
        break;
      case EventKind::FnEnter:
      case EventKind::FnExit:
        event.fn = static_cast<FnId>(f[0]);
        break;
    }
    ++events_;
    return true;
}

void
TraceReader::readFooter()
{
    FooterState &st = footer_;
    Fault fault;
    fault.eventOffset = event_offset_;
    const auto varintFault = [&](Varint status, Site site,
                                 std::uint64_t at) {
        fault.site = site;
        fault.rule = status == Varint::Overlong
                         ? kOverlongRule
                         : "trace.footer-truncated";
        fault.offset = at;
        fault.index = st.index;
        fault.count = st.count;
        fail(fault);
    };

    if (!st.haveCount) {
        const std::uint64_t at = offset();
        const Varint status = getVarint(st.count);
        if (status == Varint::Truncated) {
            varintFault(status, Site::FooterCount, at);
            return;
        }
        st.haveCount = true;
        // The count is attacker-controlled; names_ grows as names
        // decode rather than pre-reserving a potentially huge claim.
        names_.reserve(static_cast<std::size_t>(
            std::min<std::uint64_t>(st.count, 4096)));
        if (status == Varint::Overlong) {
            varintFault(status, Site::FooterCount, at);
            return;
        }
    }
    for (; st.index < st.count; ++st.index) {
        if (!st.haveLength) {
            const std::uint64_t at = offset();
            const Varint status = getVarint(st.length);
            if (status == Varint::Truncated) {
                varintFault(status, Site::NameLength, at);
                return;
            }
            st.haveLength = true;
            if (status == Varint::Overlong) {
                varintFault(status, Site::NameLength, at);
                return;
            }
        }
        st.haveLength = false;
        // Copy the name chunk-by-chunk: the declared length is only
        // trusted as far as bytes actually exist, so a corrupt
        // multi-gigabyte length cannot drive a huge pre-allocation.
        const std::uint64_t at = offset();
        std::string name;
        name.reserve(static_cast<std::size_t>(
            std::min<std::uint64_t>(st.length, 4096)));
        std::uint64_t remaining = st.length;
        while (remaining > 0) {
            if (cur_ == end_ && !refill()) {
                fault.site = Site::Name;
                fault.rule = "trace.footer-truncated";
                fault.offset = at;
                fault.index = st.index;
                fault.count = st.count;
                fault.length = st.length;
                fail(fault);
                return;
            }
            const auto take = static_cast<std::size_t>(
                std::min<std::uint64_t>(
                    static_cast<std::uint64_t>(end_ - cur_),
                    remaining));
            name.append(reinterpret_cast<const char *>(cur_), take);
            cur_ += take;
            remaining -= take;
        }
        names_.push_back(std::move(name));
    }
    done_ = true;
}

std::uint64_t
replayTrace(TraceReader &reader, Process &process)
{
    HEAPMD_TRACE_SPAN("trace.replay");
    HEAPMD_PHASE_SPAN_NAMED(phase, "phase.decode");
    HEAPMD_COUNTER_INC("trace.replays");
    if (process.registry().size() != 0)
        warn("replaying into a process with a non-empty function "
             "registry; symbolization may be wrong");

    Event event;
    std::uint64_t replayed = 0;
    while (reader.next(event)) {
        process.onEvent(event);
        ++replayed;
    }
    phase.addBytes(reader.offset());
    if (reader.malformed())
        warn("malformed trace: ", reader.error(), "; replayed ",
             replayed, " events");

    // Rebuild the registry so reports symbolize correctly.
    for (const std::string &name : reader.functionNames())
        process.registry().intern(name);
    return replayed;
}

} // namespace heapmd
