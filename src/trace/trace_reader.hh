/**
 * @file
 * Trace decoder and replay.
 *
 * TraceReader is the one decoder of HMDT bytes: replay, monitor, the
 * segment chain and the trace linter, whose pass also feeds the CLI's
 * replays and the flow pass, all read through it, so a trace means the
 * same thing to every stage.
 */

#ifndef HEAPMD_TRACE_TRACE_READER_HH
#define HEAPMD_TRACE_TRACE_READER_HH

#include <cstdint>
#include <istream>
#include <memory>
#include <string>
#include <vector>

#include "runtime/events.hh"
#include "trace/trace_format.hh"
#include "trace/trace_source.hh"

namespace heapmd
{

class Process;

namespace trace
{

/**
 * Why a TraceReader stopped, in audit-rule vocabulary.  The linters
 * render their findings from these fields; TraceReader::error()
 * renders the replay message from the same record.
 */
struct Fault
{
    /** Which part of the trace the fault sits in, in stream order. */
    enum class Site
    {
        None,        //!< no fault
        ShortHeader, //!< fewer than the 8 bytes of magic + version
        Magic,       //!< magic is not "HMDT" (word: the magic read)
        Version,     //!< unknown version (word: the version read)
        Flags,       //!< version-2 header without its flags word
        NoFooter,    //!< stream ends between events
        Event,       //!< unknown tag, or a bad varint inside an event
        FooterCount, //!< the function-table count varint
        NameLength,  //!< a function name's length varint
        Name,        //!< a function name's bytes
    };

    Site site = Site::None;
    const char *rule = nullptr;    //!< audit rule id
    std::uint64_t offset = 0;      //!< byte offset of the failing field
    std::uint64_t eventOffset = 0; //!< tag byte of the event, or the
                                   //!< footer marker (footer sites)
    int tag = -1;                  //!< the event's tag (Event site)
    std::uint32_t word = 0;        //!< Magic / Version sites
    std::uint64_t index = 0;       //!< function index (NameLength, Name)
    std::uint64_t count = 0;       //!< table size (NameLength, Name)
    std::uint64_t length = 0;      //!< declared name length (Name)

    /** An overlong varint: its value was kept, decoding can resume. */
    bool recoverable() const;

    /** The fault sits in the header (the reader decoded nothing). */
    bool inHeader() const
    {
        return site >= Site::ShortHeader && site <= Site::Flags;
    }

    /** The fault sits in the function table after the footer marker. */
    bool inFooter() const { return site >= Site::FooterCount; }

    /** Finding text of a header fault, without the rule id. */
    std::string headerText() const;
};

} // namespace trace

/**
 * Pull-based decoder for traces written by TraceWriter.
 *
 * Decoding runs over an internal block cursor fed whole chunks by a
 * trace::Source (64 KiB refills for streams, the whole mapping for
 * mmap-backed files), so the hot path never makes a virtual per-byte
 * stream call.  Every fault is a trace::Fault carrying the audit
 * linter's rule id and byte offsets; offsets count bytes from the
 * start of the trace, independent of how the source chunks it.
 *
 * Usage: construct, then call next() until it returns false; the
 * function table is available once the footer has been consumed.
 */
class TraceReader
{
  public:
    /** What the reader is for. */
    enum class Mode
    {
        /** Counts trace.events_decoded / trace.malformed; a bad header
         *  is fatal. */
        Replay,
        /** The linters' reader: silent to telemetry, and a bad header
         *  is a fault() like any other. */
        Audit,
    };

    /**
     * Decode from a stream through an internal StreamSource.
     * @param is source stream (binary); must outlive us.
     * @param chunk_size refill size; tests shrink it to force chunk
     *        boundaries through every decode path.
     */
    explicit TraceReader(std::istream &is,
                         std::size_t chunk_size =
                             trace::kDefaultChunkSize);

    /** Decode from an external source (mmap file, memory). */
    explicit TraceReader(trace::Source &source,
                         Mode mode = Mode::Replay);

    /** Count decodes from here on, for an Audit reader that also
     *  feeds a replay. */
    void countAsReplay() { mode_ = Mode::Replay; }

    /** Flushes the batched trace.events_decoded counter. */
    ~TraceReader();

    /**
     * Decode the next event into @p event.
     * @return false at the footer (function table is then parsed) or
     *         at a fault (malformed() will be true).
     */
    bool next(Event &event);

    /**
     * Continue past a recoverable fault (an overlong varint, whose
     * value is kept): the next next() finishes the event or footer
     * the varint belongs to.  Replay never resumes; the linter does,
     * so one corrupt field does not hide the rest of the trace (a
     * replay it feeds has already stopped at that fault's finding).
     * @return false when the last fault is not recoverable.
     */
    bool resume();

    /** True when the stream ended without a well-formed footer. */
    bool malformed() const { return malformed_; }

    /**
     * Description of why the stream is malformed, referencing the
     * audit rule id (trace.varint-truncated, trace.varint-overlong,
     * trace.no-footer, ...) and the byte offset where decoding
     * stopped.  Empty while malformed() is false.
     */
    const std::string &error() const { return error_; }

    /** The fault that stopped decoding; Site::None while clean. */
    const trace::Fault &fault() const { return fault_; }

    /** Function names from the footer, indexed by FnId. */
    const std::vector<std::string> &functionNames() const
    {
        return names_;
    }

    /** Events decoded so far. */
    std::uint64_t eventCount() const { return events_; }

    /** Bytes consumed from the start of the trace. */
    std::uint64_t offset() const
    {
        return base_ + static_cast<std::uint64_t>(cur_ - chunk_);
    }

    /**
     * Byte offset of the tag of the event next() last returned, or of
     * the footer marker once next() has returned false there.
     */
    std::uint64_t eventOffset() const { return event_offset_; }

    /** next() reached the footer marker. */
    bool sawFooter() const { return saw_footer_; }

    /** The decoded header (version, flags). */
    const trace::Header &header() const { return header_; }

    /**
     * True when the header declares live-capture provenance: the
     * trace was recorded from a real process by the interposition
     * shim, so a truncated stream means the process died mid-run.
     */
    bool captureProvenance() const
    {
        return header_.captureProvenance();
    }

  private:
    enum class Varint
    {
        Ok,
        Truncated,
        Overlong, //!< > kMaxVarintBytes; consumed to its last byte
    };

    void readHeader();
    void readFooter();
    void fail(const trace::Fault &fault);

    /**
     * Publish decoded-event telemetry accumulated since the last
     * flush.  The counter is batched — one atomic add per stream end
     * instead of one per event — because the LOCK'd increment is
     * measurable at decode rates of tens of millions of events/sec.
     */
    void flushEventCounter();

    bool refill();
    int getByte();
    bool getU32(std::uint32_t &value);
    Varint getVarint(std::uint64_t &value);
    Varint getVarintSlow(std::uint64_t &value);
    Varint skipOverlong();

    trace::Header header_;
    std::unique_ptr<trace::StreamSource> owned_;
    trace::Source *source_;
    Mode mode_ = Mode::Replay;
    const unsigned char *chunk_ = nullptr;
    const unsigned char *cur_ = nullptr;
    const unsigned char *end_ = nullptr;
    std::uint64_t base_ = 0;
    std::vector<std::string> names_;
    std::string error_;
    trace::Fault fault_;
    std::uint64_t events_ = 0;
    std::uint64_t counted_ = 0;
    std::uint64_t event_offset_ = 0;

    /** A half-decoded event, left by an overlong varint. */
    struct PendingEvent
    {
        bool pending = false;
        int tag = 0;
        int field = 0; //!< index of the next field to decode
        std::uint64_t fields[3] = {0, 0, 0};
    } resume_;

    /** Function-table decode position, so a resume continues it. */
    struct FooterState
    {
        bool haveCount = false;
        std::uint64_t count = 0;
        std::uint64_t index = 0; //!< next name to decode
        bool haveLength = false; //!< name @c index has its length
        std::uint64_t length = 0;
    } footer_;

    bool saw_footer_ = false;
    bool done_ = false;
    bool malformed_ = false;
};

/**
 * Replay a whole trace into @p process.
 *
 * The process must be fresh (its function registry empty) so that the
 * interned ids assigned during replay match the ids in the trace.
 *
 * @return number of events replayed.
 */
std::uint64_t replayTrace(TraceReader &reader, Process &process);

} // namespace heapmd

#endif // HEAPMD_TRACE_TRACE_READER_HH
