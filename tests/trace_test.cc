/**
 * @file
 * Unit tests of the trace codec and record/replay equivalence.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "trace/trace_format.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_source.hh"
#include "trace/trace_writer.hh"

namespace heapmd
{

namespace
{

/** The header bytes the writer emits for @p flags. */
std::string
headerBytes(std::uint32_t flags = 0)
{
    char bytes[trace::kMaxHeaderBytes];
    return std::string(bytes, trace::encodeHeader(bytes, flags));
}

/** The writer's LEB128 encoding of @p value. */
std::string
varintBytes(std::uint64_t value)
{
    char bytes[trace::kMaxVarintBytes];
    return std::string(bytes, trace::encodeVarint(bytes, value));
}

/** A version-1 header followed by @p body. */
std::string
withHeader(const std::string &body)
{
    return headerBytes() + body;
}

TEST(VarintTest, RoundTripBoundaries)
{
    const std::uint64_t values[] = {
        0,    1,    127,  128,  129,  16383, 16384,
        (1ull << 32) - 1, 1ull << 32, ~0ull,
    };
    for (std::uint64_t v : values) {
        // Each value rides as the address of a Free event.
        std::stringstream ss(withHeader(
            static_cast<char>(EventKind::Free) + varintBytes(v)));
        TraceReader reader(ss);
        Event out;
        ASSERT_TRUE(reader.next(out)) << reader.error();
        EXPECT_EQ(out, Event::free(v));
    }
}

TEST(VarintTest, TruncatedFails)
{
    // Continuation byte without payload.
    std::stringstream ss(withHeader(std::string{'\x01', '\x80'}));
    TraceReader reader(ss);
    Event out;
    EXPECT_FALSE(reader.next(out));
    EXPECT_STREQ(reader.fault().rule, "trace.varint-truncated");
    EXPECT_EQ(reader.fault().offset, 9u);
    EXPECT_FALSE(reader.resume());
}

TEST(VarintTest, EmptyFails)
{
    std::stringstream ss(withHeader(std::string{'\x01'}));
    TraceReader reader(ss);
    Event out;
    EXPECT_FALSE(reader.next(out));
    EXPECT_STREQ(reader.fault().rule, "trace.varint-truncated");
}

TEST(VarintTest, OverlongKeepsValueAndResumes)
{
    // Write with an 11-byte address encoding (value 5), then a clean
    // value field: replay stops at the fault, a linter resumes past it
    // and gets the whole event.
    std::string body{'\x03', '\x85'};
    body += std::string(9, static_cast<char>(0x80));
    body += '\x00';
    body += '\x07';
    body += static_cast<char>(trace::kFooterMarker);
    body += '\x00';
    // Chunk size 1 takes the per-byte path, 4096 the fast path.
    for (std::size_t chunk : {1u, 4096u}) {
        std::stringstream ss(withHeader(body));
        TraceReader reader(ss, chunk);
        Event out;
        EXPECT_FALSE(reader.next(out));
        EXPECT_TRUE(reader.malformed());
        EXPECT_STREQ(reader.fault().rule, "trace.varint-overlong");
        EXPECT_EQ(reader.fault().offset, 9u);
        EXPECT_EQ(reader.offset(), 20u); // consumed to its last byte
        EXPECT_FALSE(reader.next(out));  // stopped until resumed
        ASSERT_TRUE(reader.resume());
        ASSERT_TRUE(reader.next(out));
        EXPECT_EQ(out, Event::write(5, 7));
        EXPECT_EQ(reader.eventOffset(), 8u);
        EXPECT_FALSE(reader.next(out));
        EXPECT_FALSE(reader.malformed());
        EXPECT_TRUE(reader.sawFooter());
    }
}

TEST(U32Test, RoundTrip)
{
    // The flags word of a version-2 header is a little-endian u32.
    std::stringstream ss(headerBytes(0xdeadbeef));
    TraceReader reader(ss);
    EXPECT_EQ(reader.header().version, trace::kVersionFlags);
    EXPECT_EQ(reader.header().flags, 0xdeadbeefu);
}

TEST(EventTest, FactoriesAndEquality)
{
    EXPECT_EQ(Event::alloc(1, 2), Event::alloc(1, 2));
    EXPECT_FALSE(Event::alloc(1, 2) == Event::alloc(1, 3));
    EXPECT_FALSE(Event::alloc(1, 2) == Event::free(1));
    EXPECT_STREQ(eventKindName(EventKind::Realloc), "realloc");
    EXPECT_STREQ(eventKindName(EventKind::FnEnter), "fn-enter");
}

TEST(TraceRoundTripTest, AllEventKinds)
{
    const std::vector<Event> events = {
        Event::alloc(0x1000, 64),
        Event::write(0x1000, 0x2000),
        Event::read(0x1008),
        Event::realloc(0x1000, 0x3000, 128),
        Event::fnEnter(7),
        Event::fnExit(7),
        Event::free(0x3000),
    };

    FunctionRegistry registry;
    registry.intern("alpha");
    registry.intern("beta");

    std::stringstream ss;
    TraceWriter writer(ss, registry);
    Tick tick = 0;
    for (const Event &e : events)
        writer.onEvent(e, ++tick);
    writer.finish();
    EXPECT_EQ(writer.eventCount(), events.size());

    TraceReader reader(ss);
    Event decoded;
    std::size_t i = 0;
    while (reader.next(decoded)) {
        ASSERT_LT(i, events.size());
        EXPECT_EQ(decoded, events[i]) << "event " << i;
        ++i;
    }
    EXPECT_EQ(i, events.size());
    EXPECT_FALSE(reader.malformed());
    ASSERT_EQ(reader.functionNames().size(), 2u);
    EXPECT_EQ(reader.functionNames()[0], "alpha");
    EXPECT_EQ(reader.functionNames()[1], "beta");
}

TEST(TraceRoundTripTest, FinishIsIdempotent)
{
    FunctionRegistry registry;
    std::stringstream ss;
    TraceWriter writer(ss, registry);
    writer.finish();
    writer.finish();
    TraceReader reader(ss);
    Event e;
    EXPECT_FALSE(reader.next(e));
    EXPECT_FALSE(reader.malformed());
}

TEST(TraceReaderDeathTest, BadMagicFatal)
{
    std::stringstream ss;
    ss << "NOTATRACE";
    EXPECT_DEATH(TraceReader reader(ss), "bad magic");
}

TEST(TraceReaderDeathTest, ShortHeaderIsBadMagic)
{
    // Fewer than 8 bytes: the same verdict the audit linter gives.
    std::stringstream ss(std::string("HMDT\x01", 5));
    EXPECT_DEATH(TraceReader reader(ss),
                 "file too short for the 8-byte header "
                 "\\[trace\\.bad-magic\\]");
}

TEST(TraceReaderTest, AuditModeReportsHeaderFaults)
{
    struct Case
    {
        std::string bytes;
        const char *rule;
        std::uint64_t offset;
        const char *text;
    };
    // A version-2 header cut before its flags word.
    const std::string v2 = headerBytes(1).substr(0, 8);
    const Case cases[] = {
        {std::string("HMDT\x01", 5), "trace.bad-magic", 0,
         "file too short for the 8-byte header"},
        {std::string("XXXX\x01\x00\x00\x00", 8), "trace.bad-magic", 0,
         "bad magic 0x58585858 (expected 0x54444d48 \"HMDT\")"},
        {std::string("HMDT\x63\x00\x00\x00", 8), "trace.bad-version", 4,
         "unsupported trace version 99 (expected 1 or 2)"},
        {v2, "trace.bad-version", 8,
         "version-2 header is missing its flags word"},
    };
    for (const Case &c : cases) {
        trace::MemorySource source(
            reinterpret_cast<const unsigned char *>(c.bytes.data()),
            c.bytes.size());
        TraceReader reader(source, TraceReader::Mode::Audit);
        EXPECT_TRUE(reader.malformed()) << c.text;
        EXPECT_TRUE(reader.fault().inHeader()) << c.text;
        EXPECT_STREQ(reader.fault().rule, c.rule);
        EXPECT_EQ(reader.fault().offset, c.offset) << c.text;
        EXPECT_EQ(reader.fault().headerText(), c.text);
        Event e;
        EXPECT_FALSE(reader.next(e));
    }
}

TEST(TraceReaderTest, TruncatedStreamFlagsMalformed)
{
    FunctionRegistry registry;
    std::stringstream ss;
    TraceWriter writer(ss, registry);
    writer.onEvent(Event::alloc(0x1000, 64), 1);
    // No finish(): once flushed, the stream ends without a footer.
    writer.flush();
    TraceReader reader(ss);
    Event e;
    EXPECT_TRUE(reader.next(e));
    EXPECT_FALSE(reader.next(e));
    EXPECT_TRUE(reader.malformed());
}

TEST(TraceWriterDurabilityTest, FlushLeavesReadableTruncatedTrace)
{
    FunctionRegistry registry;
    std::stringstream ss;
    int syncs = 0;
    TraceWriter writer(
        ss, registry,
        TraceWriterOptions{false, [&syncs] { ++syncs; }});
    writer.onEvent(Event::alloc(0x1000, 64), 1);
    writer.onEvent(Event::write(0x1000, 0x2000), 2);
    writer.flush();
    EXPECT_EQ(syncs, 1);
    EXPECT_EQ(writer.pendingBytes(), 0u);

    // The flushed prefix is a readable trace: both events decode,
    // then the reader reports truncation instead of corruption.
    {
        std::stringstream prefix(ss.str());
        TraceReader reader(prefix);
        Event e;
        EXPECT_TRUE(reader.next(e));
        EXPECT_EQ(e, Event::alloc(0x1000, 64));
        EXPECT_TRUE(reader.next(e));
        EXPECT_EQ(e, Event::write(0x1000, 0x2000));
        EXPECT_FALSE(reader.next(e));
        EXPECT_TRUE(reader.malformed());
    }

    // More than two blocks of events: between flushes the stream
    // holds whole drained blocks and the writer the rest, and the
    // next flush leaves every event readable.
    constexpr int kMore = 3000; // 5 bytes each
    Tick tick = 2;
    for (int i = 0; i < kMore; ++i)
        writer.onEvent(Event::write(0x1000 + 8 * (i % 16), 0x2000),
                       ++tick);
    // Header, the 4-byte alloc, then 5-byte writes.
    const std::size_t encoded = 8 + 4 + 5 * (kMore + 1);
    const std::size_t drained = ss.str().size();
    EXPECT_GT(drained, 2 * TraceWriter::kBlockBytes);
    EXPECT_EQ(drained + writer.pendingBytes(), encoded);
    writer.flush();
    EXPECT_EQ(syncs, 2);
    EXPECT_EQ(ss.str().size(), encoded);

    std::stringstream prefix(ss.str());
    TraceReader reader(prefix);
    Event e;
    std::uint64_t decoded = 0;
    while (reader.next(e))
        ++decoded;
    EXPECT_EQ(decoded, 2u + kMore);
    EXPECT_EQ(e, Event::write(0x1000 + 8 * ((kMore - 1) % 16), 0x2000));
    EXPECT_TRUE(reader.malformed());
    EXPECT_STREQ(reader.fault().rule, "trace.no-footer");
}

/**
 * Byte-at-a-time encoder written from the format description
 * (trace_format.hh), sharing no code with TraceWriter.
 */
struct ReferenceEncoder
{
    std::string bytes;

    void
    u32(std::uint32_t value)
    {
        for (int i = 0; i < 4; ++i)
            bytes += static_cast<char>((value >> (8 * i)) & 0xFF);
    }

    void
    varint(std::uint64_t value)
    {
        do {
            unsigned char byte = value & 0x7F;
            value >>= 7;
            if (value != 0)
                byte |= 0x80;
            bytes += static_cast<char>(byte);
        } while (value != 0);
    }

    void
    event(const Event &e)
    {
        bytes += static_cast<char>(e.kind);
        switch (e.kind) {
          case EventKind::Alloc:
            varint(e.addr);
            varint(e.size);
            break;
          case EventKind::Realloc:
            varint(e.addr);
            varint(e.value);
            varint(e.size);
            break;
          case EventKind::Write:
            varint(e.addr);
            varint(e.value);
            break;
          case EventKind::Free:
          case EventKind::Read:
            varint(e.addr);
            break;
          case EventKind::FnEnter:
          case EventKind::FnExit:
            varint(e.fn);
            break;
        }
    }
};

TEST(TraceWriterEncodeTest, EveryKindAtVarintBoundariesMatchesReference)
{
    const std::uint64_t values[] = {
        0, 127, 128, 16383, 16384, 1ull << 63, UINT64_MAX,
    };
    std::vector<Event> round;
    for (std::uint64_t a : values) {
        const FnId fn = static_cast<FnId>(
            a > UINT32_MAX ? UINT32_MAX : a);
        round.push_back(Event::fnEnter(fn));
        round.push_back(Event::fnExit(fn));
        round.push_back(Event::free(a));
        round.push_back(Event::read(a));
        for (std::uint64_t b : values) {
            round.push_back(Event::alloc(a, b));
            round.push_back(Event::write(a, b));
            for (std::uint64_t c : values)
                round.push_back(Event::realloc(a, b, c));
        }
    }
    // Three rounds of every combination: over two blocks of events.
    std::vector<Event> events;
    for (int i = 0; i < 3; ++i)
        events.insert(events.end(), round.begin(), round.end());

    FunctionRegistry registry;
    registry.intern("main");
    // Longer than a block, so the footer drains mid-name.
    registry.intern(std::string(TraceWriter::kBlockBytes + 100, 'n'));
    for (const bool provenance : {false, true}) {
        std::stringstream ss;
        {
            TraceWriterOptions options;
            options.captureProvenance = provenance;
            TraceWriter writer(ss, registry, options);
            Tick tick = 0;
            for (const Event &e : events)
                writer.onEvent(e, ++tick);
            writer.finish();
            EXPECT_EQ(writer.eventCount(), events.size());
        }

        ReferenceEncoder ref;
        ref.u32(trace::kMagic);
        ref.u32(provenance ? trace::kVersionFlags : trace::kVersion);
        if (provenance)
            ref.u32(trace::kFlagCaptureProvenance);
        for (const Event &e : events)
            ref.event(e);
        const std::size_t event_bytes = ref.bytes.size();
        ref.bytes += static_cast<char>(trace::kFooterMarker);
        ref.varint(registry.size());
        for (FnId fn = 0; fn < registry.size(); ++fn) {
            ref.varint(registry.name(fn).size());
            ref.bytes += registry.name(fn);
        }

        EXPECT_GT(event_bytes, 2 * TraceWriter::kBlockBytes);
        ASSERT_EQ(ss.str().size(), ref.bytes.size());
        EXPECT_TRUE(ss.str() == ref.bytes) << "provenance " << provenance;
    }
}

TEST(TraceWriterDurabilityTest, FinalizeIsFinishPlusFlush)
{
    FunctionRegistry registry;
    registry.intern("fn");
    std::stringstream ss;
    int syncs = 0;
    TraceWriter writer(
        ss, registry,
        TraceWriterOptions{false, [&syncs] { ++syncs; }});
    writer.onEvent(Event::fnEnter(0), 1);
    writer.finalize();
    EXPECT_TRUE(writer.finished());
    EXPECT_GE(syncs, 1);
    writer.finalize(); // idempotent
    EXPECT_TRUE(writer.finished());

    std::stringstream whole(ss.str());
    TraceReader reader(whole);
    Event e;
    EXPECT_TRUE(reader.next(e));
    EXPECT_FALSE(reader.next(e));
    EXPECT_FALSE(reader.malformed());
    ASSERT_EQ(reader.functionNames().size(), 1u);
    EXPECT_EQ(reader.functionNames()[0], "fn");
}

TEST(TraceWriterDurabilityTest, CaptureProvenanceHeaderRoundTrip)
{
    FunctionRegistry registry;

    std::stringstream live;
    TraceWriterOptions options;
    options.captureProvenance = true;
    TraceWriter live_writer(live, registry, options);
    live_writer.finish();
    TraceReader live_reader(live);
    EXPECT_TRUE(live_reader.captureProvenance());

    std::stringstream synth;
    TraceWriter synth_writer(synth, registry);
    synth_writer.finish();
    TraceReader synth_reader(synth);
    EXPECT_FALSE(synth_reader.captureProvenance());
}

TEST(TraceReplayTest, ReplayReproducesProcessState)
{
    // Drive a small workload through a recorded process.
    ProcessConfig cfg;
    cfg.metricFrequency = 3;
    Process recorded(cfg);
    std::stringstream ss;
    TraceWriter writer(ss, recorded.registry());
    recorded.addEventObserver(&writer);

    const FnId fn = recorded.registry().intern("work");
    for (int i = 0; i < 10; ++i) {
        recorded.onFnEnter(fn);
        const Addr a = 0x10000 + 0x100 * i;
        recorded.onAlloc(a, 64);
        if (i > 0)
            recorded.onWrite(a, a - 0x100);
        if (i == 5)
            recorded.onFree(0x10000);
        recorded.onFnExit(fn);
    }
    writer.finish();

    Process replayed(cfg);
    TraceReader reader(ss);
    const std::uint64_t n = replayTrace(reader, replayed);
    EXPECT_EQ(n, recorded.now());

    // Graph and series must match exactly.
    EXPECT_EQ(replayed.graph().vertexCount(),
              recorded.graph().vertexCount());
    EXPECT_EQ(replayed.graph().edgeCount(),
              recorded.graph().edgeCount());
    EXPECT_EQ(replayed.graph().stats().liveBytes,
              recorded.graph().stats().liveBytes);
    ASSERT_EQ(replayed.series().size(), recorded.series().size());
    for (std::size_t i = 0; i < replayed.series().size(); ++i) {
        for (MetricId id : kAllMetrics) {
            EXPECT_DOUBLE_EQ(replayed.series().at(i).value(id),
                             recorded.series().at(i).value(id));
        }
    }
    EXPECT_EQ(replayed.registry().name(fn), "work");
}

/** Everything one decode pass yields, for cross-path comparison. */
struct DecodeResult
{
    std::vector<Event> events;
    std::vector<std::string> names;
    std::uint64_t count = 0;
    bool malformed = false;
    std::string error;
};

DecodeResult
drain(TraceReader &reader)
{
    DecodeResult result;
    Event event;
    while (reader.next(event))
        result.events.push_back(event);
    result.names = reader.functionNames();
    result.count = reader.eventCount();
    result.malformed = reader.malformed();
    result.error = reader.error();
    return result;
}

DecodeResult
decodeChunked(const std::string &bytes, std::size_t chunk_size)
{
    std::stringstream ss(bytes);
    TraceReader reader(ss, chunk_size);
    return drain(reader);
}

DecodeResult
decodeMemory(const std::string &bytes)
{
    trace::MemorySource source(
        reinterpret_cast<const unsigned char *>(bytes.data()),
        bytes.size());
    TraceReader reader(source);
    return drain(reader);
}

/** A well-formed trace exercising every event kind repeatedly. */
std::string
mixedTrace(int rounds)
{
    FunctionRegistry registry;
    registry.intern("alpha");
    registry.intern("a-much-longer-function-name-for-the-footer");
    std::stringstream ss;
    TraceWriter writer(ss, registry);
    Tick tick = 0;
    for (int i = 0; i < rounds; ++i) {
        const Addr a = 0x1000 + 0x100 * i;
        writer.onEvent(Event::fnEnter(1), ++tick);
        writer.onEvent(Event::alloc(a, 64 + i), ++tick);
        writer.onEvent(Event::write(a, a + 8), ++tick);
        writer.onEvent(Event::read(a + 8), ++tick);
        writer.onEvent(Event::realloc(a, a + 0x40, 128), ++tick);
        writer.onEvent(Event::free(a + 0x40), ++tick);
        writer.onEvent(Event::fnExit(1), ++tick);
    }
    writer.finish();
    return ss.str();
}

TEST(BufferedDecodeTest, ChunkSizeInvariantDecode)
{
    const std::string bytes = mixedTrace(40);
    const DecodeResult baseline = decodeMemory(bytes);
    EXPECT_FALSE(baseline.malformed);
    EXPECT_EQ(baseline.count, 40u * 7u);
    ASSERT_EQ(baseline.names.size(), 2u);

    // Tiny chunk sizes force every decode path (tags, each varint
    // byte, the footer count/lengths/names) across refill boundaries.
    for (std::size_t chunk : {1u, 2u, 3u, 5u, 7u, 13u, 64u, 4096u}) {
        const DecodeResult got = decodeChunked(bytes, chunk);
        EXPECT_EQ(got.events, baseline.events) << "chunk " << chunk;
        EXPECT_EQ(got.names, baseline.names) << "chunk " << chunk;
        EXPECT_EQ(got.count, baseline.count) << "chunk " << chunk;
        EXPECT_FALSE(got.malformed) << "chunk " << chunk;
    }
}

TEST(BufferedDecodeTest, DefaultChunkRefillStraddle)
{
    // Enough events that the default 64 KiB buffer refills several
    // times, so varints and the footer straddle real boundaries.
    const std::string bytes = mixedTrace(6000);
    ASSERT_GT(bytes.size(), 3 * trace::kDefaultChunkSize);
    const DecodeResult got =
        decodeChunked(bytes, trace::kDefaultChunkSize);
    EXPECT_FALSE(got.malformed);
    EXPECT_EQ(got.count, 6000u * 7u);
    EXPECT_EQ(got.events, decodeMemory(bytes).events);
}

TEST(BufferedDecodeTest, ErrorStringsAreChunkSizeInvariant)
{
    const std::string h = headerBytes(); // 8-byte version-1 header

    struct Case
    {
        const char *label;
        std::string bytes;
        std::string error;
    };
    const std::vector<Case> cases = {
        {"no footer", h + '\x00' + '\x10' + '\x40',
         "stream ends at byte 11 without the footer marker "
         "[trace.no-footer]"},
        {"truncated varint",
         h + '\x00' + static_cast<char>(0x80),
         "stream ends inside a LEB128 varint "
         "[trace.varint-truncated] in alloc event at byte 8"},
        {"overlong varint",
         h + '\x00' +
             std::string(10, static_cast<char>(0x80)) + '\x01',
         "LEB128 varint longer than 10 bytes "
         "[trace.varint-overlong] in alloc event at byte 8"},
        {"unknown tag", h + '\x63',
         "unknown event tag 99 at byte 8 [trace.unknown-tag]"},
        {"footer count truncated",
         h + static_cast<char>(trace::kFooterMarker),
         "stream ends inside a LEB128 varint "
         "[trace.varint-truncated] in the function-table count "
         "[trace.footer-truncated]"},
        {"name length truncated",
         h + static_cast<char>(trace::kFooterMarker) + '\x02' +
             '\x01' + 'x',
         "stream ends inside a LEB128 varint "
         "[trace.varint-truncated] in the name length of function 1 "
         "of 2 [trace.footer-truncated]"},
    };
    for (const Case &c : cases) {
        const DecodeResult baseline = decodeMemory(c.bytes);
        EXPECT_TRUE(baseline.malformed) << c.label;
        EXPECT_EQ(baseline.error, c.error) << c.label;
        for (std::size_t chunk : {1u, 2u, 3u, 9u, 4096u}) {
            const DecodeResult got = decodeChunked(c.bytes, chunk);
            EXPECT_TRUE(got.malformed)
                << c.label << " chunk " << chunk;
            EXPECT_EQ(got.error, c.error)
                << c.label << " chunk " << chunk;
        }
    }
}

TEST(BufferedDecodeTest, FooterNameLengthOverflowIsBounded)
{
    // A corrupt footer declaring a multi-exabyte name length must
    // fail with the truncation rule -- after copying only the bytes
    // that exist, never pre-allocating the claimed length.
    const std::string bytes =
        withHeader(static_cast<char>(trace::kFooterMarker) +
                   varintBytes(1) +     // one function
                   varintBytes(~0ull) + // claimed name length
                   "ab");               // only two bytes follow

    for (std::size_t chunk : {1u, 4u, 4096u}) {
        const DecodeResult got = decodeChunked(bytes, chunk);
        EXPECT_TRUE(got.malformed) << "chunk " << chunk;
        EXPECT_EQ(got.error,
                  "stream ends inside the name of function 0 of 1 "
                  "[trace.footer-truncated]")
            << "chunk " << chunk;
        EXPECT_TRUE(got.names.empty());
    }
    EXPECT_EQ(decodeMemory(bytes).error,
              "stream ends inside the name of function 0 of 1 "
              "[trace.footer-truncated]");
}

TEST(BufferedDecodeTest, FileSourceMatchesStreamDecode)
{
    const std::string bytes = mixedTrace(25);
    const auto path = std::filesystem::temp_directory_path() /
                      "heapmd_trace_test_file.trace";
    {
        std::ofstream out(path, std::ios::binary);
        out << bytes;
    }
    trace::FileSource source(path.string());
    ASSERT_TRUE(source.ok()) << source.error();
    TraceReader reader(source);
    const DecodeResult got = drain(reader);
    EXPECT_EQ(got.events, decodeMemory(bytes).events);
    EXPECT_EQ(got.names, decodeMemory(bytes).names);
    EXPECT_FALSE(got.malformed);
    std::filesystem::remove(path);

    trace::FileSource missing(
        (std::filesystem::temp_directory_path() /
         "heapmd_no_such_trace.trace")
            .string());
    EXPECT_FALSE(missing.ok());
    EXPECT_FALSE(missing.error().empty());
}

TEST(TraceReplayTest, CompactEncoding)
{
    // Varint encoding keeps small traces small: every event here fits
    // well under the naive 33-byte fixed-width encoding.
    FunctionRegistry registry;
    std::stringstream ss;
    TraceWriter writer(ss, registry);
    for (int i = 0; i < 100; ++i)
        writer.onEvent(Event::fnEnter(3), i);
    writer.finish();
    EXPECT_LT(ss.str().size(), 100 * 3 + 32u);
}

} // namespace

} // namespace heapmd
