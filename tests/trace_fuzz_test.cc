/**
 * @file
 * Property tests of the trace codec: arbitrary valid event streams
 * must round-trip exactly, replay must reproduce logger state
 * bit-for-bit, and corrupted streams must be rejected without
 * crashing.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "analysis/trace_lint.hh"
#include "runtime/address_space.hh"
#include "support/random.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_source.hh"
#include "trace/trace_writer.hh"

namespace heapmd
{

namespace
{

/** Generate a random-but-valid event stream. */
std::vector<Event>
randomEvents(std::uint64_t seed, std::size_t count)
{
    Rng rng(seed);
    AddressSpace space;
    std::vector<Addr> live;
    std::vector<Event> events;
    events.reserve(count);

    while (events.size() < count) {
        const std::uint64_t kind = rng.below(100);
        if (kind < 25 || live.empty()) {
            const std::uint64_t size = 8 + rng.below(300);
            const Addr addr = space.allocate(size);
            live.push_back(addr);
            events.push_back(Event::alloc(addr, size));
        } else if (kind < 35) {
            const std::size_t i = rng.below(live.size());
            events.push_back(Event::free(live[i]));
            space.release(live[i]);
            live[i] = live.back();
            live.pop_back();
        } else if (kind < 40) {
            const std::size_t i = rng.below(live.size());
            const std::uint64_t size = 8 + rng.below(600);
            const Addr new_addr = space.reallocate(live[i], size);
            events.push_back(
                Event::realloc(live[i], new_addr, size));
            live[i] = new_addr;
        } else if (kind < 70) {
            const Addr owner = live[rng.below(live.size())];
            const Addr target = live[rng.below(live.size())];
            events.push_back(
                Event::write(owner + 8 * rng.below(4), target));
        } else if (kind < 80) {
            events.push_back(
                Event::read(live[rng.below(live.size())]));
        } else if (kind < 90) {
            events.push_back(
                Event::fnEnter(static_cast<FnId>(rng.below(32))));
        } else {
            events.push_back(
                Event::fnExit(static_cast<FnId>(rng.below(32))));
        }
    }
    return events;
}

class TraceFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TraceFuzzTest, StreamRoundTripsExactly)
{
    const std::vector<Event> events =
        randomEvents(GetParam(), 2000);

    FunctionRegistry registry;
    for (int i = 0; i < 32; ++i)
        registry.intern("fn_" + std::to_string(i));

    std::stringstream ss;
    TraceWriter writer(ss, registry);
    Tick tick = 0;
    for (const Event &e : events)
        writer.onEvent(e, ++tick);
    writer.finish();

    TraceReader reader(ss);
    Event decoded;
    std::size_t i = 0;
    while (reader.next(decoded)) {
        ASSERT_LT(i, events.size());
        ASSERT_EQ(decoded, events[i]) << "event " << i;
        ++i;
    }
    EXPECT_EQ(i, events.size());
    EXPECT_FALSE(reader.malformed());
    EXPECT_EQ(reader.functionNames().size(), 32u);
}

TEST_P(TraceFuzzTest, ReplayReproducesLoggerStateExactly)
{
    const std::vector<Event> events =
        randomEvents(GetParam() * 7 + 1, 3000);

    ProcessConfig cfg;
    cfg.metricFrequency = 17;
    Process original(cfg);
    std::stringstream ss;
    TraceWriter writer(ss, original.registry());
    original.addEventObserver(&writer);
    for (const Event &e : events)
        original.onEvent(e);
    writer.finish();

    Process replayed(cfg);
    TraceReader reader(ss);
    replayTrace(reader, replayed);

    EXPECT_EQ(replayed.now(), original.now());
    EXPECT_EQ(replayed.fnEntries(), original.fnEntries());
    EXPECT_EQ(replayed.graph().vertexCount(),
              original.graph().vertexCount());
    EXPECT_EQ(replayed.graph().edgeCount(),
              original.graph().edgeCount());
    EXPECT_EQ(replayed.graph().stats().liveBytes,
              original.graph().stats().liveBytes);
    EXPECT_EQ(replayed.graph().stats().unknownFrees,
              original.graph().stats().unknownFrees);
    ASSERT_EQ(replayed.series().size(), original.series().size());
    for (std::size_t i = 0; i < replayed.series().size(); ++i) {
        for (MetricId id : kAllMetrics) {
            ASSERT_DOUBLE_EQ(replayed.series().at(i).value(id),
                             original.series().at(i).value(id));
        }
    }
    replayed.graph().checkConsistency();
}

/**
 * Decode @p bytes with the replay reader; whatever it rejects, the
 * static linter must flag too: a clean audit is a promise that replay
 * will succeed.
 * @return events decoded.
 */
std::size_t
expectLintFlagsWhatReplayRejects(const std::string &bytes,
                                 const std::string &label)
{
    std::stringstream in(bytes);
    TraceReader reader(in);
    Event e;
    std::size_t decoded = 0;
    while (reader.next(e))
        ++decoded;
    if (reader.malformed()) {
        EXPECT_FALSE(reader.error().empty()) << label;
        analysis::Report report;
        analysis::lintTrace(bytes, report);
        EXPECT_FALSE(report.clean())
            << "reader rejected " << label << " (" << reader.error()
            << ") but the linter found nothing";
    }
    return decoded;
}

TEST_P(TraceFuzzTest, TruncationNeverCrashes)
{
    const std::vector<Event> events = randomEvents(GetParam(), 300);
    FunctionRegistry registry;
    std::stringstream ss;
    TraceWriter writer(ss, registry);
    Tick tick = 0;
    for (const Event &e : events)
        writer.onEvent(e, ++tick);
    writer.finish();
    const std::string full = ss.str();

    Rng rng(GetParam() * 13 + 5);
    for (int trial = 0; trial < 20; ++trial) {
        // Cut somewhere after the header.  Either we hit a clean
        // footer (cut landed after it) or the stream is flagged
        // malformed; both are acceptable, crashing is not.
        const std::size_t cut = 8 + rng.below(full.size() - 8);
        EXPECT_LE(expectLintFlagsWhatReplayRejects(
                      full.substr(0, cut),
                      "a " + std::to_string(cut) + "-byte prefix"),
                  events.size());
    }

    // The same agreement under corruption: every single byte past the
    // header, inverted.
    for (std::size_t at = 8; at < full.size(); ++at) {
        std::string corrupt = full;
        corrupt[at] = static_cast<char>(corrupt[at] ^ 0xFF);
        expectLintFlagsWhatReplayRejects(
            corrupt, "byte " + std::to_string(at) + " inverted");
    }
}

TEST_P(TraceFuzzTest, DecodePathsAgreeOnArbitraryPrefixes)
{
    // The buffered stream decoder (at hostile chunk sizes) and the
    // single-chunk memory decoder must agree byte-for-byte on what
    // any prefix means: same events, same malformed flag, same error
    // string, same function table.
    const std::vector<Event> events = randomEvents(GetParam(), 400);
    FunctionRegistry registry;
    for (int i = 0; i < 8; ++i)
        registry.intern("fn_" + std::to_string(i));
    std::stringstream ss;
    TraceWriter writer(ss, registry);
    Tick tick = 0;
    for (const Event &e : events)
        writer.onEvent(e, ++tick);
    writer.finish();
    const std::string full = ss.str();

    Rng rng(GetParam() * 31 + 7);
    for (int trial = 0; trial < 15; ++trial) {
        const std::size_t cut =
            trial == 0 ? full.size()
                       : 8 + rng.below(full.size() - 8);
        const std::string bytes = full.substr(0, cut);

        trace::MemorySource memory(
            reinterpret_cast<const unsigned char *>(bytes.data()),
            bytes.size());
        TraceReader baseline(memory);
        std::uint64_t base_count = 0;
        Event e;
        while (baseline.next(e))
            ++base_count;

        for (std::size_t chunk : {1u, 7u, 64u}) {
            std::stringstream in(bytes);
            TraceReader reader(in, chunk);
            std::uint64_t count = 0;
            while (reader.next(e))
                ++count;
            ASSERT_EQ(count, base_count)
                << "cut " << cut << " chunk " << chunk;
            ASSERT_EQ(reader.malformed(), baseline.malformed())
                << "cut " << cut << " chunk " << chunk;
            ASSERT_EQ(reader.error(), baseline.error())
                << "cut " << cut << " chunk " << chunk;
            ASSERT_EQ(reader.functionNames(),
                      baseline.functionNames())
                << "cut " << cut << " chunk " << chunk;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

class AddressSpaceFuzzTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(AddressSpaceFuzzTest, BlocksNeverOverlapAndReuseIsSound)
{
    Rng rng(GetParam());
    AddressSpace space;
    std::map<Addr, std::uint64_t> live; // addr -> class size

    for (int op = 0; op < 4000; ++op) {
        if (live.size() < 4 || rng.chance(0.55)) {
            const std::uint64_t size = 1 + rng.below(6000);
            const Addr addr = space.allocate(size);
            const std::uint64_t cls =
                AddressSpace::roundToClass(size);
            // No overlap with any live block.
            auto next = live.lower_bound(addr);
            if (next != live.end()) {
                ASSERT_LE(addr + cls, next->first);
            }
            if (next != live.begin()) {
                auto prev = std::prev(next);
                ASSERT_LE(prev->first + prev->second, addr);
            }
            ASSERT_EQ(addr % AddressSpace::kAlignment, 0u);
            live.emplace(addr, cls);
        } else {
            auto it = live.begin();
            std::advance(it, rng.below(live.size()));
            ASSERT_TRUE(space.release(it->first));
            ASSERT_FALSE(space.release(it->first)); // double free
            live.erase(it);
        }
        ASSERT_EQ(space.liveCount(), live.size());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AddressSpaceFuzzTest,
                         ::testing::Values(7, 14, 21, 28));

} // namespace

} // namespace heapmd
