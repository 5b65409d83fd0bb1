/**
 * @file
 * Proof bench for the parallel replay pipeline + fast trace decode.
 *
 * Two measurements over a self-recorded corpus of traces:
 *
 *  1. Decode throughput (events/sec) of TraceReader over its two
 *     file sources: the block-buffered ifstream and the mmap-backed
 *     FileSource.
 *  2. Trace-train wall-clock at --jobs 1/2/4/8: the full
 *     replay-and-summarize pipeline of `heapmd train --trace`, with
 *     a byte-compare of the resulting models proving the parallel
 *     merge is deterministic.
 *
 * Emits BENCH_replay_throughput.json into the working directory
 * (run it from the repo root) and prints the headline numbers.
 * Speedup targets apply to multi-core CI hardware; the JSON records
 * hardwareConcurrency so a 1-core container result is legible, and
 * the sanitizer mode so instrumented-build numbers are never trended
 * against plain ones.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/heapmd.hh"
#include "support/build_env.hh"
#include "support/thread_pool.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_source.hh"
#include "trace/trace_writer.hh"

#if defined(HEAPMD_BENCH_SHIM_PATH) && defined(__unix__)
#define HEAPMD_BENCH_HAS_CAPTURE 1
#include <unistd.h>

#include "capture/capture_session.hh"
#include "obsv/segment.hh"
#endif

using namespace heapmd;

namespace
{

constexpr std::size_t kTraceCount = 16;
constexpr double kScale = 0.35;
constexpr std::uint64_t kFrq = 300;
constexpr int kDecodeReps = 3;

double
seconds(std::chrono::steady_clock::duration d)
{
    return std::chrono::duration_cast<std::chrono::duration<double>>(d)
        .count();
}

/** Record one synthetic run to @p path; returns its event count. */
std::uint64_t
recordTrace(SyntheticApp &app, std::uint64_t seed,
            const std::string &path)
{
    ProcessConfig pcfg;
    pcfg.metricFrequency = kFrq;
    Process process(pcfg);
    std::ofstream out(path, std::ios::binary);
    TraceWriter writer(out, process.registry());
    process.addEventObserver(&writer);
    AppConfig cfg;
    cfg.inputSeed = seed;
    cfg.scale = kScale;
    app.run(process, cfg);
    writer.finish();
    return writer.eventCount();
}

std::uint64_t
decodeBuffered(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    TraceReader reader(in);
    Event event;
    while (reader.next(event)) {
    }
    return reader.eventCount();
}

std::uint64_t
decodeMmap(const std::string &path)
{
    trace::FileSource source(path);
    TraceReader reader(source);
    Event event;
    while (reader.next(event)) {
    }
    return reader.eventCount();
}

/** Best-of-reps wall time decoding the whole corpus via @p decode. */
template <typename Fn>
double
timeDecode(const std::vector<std::string> &paths, Fn decode,
           std::uint64_t expected_events)
{
    double best = 0.0;
    for (int rep = 0; rep < kDecodeReps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        std::uint64_t events = 0;
        for (const std::string &path : paths)
            events += decode(path);
        const double wall =
            seconds(std::chrono::steady_clock::now() - start);
        if (events != expected_events) {
            std::fprintf(stderr,
                         "decode mismatch: %llu events, expected "
                         "%llu\n",
                         static_cast<unsigned long long>(events),
                         static_cast<unsigned long long>(
                             expected_events));
            std::exit(1);
        }
        if (rep == 0 || wall < best)
            best = wall;
    }
    return best;
}

/**
 * One `train --trace` equivalent over the corpus at the given worker
 * count; returns the wall time and the serialized model bytes.
 */
double
trainFromTraces(const std::vector<std::string> &paths, unsigned jobs,
                std::string &model_bytes)
{
    const auto start = std::chrono::steady_clock::now();
    std::vector<MetricSeries> runs(paths.size());
    parallelForIndexed(paths.size(), jobs, [&](std::size_t i) {
        trace::FileSource source(paths[i]);
        TraceReader reader(source);
        ProcessConfig pcfg;
        pcfg.metricFrequency = kFrq;
        Process process(pcfg);
        replayTrace(reader, process);
        runs[i] = process.series();
        runs[i].label = "trace:" + paths[i];
    });
    MetricSummarizer summarizer{SummarizerConfig{}};
    for (MetricSeries &run : runs)
        summarizer.addRun(run);
    const HeapModel model = summarizer.buildModel("bench");
    const double wall =
        seconds(std::chrono::steady_clock::now() - start);
    std::ostringstream out;
    model.save(out);
    model_bytes = out.str();
    return wall;
}

#ifdef HEAPMD_BENCH_HAS_CAPTURE

/**
 * The workload this bench re-execs itself into (--alloc-child) and
 * runs under the capture shim: a single-threaded allocator churn
 * loop, deterministic and long enough (~300k recorded ops) that a
 * 1% capture slowdown is meaningfully above timer noise.
 */
int
runAllocChild()
{
    constexpr int kIterations = 300000;
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    void *held[16] = {};
    std::uint64_t checksum = 0;
    for (int i = 0; i < kIterations; ++i) {
        state = state * 6364136223846793005ull +
                1442695040888963407ull;
        const std::size_t size = 16 + (state >> 33) % 240;
        const int slot = static_cast<int>(state % 16);
        if (held[slot] != nullptr && (state & 0x100) != 0) {
            held[slot] = std::realloc(held[slot], size);
        } else {
            std::free(held[slot]);
            held[slot] = std::malloc(size);
        }
        if (held[slot] != nullptr) {
            std::memset(held[slot], i & 0xff, size);
            checksum +=
                static_cast<unsigned char *>(held[slot])[0];
        }
    }
    for (void *ptr : held)
        std::free(ptr);
    std::printf("checksum %llu\n",
                static_cast<unsigned long long>(checksum));
    return 0;
}

/**
 * One captured run of the alloc child; returns host-side wall time.
 * @p segment toggles stats-segment publication (the ablation).
 */
double
captureWall(const std::string &self, bool segment,
            std::map<std::string, std::uint64_t> *counters)
{
    const std::string trace =
        (std::filesystem::temp_directory_path() /
         "heapmd_publish_bench.trace")
            .string();
    capture::SessionOptions options;
    options.tracePath = trace;
    options.scanFrequency = 100000;
    options.shimPath = HEAPMD_BENCH_SHIM_PATH;
    options.noSegment = !segment;
    capture::SessionResult result;
    std::string error;
    const auto start = std::chrono::steady_clock::now();
    if (!capture::runCapture({self, "--alloc-child"}, options,
                             result, error) ||
        !result.exited || result.exitCode != 0) {
        std::fprintf(stderr, "capture run failed: %s\n",
                     error.c_str());
        std::exit(1);
    }
    const double wall =
        seconds(std::chrono::steady_clock::now() - start);
    if (counters != nullptr)
        *counters = result.counters;
    std::error_code ec;
    std::filesystem::remove(trace, ec);
    std::filesystem::remove(trace + ".stats", ec);
    return wall;
}

/** Steady-state cost of one throttled gauge publish, in nanos. */
double
measurePublishNanos()
{
    obsv::SegmentWriter writer;
    const std::uint32_t pid =
        3899000000u +
        static_cast<std::uint32_t>(::getpid() % 1000000);
    if (!writer.create(pid, "replay_throughput"))
        return 0.0; // shm unavailable: report 0, skip the gate
    std::uint64_t values[8] = {};
    constexpr int kReps = 1000000;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kReps; ++i) {
        values[0] = static_cast<std::uint64_t>(i);
        writer.publishPrefix(values, 8);
    }
    const double wall =
        seconds(std::chrono::steady_clock::now() - start);
    writer.unlinkAndClose();
    return wall * 1e9 / kReps;
}

#endif // HEAPMD_BENCH_HAS_CAPTURE

} // namespace

int
main(int argc, char **argv)
{
#ifdef HEAPMD_BENCH_HAS_CAPTURE
    if (argc > 1 && std::strcmp(argv[1], "--alloc-child") == 0)
        return runAllocChild();
#else
    (void)argc;
    (void)argv;
#endif
    const unsigned hw = effectiveJobs(0);
    std::printf("replay throughput bench: %zu traces, %u hardware "
                "thread(s)\n",
                kTraceCount, hw);

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        "heapmd_replay_bench";
    std::filesystem::create_directories(dir);

    auto app = makeApp("vpr");
    std::vector<std::string> paths;
    std::uint64_t total_events = 0;
    std::uint64_t total_bytes = 0;
    for (std::size_t i = 0; i < kTraceCount; ++i) {
        std::string stem = "t";
        stem += std::to_string(i);
        stem += ".trace";
        const std::string path = (dir / stem).string();
        total_events += recordTrace(*app, 1 + i, path);
        total_bytes += std::filesystem::file_size(path);
        paths.push_back(path);
    }
    std::printf("recorded %llu events (%0.1f MiB)\n",
                static_cast<unsigned long long>(total_events),
                static_cast<double>(total_bytes) / (1024.0 * 1024.0));

    const double buffered_wall =
        timeDecode(paths, decodeBuffered, total_events);
    const double mmap_wall =
        timeDecode(paths, decodeMmap, total_events);
    const double buffered_eps = total_events / buffered_wall;
    const double mmap_eps = total_events / mmap_wall;
    std::printf("decode: buffered %0.2fM ev/s, mmap %0.2fM ev/s\n",
                buffered_eps / 1e6, mmap_eps / 1e6);

    const unsigned kJobs[] = {1, 2, 4, 8};
    double train_wall[4];
    std::string model_bytes[4];
    bool deterministic = true;
    for (int i = 0; i < 4; ++i) {
        train_wall[i] =
            trainFromTraces(paths, kJobs[i], model_bytes[i]);
        deterministic =
            deterministic && model_bytes[i] == model_bytes[0];
        std::printf("train --trace x%zu at jobs=%u: %0.3fs%s\n",
                    kTraceCount, kJobs[i], train_wall[i],
                    model_bytes[i] == model_bytes[0]
                        ? ""
                        : "  MODEL MISMATCH");
    }
    const double speedup = train_wall[0] / train_wall[3];
    // On a single-core host the jobs=8 run measures scheduler churn,
    // not the pipeline: publish the number, but flag it so nobody
    // charts a "regression" off a 1-vCPU CI container.
    const bool scaling_reliable = hw > 1;
    std::printf("train speedup jobs=8 vs jobs=1: %0.2fx on %u "
                "hardware thread(s); models %s%s\n",
                speedup, hw,
                deterministic ? "bit-identical" : "DIVERGED",
                scaling_reliable
                    ? ""
                    : "  [unreliable: single-core host, speedup "
                      "is noise]");

    // Stats-segment publication overhead: capture the alloc child
    // with and without the /dev/shm segment.  The raw wall delta is
    // reported for the curious but too noise-prone to gate a CI run
    // on (a 1% budget against ~0.3s runs); the gate instead uses
    // the implied cost: seqlock publishes actually made (sidecar
    // counter) x microtimed cost per publish, over the captured
    // run's wall time.  Throttling in the shim (1 gauge publish per
    // 32 recorded ops) is what keeps this under budget.
    bool publish_ok = true;
    std::string publish_json = "  \"segmentPublish\": "
                               "{\"skipped\": true},\n";
#ifdef HEAPMD_BENCH_HAS_CAPTURE
    {
        constexpr double kBudgetPct = 1.0;
        constexpr int kReps = 3;
        const std::string self =
            std::filesystem::read_symlink("/proc/self/exe")
                .string();
        const double publish_ns = measurePublishNanos();
        double wall_on = 0.0;
        double wall_off = 0.0;
        std::map<std::string, std::uint64_t> counters;
        for (int rep = 0; rep < kReps; ++rep) {
            std::map<std::string, std::uint64_t> rep_counters;
            const double on =
                captureWall(self, true, &rep_counters);
            const double off = captureWall(self, false, nullptr);
            if (rep == 0 || on < wall_on) {
                wall_on = on;
                counters = rep_counters;
            }
            if (rep == 0 || off < wall_off)
                wall_off = off;
        }
        const double publishes = static_cast<double>(
            counters["capture.segment_publishes"]);
        const double raw_delta_pct =
            (wall_on - wall_off) / wall_off * 100.0;
        const double implied_pct =
            publish_ns > 0.0
                ? publishes * publish_ns / (wall_on * 1e9) * 100.0
                : 0.0;
        publish_ok = implied_pct < kBudgetPct;
        std::printf(
            "segment publish: %0.0f publishes at %0.1f ns, capture "
            "%0.3fs on / %0.3fs off (raw %+0.2f%%), implied "
            "overhead %0.3f%% of capture [budget %0.1f%%] %s\n",
            publishes, publish_ns, wall_on, wall_off,
            raw_delta_pct, implied_pct, kBudgetPct,
            publish_ok ? "PASS" : "FAIL");
        char buffer[512];
        std::snprintf(
            buffer, sizeof(buffer),
            "  \"segmentPublish\": {\n"
            "    \"publishNanos\": %0.1f,\n"
            "    \"publishes\": %0.0f,\n"
            "    \"captureWallOnSeconds\": %0.4f,\n"
            "    \"captureWallOffSeconds\": %0.4f,\n"
            "    \"rawDeltaPct\": %0.3f,\n"
            "    \"impliedOverheadPct\": %0.4f,\n"
            "    \"budgetPct\": %0.1f,\n"
            "    \"pass\": %s\n"
            "  },\n",
            publish_ns, publishes, wall_on, wall_off,
            raw_delta_pct, implied_pct, kBudgetPct,
            publish_ok ? "true" : "false");
        publish_json = buffer;
    }
#endif

    std::FILE *json = std::fopen("BENCH_replay_throughput.json", "w");
    if (json == nullptr) {
        std::fprintf(stderr, "cannot write "
                             "BENCH_replay_throughput.json\n");
        return 1;
    }
    std::fprintf(
        json,
        "{\n"
        "  \"bench\": \"replay_throughput\",\n"
        "  \"hardwareConcurrency\": %u,\n"
        "  \"sanitizer\": \"%s\",\n"
        "  \"traceCount\": %zu,\n"
        "  \"totalEvents\": %llu,\n"
        "  \"totalBytes\": %llu,\n"
        "  \"decode\": {\n"
        "    \"bufferedEventsPerSec\": %0.0f,\n"
        "    \"mmapEventsPerSec\": %0.0f\n"
        "  },\n"
        "  \"train\": [\n"
        "    {\"jobs\": 1, \"wallSeconds\": %0.4f},\n"
        "    {\"jobs\": 2, \"wallSeconds\": %0.4f},\n"
        "    {\"jobs\": 4, \"wallSeconds\": %0.4f},\n"
        "    {\"jobs\": 8, \"wallSeconds\": %0.4f}\n"
        "  ],\n"
        "  \"trainSpeedupJobs8\": %0.3f,\n"
        "  \"trainSpeedupUnreliable\": %s,\n"
        "%s"
        "  \"modelsDeterministic\": %s\n"
        "}\n",
        hw, support::kSanitizeMode, kTraceCount,
        static_cast<unsigned long long>(total_events),
        static_cast<unsigned long long>(total_bytes), buffered_eps,
        mmap_eps, train_wall[0], train_wall[1],
        train_wall[2], train_wall[3], speedup,
        scaling_reliable ? "false" : "true",
        publish_json.c_str(), deterministic ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_replay_throughput.json\n");

    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return (deterministic && publish_ok) ? 0 : 1;
}
