/**
 * @file
 * Scale gate of the slot-map heap-graph core (DESIGN.md §16).
 *
 * Drives a deterministic event stream (ramp to N live objects with
 * pointer wiring, then steady-state alloc/free/write churn) through
 * the production arena + page-index HeapGraph.
 *
 * At 1M live objects the run is GATED: the core must fold events at
 * >= an absolute floor, and the p99 latency of a metric point
 * (MetricEngine::sample alone) must stay under budget -- a metric
 * point reads the incremental degree census, so its cost must not
 * grow with the live-object count.  The same measurements at 10M
 * live objects are REPORTED (the O(1) flatness evidence) but not
 * gated.  The pipeline ledger's metrics.point_ns_* times the whole
 * Process::forceSample around this call (BENCH_pipeline.json).
 *
 * Emits BENCH_heapgraph_scale.json; exits non-zero when a gate fails
 * (gates are informational under sanitizers, which skew timing).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "heapgraph/heap_graph.hh"
#include "metrics/metric_engine.hh"
#include "support/build_env.hh"
#include "support/logging.hh"

namespace heapmd
{

namespace
{

constexpr std::uint64_t kGatedLive = 1'000'000;
constexpr std::uint64_t kReportedLive = 10'000'000;
/** Steady-state churn events after the ramp, per trial. */
constexpr std::uint64_t kChurnEvents = 2'000'000;
/** Timed trials per run; the gate uses the fastest (min-time
 *  estimator: scheduler noise on a shared runner only ever adds
 *  time, so the minimum is the least-contaminated measurement). */
constexpr int kChurnTrials = 3;
constexpr double kMinEventsPerSec = 1e6;
constexpr double kMaxP99SampleNs = 10'000.0; // 10 us per metric point
constexpr int kSamplePoints = 512;

double
nowNs()
{
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct ChurnResult
{
    std::uint64_t events = 0;
    std::uint64_t liveObjects = 0;
    std::uint64_t liveEdges = 0;
    double rampSeconds = 0.0;
    double seconds = 0.0;

    double
    eventsPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(events) / seconds
                             : 0.0;
    }
};

/**
 * Deterministic workload: ramp to @p target_live objects (each new
 * object immediately wired to a random live one), then
 * @p churn_events of mixed alloc/free/write traffic holding the live
 * count near the target, repeated kChurnTrials times with the
 * fastest trial reported.  Addresses come from a bump allocator, so
 * every run sees the exact same stream.  Only the steady-state churn
 * is timed: the gate is the event rate AT the target live count, not
 * averaged over the ramp's small-n prefix.
 */
ChurnResult
runChurn(HeapGraph &g, std::uint64_t target_live,
         std::uint64_t churn_events)
{
    std::vector<std::pair<Addr, std::uint32_t>> live;
    live.reserve(target_live + target_live / 8);
    Addr next_addr = 0x100000;
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    const auto rng = [&state]() {
        state = state * 6364136223846793005ull +
                1442695040888963407ull;
        return state >> 17;
    };
    Tick tick = 0;
    ChurnResult result;

    const auto doAlloc = [&]() {
        const std::uint32_t size =
            16 + static_cast<std::uint32_t>(rng() & 0xF0);
        const Addr addr = next_addr;
        next_addr += (size + 15) & ~std::uint64_t{15};
        g.allocate(addr, size, kNoFunction, ++tick);
        live.emplace_back(addr, size);
        ++result.events;
    };
    const auto doWrite = [&]() {
        const auto &[owner, owner_size] = live[rng() % live.size()];
        // Stores land in the first few pointer-sized fields, like the
        // handful of pointer members a real struct carries; this also
        // bounds out-degree, so edge density equilibrates instead of
        // creeping for the whole run (which would make later trials
        // measure a denser graph than earlier ones).
        const std::uint64_t fields =
            std::min<std::uint64_t>(owner_size / 8, 4);
        const Addr slot = owner + (rng() % fields) * 8;
        Addr value = 0;
        const std::uint64_t v = rng() % 10;
        if (v < 7) {
            const auto &[target, target_size] =
                live[rng() % live.size()];
            value = target + rng() % target_size;
        } else if (v < 9) {
            value = rng() % 1000; // data word, not a pointer
        }
        g.write(slot, value);
        ++result.events;
    };
    const auto doFree = [&]() {
        const std::size_t i = rng() % live.size();
        g.free(live[i].first);
        live[i] = live.back();
        live.pop_back();
        ++result.events;
    };

    const double ramp0 = nowNs();
    while (live.size() < target_live) {
        doAlloc();
        if (live.size() > 1)
            doWrite(); // wire as we grow: realistic pointer density
    }
    result.rampSeconds = (nowNs() - ramp0) * 1e-9;

    // Steady-state mix: pointer stores dominate a real event stream
    // (the instrumentation sees every pointer-sized write, but only
    // allocator calls make vertices), so churn is 80% writes with
    // matched alloc/free traffic holding the live count on target.
    // Best-of-kChurnTrials: the stream keeps advancing, so every
    // trial is steady-state churn at the target live count.
    result.seconds = 0.0;
    for (int trial = 0; trial < kChurnTrials; ++trial) {
        result.events = 0; // gate on the steady-state rate only
        const double t0 = nowNs();
        for (std::uint64_t i = 0; i < churn_events; ++i) {
            const std::uint64_t op = rng() % 100;
            if (live.size() < target_live - target_live / 16 ||
                (op < 10 &&
                 live.size() < target_live + target_live / 16))
                doAlloc();
            else if (op < 20)
                doFree();
            else
                doWrite();
        }
        const double dt = (nowNs() - t0) * 1e-9;
        if (trial == 0 || dt < result.seconds)
            result.seconds = dt;
    }
    result.liveObjects = g.vertexCount();
    result.liveEdges = g.edgeCount();
    return result;
}

struct LatencyResult
{
    double p50Ns = 0.0;
    double p99Ns = 0.0;
};

/** p50/p99 over kSamplePoints timed MetricEngine::sample calls. */
LatencyResult
measureMetricPoint(const HeapGraph &g)
{
    std::vector<double> ns;
    ns.reserve(kSamplePoints);
    double sink = 0.0;
    for (int i = 0; i < kSamplePoints; ++i) {
        const double t0 = nowNs();
        const MetricSample s = MetricEngine::sample(
            g, static_cast<Tick>(i), static_cast<std::uint64_t>(i));
        ns.push_back(nowNs() - t0);
        sink += s.value(MetricId::Leaves); // defeat dead-code elim
    }
    if (sink < -1.0)
        std::printf("%f\n", sink); // never taken
    std::sort(ns.begin(), ns.end());
    LatencyResult r;
    r.p50Ns = ns[ns.size() / 2];
    r.p99Ns = ns[ns.size() - 1 - ns.size() / 100];
    return r;
}

} // namespace

} // namespace heapmd

int
main()
{
    using namespace heapmd;

    const bool sanitized =
        std::string_view(support::kSanitizeMode) != "none";
    std::printf("heap-graph scale: slot-map core\n"
                "(gated at %llu live objects, reported at %llu; "
                "best of %d trials; sanitizer: %s)\n",
                static_cast<unsigned long long>(kGatedLive),
                static_cast<unsigned long long>(kReportedLive),
                kChurnTrials, support::kSanitizeMode);
    // Sanitizer builds time the instrumentation, not the data
    // structure: run a token scale and report without gating.
    const std::uint64_t gated_live =
        sanitized ? kGatedLive / 20 : kGatedLive;
    const std::uint64_t reported_live =
        sanitized ? kReportedLive / 20 : kReportedLive;
    const std::uint64_t churn = sanitized ? kChurnEvents / 20
                                          : kChurnEvents;

    const auto measure = [](std::uint64_t live, std::uint64_t events,
                            ChurnResult &run, LatencyResult &lat) {
        HeapGraph g;
        run = runChurn(g, live, events);
        lat = measureMetricPoint(g);
        std::printf("slot-map @ %7.2e live: %llu steady-state events "
                    "in %6.2fs (%0.0f events/s, %llu edges; ramp "
                    "%0.1fs); metric point p50 %0.0fns p99 %0.0fns\n",
                    static_cast<double>(live),
                    static_cast<unsigned long long>(run.events),
                    run.seconds, run.eventsPerSec(),
                    static_cast<unsigned long long>(run.liveEdges),
                    run.rampSeconds, lat.p50Ns, lat.p99Ns);
    };
    ChurnResult gated_run;
    ChurnResult big_run;
    LatencyResult lat_1m;
    LatencyResult lat_10m;
    measure(gated_live, churn, gated_run, lat_1m);
    measure(reported_live, churn, big_run, lat_10m);

    const double flatness =
        lat_1m.p99Ns > 0.0 ? lat_10m.p99Ns / lat_1m.p99Ns : 0.0;
    const bool rate_ok = gated_run.eventsPerSec() >= kMinEventsPerSec;
    const bool latency_ok = lat_1m.p99Ns <= kMaxP99SampleNs;
    const bool pass = sanitized || (rate_ok && latency_ok);

    std::printf("events/s %0.0f (gate >= %0.0f) %s; "
                "p99 metric point %0.0fns (gate <= %0.0fns) %s\n",
                gated_run.eventsPerSec(), kMinEventsPerSec,
                rate_ok ? "PASS" : "FAIL", lat_1m.p99Ns,
                kMaxP99SampleNs, latency_ok ? "PASS" : "FAIL");
    std::printf("metric-point p99 growth %0.2fx from %7.2e to %7.2e "
                "live objects (reported, not gated)\n",
                flatness, static_cast<double>(gated_live),
                static_cast<double>(reported_live));

    std::FILE *json = std::fopen("BENCH_heapgraph_scale.json", "w");
    if (json == nullptr) {
        std::fprintf(stderr,
                     "cannot write BENCH_heapgraph_scale.json\n");
        return 1;
    }
    std::fprintf(
        json,
        "{\n"
        "  \"bench\": \"heapgraph_scale\",\n"
        "  \"sanitizer\": \"%s\",\n"
        "  \"gatedLiveObjects\": %llu,\n"
        "  \"reportedLiveObjects\": %llu,\n"
        "  \"eventsPerSec\": %0.0f,\n"
        "  \"eventsPerSec10M\": %0.0f,\n"
        "  \"eventsPerSecFloor\": %0.0f,\n"
        "  \"metricPointP50Ns\": %0.0f,\n"
        "  \"metricPointP99Ns\": %0.0f,\n"
        "  \"metricPointP50Ns10M\": %0.0f,\n"
        "  \"metricPointP99Ns10M\": %0.0f,\n"
        "  \"metricPointP99BudgetNs\": %0.0f,\n"
        "  \"p99GrowthTo10M\": %0.2f,\n"
        "  \"pass\": %s\n"
        "}\n",
        support::kSanitizeMode,
        static_cast<unsigned long long>(gated_live),
        static_cast<unsigned long long>(reported_live),
        gated_run.eventsPerSec(), big_run.eventsPerSec(),
        kMinEventsPerSec, lat_1m.p50Ns, lat_1m.p99Ns, lat_10m.p50Ns,
        lat_10m.p99Ns, kMaxP99SampleNs, flatness,
        pass ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_heapgraph_scale.json\n");
    return pass ? 0 : 1;
}
