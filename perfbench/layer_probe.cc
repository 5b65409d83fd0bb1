/**
 * @file
 * Layer probe: times the public functions of each heapmd module on a
 * workload's own inputs, for the per-layer side of the benchmark.
 *
 *   layer_probe inputs SPEC...   staged passes over traces; SPEC is
 *                                PATH|MODEL|GROUP (MODEL and GROUP may
 *                                be empty; a PATH ending in "/" names
 *                                a rotating segment set's base)
 *   layer_probe diag DIR...      re-save the manifests and bundles,
 *                                merge the manifests into a fleet
 *   layer_probe shape OBJECTS LEN
 *                                rebuild a heap of OBJECTS objects in
 *                                lists of LEN nodes and time LiveTable
 *                                and the stats-segment publish
 *   layer_probe chain BASE       decode a finished rotating segment set
 *   layer_probe follow BASE      follow a rotating capture live, like
 *                                `heapmd monitor`, and report its lag
 *   layer_probe record APP SEED SCALE
 *                                run an app analogue with a TraceWriter
 *
 * Each prints one JSON object.  Decode, fold, metric point and
 * detector interleave on every event, so `inputs` times them as
 * staged passes over the same decoded events and attributes cost by
 * difference: decode only; the fold with sampling off (metric points
 * forced and timed on the side); the fold with the CLI's sampling;
 * then the same with the batch checker or the online detector.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "analysis/flow_lint.hh"
#include "analysis/report.hh"
#include "analysis/trace_lint.hh"
#include "apps/app.hh"
#include "capture/gzip_stream.hh"
#include "capture/live_table.hh"
#include "detector/execution_checker.hh"
#include "diag/incident_bundle.hh"
#include "diag/run_manifest.hh"
#include "fleet/fleet_merge.hh"
#include "model/model.hh"
#include "model/summarizer.hh"
#include "monitor/monitor.hh"
#include "monitor/online_detector.hh"
#include "obsv/segment.hh"
#include "runtime/process.hh"
#include "trace/gzip_source.hh"
#include "trace/segment_set.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_source.hh"
#include "trace/trace_writer.hh"

namespace fs = std::filesystem;
using namespace heapmd;

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Wall-clock seconds, comparable with file modification times. */
double
realtimeSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_REALTIME, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t i = std::min(
        values.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(values.size())));
    return values[i];
}

/** Flat JSON object writer: one level of string -> number/string. */
class Json
{
  public:
    Json &
    num(const std::string &key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        return raw(key, buf);
    }

    Json &
    str(const std::string &key, const std::string &value)
    {
        std::string quoted = "\"";
        for (char c : value) {
            if (c == '"' || c == '\\')
                quoted += '\\';
            quoted += c;
        }
        return raw(key, quoted + "\"");
    }

    Json &
    raw(const std::string &key, const std::string &value)
    {
        body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") +
                 value;
        return *this;
    }

    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

HeapModel
loadModelFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "layer_probe: cannot open model %s\n",
                     path.c_str());
        std::exit(1);
    }
    return HeapModel::load(in);
}

/** One input's events, decoded once and replayed by every pass. */
struct Decoded
{
    std::vector<Event> events;
    std::vector<std::string> names;
    bool captureProvenance = false;
    double chainSeconds = 0.0; //!< SegmentChain decode (sets only)
};

Decoded
decodeInput(const std::string &path)
{
    Decoded out;
    if (!path.empty() && path.back() == '/') {
        const std::string base = path.substr(0, path.size() - 1);
        trace::SegmentChain::Options options;
        const auto start = Clock::now();
        trace::SegmentChain chain(base, options);
        Event event;
        while (chain.next(event))
            out.events.push_back(event);
        out.chainSeconds = since(start);
        out.names = chain.functionNames();
        out.captureProvenance = true;
        return out;
    }
    std::vector<unsigned char> bytes;
    if (trace::isGzipPath(path)) {
        std::string error;
        if (!trace::gzipDecodeFile(path, bytes, error)) {
            std::fprintf(stderr, "layer_probe: %s\n", error.c_str());
            std::exit(1);
        }
    } else {
        const std::string data = readFile(path);
        bytes.assign(data.begin(), data.end());
    }
    trace::MemorySource source(bytes.data(), bytes.size());
    TraceReader reader(source);
    Event event;
    while (reader.next(event))
        out.events.push_back(event);
    out.names = reader.functionNames();
    out.captureProvenance = reader.captureProvenance();
    return out;
}

ProcessConfig
processConfig(const Decoded &in, std::uint64_t frq)
{
    ProcessConfig cfg;
    cfg.metricFrequency = frq;
    cfg.tolerateAddressReuse = in.captureProvenance;
    return cfg;
}

/** The CLI's replay sampling: every scan marker, or every 300 calls. */
std::uint64_t
cliFrequency(const Decoded &in)
{
    return in.captureProvenance ? 1 : 300;
}

struct Staged
{
    double sampledSeconds = 0.0;
    std::size_t samples = 0;
    MetricSeries series;
};

Staged
sampledPass(const Decoded &in)
{
    Staged out;
    Process process(processConfig(in, cliFrequency(in)));
    const auto start = Clock::now();
    for (const Event &event : in.events)
        process.onEvent(event);
    out.sampledSeconds = since(start);
    out.series = process.series();
    out.samples = out.series.samples().size();
    return out;
}

int
cmdInputs(int argc, char **argv)
{
    std::map<std::string, std::vector<MetricSeries>> groups;
    std::string rows;
    for (int a = 2; a < argc; ++a) {
        const std::string spec = argv[a];
        const std::size_t bar1 = spec.find('|');
        const std::size_t bar2 = spec.find('|', bar1 + 1);
        const std::string path = spec.substr(0, bar1);
        const std::string model_path =
            bar1 == std::string::npos
                ? ""
                : spec.substr(bar1 + 1, bar2 - bar1 - 1);
        const std::string group =
            bar2 == std::string::npos ? "" : spec.substr(bar2 + 1);

        const Decoded in = decodeInput(path);
        const double events =
            std::max<double>(1.0, static_cast<double>(in.events.size()));
        Json row;
        row.str("path", path).num("events", events);
        if (in.chainSeconds > 0.0)
            row.num("chain_s", in.chainSeconds);

        // Encode into memory: the trace write path minus the fd.
        FunctionRegistry registry;
        for (const std::string &name : in.names)
            registry.intern(name);
        std::ostringstream encoded;
        {
            TraceWriterOptions options;
            options.captureProvenance = in.captureProvenance;
            TraceWriter writer(encoded, registry, options);
            const auto start = Clock::now();
            Tick tick = 0;
            for (const Event &event : in.events)
                writer.onEvent(event, ++tick);
            writer.finish();
            row.num("encode_s", since(start));
        }
        const std::string raw = encoded.str();
        row.num("raw_bytes", static_cast<double>(raw.size()));

        // Deflate the same bytes through the shim's stream buffer.
        {
            const std::string tmp = "layer_probe.gz.tmp";
            const int fd =
                ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (fd < 0) {
                std::perror("layer_probe: open");
                return 1;
            }
            capture::GzipStreamBuf buf(fd);
            std::ostream os(&buf);
            const auto start = Clock::now();
            for (std::size_t off = 0; off < raw.size(); off += 4096)
                os.write(raw.data() + off,
                         static_cast<std::streamsize>(
                             std::min<std::size_t>(4096, raw.size() - off)));
            os.flush();
            buf.closeFd();
            row.num("gzip_s", since(start));
            row.num("gz_bytes", static_cast<double>(buf.bytesWritten()));
            ::unlink(tmp.c_str());
        }

        // Decode only, over the in-memory bytes.
        {
            trace::MemorySource source(
                reinterpret_cast<const unsigned char *>(raw.data()),
                raw.size());
            const auto start = Clock::now();
            TraceReader reader(source);
            Event event;
            std::uint64_t n = 0;
            while (reader.next(event))
                ++n;
            row.num("decode_s", since(start));
            if (n != in.events.size()) {
                std::fprintf(stderr, "layer_probe: re-decode of %s gave "
                                     "%llu of %zu events\n",
                             path.c_str(),
                             static_cast<unsigned long long>(n),
                             in.events.size());
                return 1;
            }
        }

        // The static linters the CLI runs as pre-flight and audit.
        {
            analysis::Report report;
            auto start = Clock::now();
            analysis::lintTrace(std::string_view(raw), report);
            row.num("trace_lint_s", since(start));
            analysis::Report flow;
            start = Clock::now();
            analysis::lintTraceFlow(std::string_view(raw), flow);
            row.num("flow_lint_s", since(start));
        }

        // Fold with sampling off; metric points forced on the side.
        {
            Process process(processConfig(
                in, std::numeric_limits<std::uint64_t>::max()));
            const std::size_t every =
                std::max<std::size_t>(1, in.events.size() / 200);
            std::vector<double> points;
            double point_total = 0.0;
            std::size_t live_peak = 0;
            const auto start = Clock::now();
            for (std::size_t i = 0; i < in.events.size(); ++i) {
                process.onEvent(in.events[i]);
                if ((i + 1) % every == 0) {
                    live_peak =
                        std::max(live_peak, process.graph().vertexCount());
                    const auto p0 = Clock::now();
                    process.forceSample();
                    const double t = since(p0);
                    points.push_back(t);
                    point_total += t;
                }
            }
            row.num("fold_s", since(start) - point_total);
            row.num("points", static_cast<double>(points.size()));
            row.num("point_p50_s", percentile(points, 0.50));
            row.num("point_p99_s", percentile(points, 0.99));
            row.num("live_peak", static_cast<double>(live_peak));
        }

        // The fold as the CLI samples it, then with each detector.
        Staged staged = sampledPass(in);
        row.num("sampled_s", staged.sampledSeconds);
        row.num("samples", static_cast<double>(staged.samples));
        if (!model_path.empty()) {
            const HeapModel model = loadModelFile(model_path);
            {
                Process process(processConfig(in, cliFrequency(in)));
                ExecutionChecker checker(model);
                checker.attach(process);
                const auto start = Clock::now();
                for (const Event &event : in.events)
                    process.onEvent(event);
                checker.finalize(process);
                row.num("check_s", since(start));
            }
            {
                Process process(processConfig(in, cliFrequency(in)));
                monitor::OnlineDetector detector(model);
                detector.attach(process);
                const auto start = Clock::now();
                for (const Event &event : in.events)
                    process.onEvent(event);
                row.num("online_s", since(start));
            }
        }
        if (!group.empty())
            groups[group].push_back(std::move(staged.series));
        rows += (rows.empty() ? "" : ",\n  ") + row.text();
    }

    Json summary;
    for (const auto &[group, runs] : groups) {
        const auto start = Clock::now();
        MetricSummarizer summarizer;
        for (const MetricSeries &series : runs)
            summarizer.addRun(series);
        summarizer.buildModel(group);
        summary.num(group, since(start));
    }
    std::printf("{\"inputs\": [\n  %s], \"summarize_s\": %s}\n",
                rows.c_str(), summary.text().c_str());
    return 0;
}

int
cmdDiag(const std::vector<std::string> &dirs)
{
    std::vector<std::string> manifests;
    std::vector<std::string> bundles;
    for (const std::string &dir : dirs) {
        if (!fs::is_directory(dir))
            continue;
        for (const auto &entry : fs::recursive_directory_iterator(dir)) {
            if (!entry.is_regular_file() ||
                entry.path().extension() != ".json")
                continue;
            const std::string path = entry.path().string();
            const std::string name = entry.path().filename().string();
            if (name.rfind("incident-", 0) == 0)
                bundles.push_back(path);
            else
                manifests.push_back(path);
        }
    }
    std::sort(manifests.begin(), manifests.end());
    std::sort(bundles.begin(), bundles.end());

    constexpr int kReps = 20;
    Json out;
    double total = 0.0;
    std::size_t written = 0;
    for (const std::string &path : manifests) {
        diag::RunManifest manifest;
        std::string error;
        if (!diag::loadRunManifestFile(path, manifest, &error))
            continue;
        const auto start = Clock::now();
        for (int r = 0; r < kReps; ++r) {
            std::ostringstream os;
            diag::saveRunManifest(manifest, os);
        }
        total += since(start);
        written += kReps;
    }
    out.num("manifests", static_cast<double>(manifests.size()));
    out.num("manifest_write_s", written ? total / written : 0.0);
    total = 0.0;
    written = 0;
    for (const std::string &path : bundles) {
        diag::IncidentBundle bundle;
        std::string error;
        if (!diag::loadIncidentBundleFile(path, bundle, &error))
            continue;
        const auto start = Clock::now();
        for (int r = 0; r < kReps; ++r) {
            std::ostringstream os;
            diag::saveIncidentBundle(bundle, os);
        }
        total += since(start);
        written += kReps;
    }
    out.num("bundles", static_cast<double>(bundles.size()));
    out.num("bundle_write_s", written ? total / written : 0.0);

    fleet::FleetInputs inputs;
    inputs.manifests = manifests;
    inputs.bundles = bundles;
    std::vector<double> merges;
    for (int r = 0; r < 5; ++r) {
        fleet::FleetModel model;
        analysis::Report report;
        std::string error;
        const auto start = Clock::now();
        fleet::mergeFleet(inputs, fleet::FleetMergeOptions{}, model, report,
                          error);
        merges.push_back(since(start));
    }
    out.num("merge_s", percentile(merges, 0.5));
    std::printf("%s\n", out.text().c_str());
    return 0;
}

struct Node
{
    Node *next;
    std::uint64_t *data;
    std::uint64_t payload;
};

int
cmdShape(std::size_t objects, std::size_t len)
{
    // The child's shape: lists of LEN nodes, each node pointing to a
    // pointer-free data block.
    const std::size_t nodes = std::max<std::size_t>(1, objects / 2);
    std::vector<Node *> all(nodes);
    std::vector<std::uint64_t *> data(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
        all[i] = static_cast<Node *>(std::malloc(sizeof(Node)));
        data[i] = static_cast<std::uint64_t *>(
            std::calloc(2, sizeof(std::uint64_t)));
        all[i]->data = data[i];
        all[i]->payload = i * 0x9e3779b97f4a7c15ull;
        all[i]->next = nullptr;
    }
    for (std::size_t i = 0; i + 1 < nodes; ++i)
        if ((i + 1) % len != 0)
            all[i]->next = all[i + 1];

    std::vector<double> inserts, erases, scans, census;
    double live_bytes = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
        capture::LiveTable table;
        auto start = Clock::now();
        for (std::size_t i = 0; i < nodes; ++i) {
            table.insert(reinterpret_cast<std::uintptr_t>(all[i]),
                         sizeof(Node));
            table.insert(reinterpret_cast<std::uintptr_t>(data[i]),
                         2 * sizeof(std::uint64_t));
        }
        inserts.push_back(since(start) / (2.0 * nodes));
        live_bytes = static_cast<double>(table.liveBytes());
        std::uint64_t emitted = 0;
        auto emit = [&emitted](std::uintptr_t, std::uintptr_t) {
            ++emitted;
        };
        table.scan(emit); // establishes the edge set
        start = Clock::now();
        table.scan(emit); // steady state: nothing changed
        scans.push_back(since(start));
        start = Clock::now();
        const capture::DegreeCensus c = table.degreeCensus();
        census.push_back(since(start));
        (void)c;
        start = Clock::now();
        for (std::size_t i = 0; i < nodes; ++i) {
            table.erase(reinterpret_cast<std::uintptr_t>(all[i]));
            table.erase(reinterpret_cast<std::uintptr_t>(data[i]));
        }
        erases.push_back(since(start) / (2.0 * nodes));
    }
    for (std::size_t i = 0; i < nodes; ++i) {
        std::free(data[i]);
        std::free(all[i]);
    }

    // Stats-segment publish: the seqlock write the shim does per op.
    double publish = 0.0;
    obsv::SegmentWriter writer;
    if (writer.create(static_cast<std::uint32_t>(::getpid()),
                      "layer_probe")) {
        std::array<std::uint64_t, obsv::kSlotCount> values{};
        constexpr int kPublishes = 200000;
        const auto start = Clock::now();
        for (int i = 0; i < kPublishes; ++i) {
            values[0] = static_cast<std::uint64_t>(i);
            writer.publish(values);
        }
        publish = since(start) / kPublishes;
        writer.unlinkAndClose();
    }

    Json out;
    out.num("objects", 2.0 * nodes)
        .num("live_mib", live_bytes / (1 << 20))
        .num("insert_s", percentile(inserts, 0.5))
        .num("erase_s", percentile(erases, 0.5))
        .num("scan_s", percentile(scans, 0.5))
        .num("census_s", percentile(census, 0.5))
        .num("publish_s", publish);
    std::printf("%s\n", out.text().c_str());
    return 0;
}

int
cmdChain(const std::string &base)
{
    trace::SegmentChain::Options options;
    const auto start = Clock::now();
    trace::SegmentChain chain(base, options);
    Event event;
    std::uint64_t events = 0;
    while (chain.next(event))
        ++events;
    Json out;
    out.num("chain_s", since(start))
        .num("events", static_cast<double>(events))
        .num("segments", static_cast<double>(chain.segmentsConsumed()));
    std::printf("%s\n", out.text().c_str());
    return chain.failed() ? 1 : 0;
}

int
cmdFollow(const std::string &base, const std::string &model_path)
{
    const HeapModel model =
        model_path.empty() ? HeapModel() : loadModelFile(model_path);
    monitor::MonitorOptions options;
    options.segmentsBase = base;
    options.follow = true;
    monitor::MonitorSession *session_ptr = nullptr;
    std::uint64_t lag_max = 0;
    options.onIdle = [&session_ptr, &lag_max] {
        if (session_ptr != nullptr)
            lag_max = std::max(lag_max, session_ptr->stats().tailLagBytes);
    };
    monitor::MonitorSession session(model, options);
    session_ptr = &session;
    std::string error;
    const bool ok = session.run(error);
    const double end = realtimeSeconds();
    lag_max = std::max(lag_max, session.stats().tailLagBytes);
    Json out;
    out.num("ok", ok ? 1 : 0)
        .num("events", static_cast<double>(session.stats().events))
        .num("segments",
             static_cast<double>(session.stats().segmentsConsumed))
        .num("tail_lag_max", static_cast<double>(lag_max))
        .num("end_real_s", end);
    std::printf("%s\n", out.text().c_str());
    return ok ? 0 : 1;
}

int
cmdRecord(const std::string &app_name, std::uint64_t seed, double scale)
{
    auto app = makeApp(app_name);
    AppConfig config;
    config.inputSeed = seed;
    config.scale = scale;
    Process process;
    std::ostringstream os;
    TraceWriter writer(os, process.registry());
    process.addEventObserver(&writer);
    const auto start = Clock::now();
    app->run(process, config);
    writer.finish();
    Json out;
    out.num("record_s", since(start))
        .num("events", static_cast<double>(writer.eventCount()));
    std::printf("%s\n", out.text().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "inputs")
        return cmdInputs(argc, argv);
    if (cmd == "diag")
        return cmdDiag(std::vector<std::string>(argv + 2, argv + argc));
    if (cmd == "shape" && argc == 4)
        return cmdShape(std::strtoull(argv[2], nullptr, 10),
                        std::max<std::size_t>(
                            1, std::strtoull(argv[3], nullptr, 10)));
    if (cmd == "chain" && argc == 3)
        return cmdChain(argv[2]);
    if (cmd == "follow" && (argc == 3 || argc == 4))
        return cmdFollow(argv[2], argc == 4 ? argv[3] : "");
    if (cmd == "record" && argc == 5)
        return cmdRecord(argv[2], std::strtoull(argv[3], nullptr, 10),
                         std::strtod(argv[4], nullptr));
    std::fprintf(stderr, "usage: layer_probe inputs|diag|shape|chain|"
                         "follow|record ...\n");
    return 2;
}
