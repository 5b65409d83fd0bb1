/**
 * @file
 * heapmd -- command-line driver for the HeapMD pipeline.
 *
 * Each command and its flags are declared once, in commandTable();
 * `heapmd` with no arguments prints them as the usage text.
 *
 * train, check, replay and capture stop on any audit error in their
 * inputs; the trace lint rides the decode that replays the trace.
 *
 * Exit status contract (scriptable; see README):
 *   0  success, nothing found
 *   1  fatal error (unreadable artifact, internal failure)
 *   2  usage error (unknown command/flag, missing value)
 *   3  findings: anomaly reports from check/replay, audit defects,
 *      model drift from diff, regressions from trend
 */

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/diag_lint.hh"
#include "analysis/fleet_lint.hh"
#include "analysis/flow_lint.hh"
#include "analysis/graph_lint.hh"
#include "analysis/model_lint.hh"
#include "analysis/trace_lint.hh"
#include "core/heapmd.hh"
#include "diag/flow_incident.hh"
#include "diag/incident_bundle.hh"
#include "diag/render.hh"
#include "diag/run_manifest.hh"
#include "diag/trend.hh"
#include "fleet/fleet_merge.hh"
#include "fleet/fleet_model.hh"
#include "fleet/fleet_trend.hh"
#include "heapgraph/graph_snapshot.hh"
#include "model/model_diff.hh"
#include "support/build_env.hh"
#include "support/parallel_for.hh"
#include "support/table.hh"
#include "telemetry/json_document.hh"
#include "telemetry/telemetry.hh"
#include "trace/gzip_source.hh"
#include "trace/trace_source.hh"
#include "trace/trace_writer.hh"

#if defined(HEAPMD_HAVE_CAPTURE)
#include "capture/capture_session.hh"
#endif

#if defined(HEAPMD_HAVE_OBSV)
#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "monitor/monitor.hh"
#include "obsv/prometheus.hh"
#include "obsv/segment.hh"
#include "obsv/top_view.hh"
#endif

using namespace heapmd;

namespace
{

/** argv[0], stashed for error messages before Args parsing. */
const char *g_argv0 = "heapmd";

/** The whole invocation joined with spaces, for run manifests. */
std::string g_command_line;

/** For `capture`: everything after the `--` separator. */
std::vector<std::string> g_capture_argv;

/** Exit status for "the tool worked and found something" (README). */
constexpr int kExitFindings = 3;

/**
 * Worker threads from --jobs / HEAPMD_JOBS (0 = one per allowed CPU,
 * the default; 1 = serial).
 */
unsigned g_jobs = 0;


/** Process start, for the manifest's end-to-end duration stamp. */
const std::chrono::steady_clock::time_point g_main_start =
    std::chrono::steady_clock::now();

void printUsage(std::FILE *to);

/**
 * Bad invocation: name the offending command/flag on stderr, show the
 * usage text, and exit 2 (the conventional usage-error status).
 */
[[noreturn]] void
badInvocation(const std::string &what)
{
    std::fprintf(stderr, "%s: %s\n\n", g_argv0, what.c_str());
    printUsage(stderr);
    std::exit(2);
}

/**
 * Parse a --jobs / HEAPMD_JOBS value: a small decimal integer, where
 * 0 means one worker per CPU the process may run on.  Anything else
 * is a usage error -- not std::stoull, whose exceptions would abort
 * instead of exiting 2.
 */
unsigned
parseJobs(const std::string &text, const char *origin)
{
    bool ok = !text.empty() && text.size() <= 4;
    for (char c : text)
        ok = ok && c >= '0' && c <= '9';
    if (!ok)
        badInvocation("invalid " + std::string(origin) + " value '" +
                      text +
                      "' (expected a small non-negative integer)");
    return static_cast<unsigned>(std::stoul(text));
}

/**
 * Tiny --flag value parser.  Both `--flag value` and `--flag=value`
 * spellings are accepted.  Flags may repeat; single-value accessors
 * take the last occurrence (so a repeated flag overrides), all()
 * returns every occurrence in order (trend's candidate list).
 * Commands that opt in (fleet-merge) also take bare positional
 * operands; everywhere else a non-flag token is a usage error.
 */
class Args
{
  public:
    Args(int argc, char **argv, bool allow_positional = false)
    {
        for (int i = 2; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0) {
                if (allow_positional) {
                    positionals_.push_back(std::move(key));
                    continue;
                }
                badInvocation("expected '--flag value', got '" + key +
                              "'");
            }
            const std::size_t eq = key.find('=');
            if (eq != std::string::npos) {
                if (eq == 2)
                    badInvocation("flag '" + key + "' has no name");
                values_[key.substr(2, eq - 2)].push_back(
                    key.substr(eq + 1));
                continue;
            }
            if (i + 1 >= argc)
                badInvocation("flag '" + key + "' is missing a value");
            values_[key.substr(2)].push_back(argv[++i]);
        }
    }

    /** Reject flags outside @p allowed, naming the first offender. */
    void
    checkAllowed(const std::string &command,
                 const std::set<std::string> &allowed) const
    {
        for (const auto &[key, value] : values_) {
            (void)value;
            if (allowed.count(key) == 0)
                badInvocation("unknown flag '--" + key +
                              "' for command '" + command + "'");
        }
    }

    bool has(const std::string &key) const
    {
        return values_.count(key) != 0;
    }

    std::string
    str(const std::string &key, const std::string &fallback = "") const
    {
        auto it = values_.find(key);
        if (it == values_.end()) {
            if (fallback.empty())
                badInvocation("missing required flag '--" + key + "'");
            return fallback;
        }
        return it->second.back();
    }

    /** Every occurrence of a repeatable flag, in command-line order. */
    std::vector<std::string>
    all(const std::string &key) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? std::vector<std::string>{}
                                   : it->second;
    }

    /** Bare operands, in command-line order (fleet-merge inputs). */
    const std::vector<std::string> &positionals() const
    {
        return positionals_;
    }

    /**
     * Integer flag: the whole value must be decimal digits.  A sign,
     * an exponent or trailing junk is a usage error naming the flag
     * -- not std::stoull, which aborts on junk and wraps "-1".
     */
    std::uint64_t
    num(const std::string &key, std::uint64_t fallback) const
    {
        return parsed(key, fallback, "a non-negative integer");
    }

    /** Integer flag held in 32 bits (pid, version): a larger value
     *  is a usage error, not silently wrapped. */
    std::uint32_t
    num32(const std::string &key, std::uint32_t fallback) const
    {
        return parsed(key, fallback, "a non-negative 32-bit integer");
    }

    /** Floating-point flag, parsed as strictly as num(). */
    double
    real(const std::string &key, double fallback) const
    {
        return parsed(key, fallback, "a number");
    }

  private:
    template <typename T>
    T
    parsed(const std::string &key, T fallback, const char *expected) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            return fallback;
        const std::string &text = it->second.back();
        const char *end = text.data() + text.size();
        T value{};
        const auto [stop, ec] = std::from_chars(text.data(), end, value);
        if (text.empty() || ec != std::errc() || stop != end)
            badInvocation("invalid --" + key + " value '" + text +
                          "' (expected " + expected + ")");
        return value;
    }

    std::map<std::string, std::vector<std::string>> values_;
    std::vector<std::string> positionals_;
};

HeapMDConfig
configFrom(const Args &args)
{
    HeapMDConfig cfg;
    cfg.process.metricFrequency = args.num("frq", 300);
    cfg.summarizer.includeLocallyStable = args.num("local", 0) != 0;
    cfg.jobs = g_jobs;
    return cfg;
}

AppConfig
appConfigFrom(const Args &args, std::uint64_t default_seed)
{
    AppConfig cfg;
    cfg.inputSeed = args.num("seed", default_seed);
    cfg.version = args.num32("version", 1);
    cfg.scale = args.real("scale", 1.0);
    if (args.has("fault")) {
        cfg.faults.enable(faultKindFromName(args.str("fault")),
                          args.real("rate", 1.0),
                          args.num("budget", 0));
    }
    return cfg;
}

HeapModel
loadModel(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        HEAPMD_FATAL("cannot open model file '", path, "'");
    return HeapModel::load(in);
}

void
saveModel(const HeapModel &model, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        HEAPMD_FATAL("cannot write '", path, "'");
    model.save(out);
    std::printf("model written to %s\n", path.c_str());
}

fleet::FleetModel
loadFleetModel(const std::string &path)
{
    fleet::FleetModel model;
    std::string error;
    if (!fleet::loadFleetModelFile(path, model, &error))
        HEAPMD_FATAL("cannot load fleet model '", path, "': ", error);
    return model;
}

/**
 * Pre-flight one artifact through its static auditor.  Prints the
 * findings and fails fatally when the artifact has error-severity
 * defects; warnings are surfaced but do not block.
 */
void
preflight(const char *what, const std::string &path,
          const analysis::Report &report)
{
    if (report.findings().empty())
        return;
    std::fprintf(stderr, "audit of %s '%s':\n%s", what, path.c_str(),
                 report.describe().c_str());
    if (!report.clean())
        HEAPMD_FATAL(what, " '", path,
                     "' failed its pre-flight audit (run `heapmd "
                     "audit` for details)");
}

void
preflightModel(const std::string &path)
{
    analysis::Report report;
    analysis::lintModelFile(path, report);
    preflight("model", path, report);
}

/** Copy the config knobs a run manifest records from parsed flags. */
void
fillManifestConfig(diag::RunManifest &manifest, const Args &args,
                   std::uint64_t default_seed)
{
    manifest.metricFrequency = args.num("frq", 300);
    manifest.includeLocallyStable = args.num("local", 0) != 0;
    manifest.seed = args.num("seed", default_seed);
    manifest.version = args.num32("version", 1);
    manifest.scale = args.real("scale", 1.0);
    if (args.has("fault")) {
        manifest.fault = args.str("fault");
        manifest.faultRate = args.real("rate", 1.0);
    }
}

/**
 * Print a checked run's anomaly reports and, under --bundle-dir, write
 * one incident bundle per report into that directory (created if
 * absent) as incident-NNN.json, returning the paths.  @p first numbers
 * the first bundle, so a batch check can append its runs' bundles to
 * one directory without collisions.
 */
std::vector<std::string>
printReports(const Args &args, const std::vector<BugReport> &reports,
             const FunctionRegistry &registry,
             const MetricSeries &series, std::size_t first = 1)
{
    for (const BugReport &report : reports)
        std::printf("\n%s", report.describe(registry).c_str());
    std::vector<std::string> paths;
    if (!args.has("bundle-dir"))
        return paths;
    const std::string dir = args.str("bundle-dir");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        HEAPMD_FATAL("cannot create bundle directory '", dir, "': ",
                     ec.message());
    for (std::size_t i = 0; i < reports.size(); ++i) {
        char name[40];
        std::snprintf(name, sizeof name, "incident-%03zu.json",
                      first + i);
        const std::string path =
            (std::filesystem::path(dir) / name).string();
        const diag::IncidentBundle bundle =
            diag::makeIncidentBundle(reports[i], registry, series);
        std::ofstream out(path, std::ios::binary);
        if (!out)
            HEAPMD_FATAL("cannot write bundle '", path, "'");
        diag::saveIncidentBundle(bundle, out);
        std::printf("incident bundle written to %s\n", path.c_str());
        paths.push_back(path);
    }
    return paths;
}

/**
 * Finish and write a run manifest: the telemetry counter snapshot is
 * captured here, last, so it covers the whole command.  The build/host
 * environment is stamped here too, so every manifest carries it even
 * on paths that build the struct by hand instead of makeRunManifest().
 */
void
writeManifest(diag::RunManifest &manifest, const std::string &path)
{
    manifest.hardwareConcurrency = support::hardwareConcurrency();
    manifest.sanitizer = support::kSanitizeMode;
    manifest.peakRssBytes = support::peakRssBytes();
    manifest.durationNanos = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - g_main_start)
            .count());
    manifest.phases.clear();
    for (const telemetry::PhaseStats &phase :
         telemetry::PhaseRegistry::instance().snapshot()) {
        diag::ManifestPhase entry;
        entry.name = phase.name;
        entry.count = phase.count;
        entry.wallNanos = phase.wallNanos;
        entry.cpuNanos = phase.cpuNanos;
        entry.bytes = phase.bytes;
        manifest.phases.push_back(std::move(entry));
    }
    diag::captureCounters(
        manifest, telemetry::Registry::instance().snapshotAll());
    std::ofstream out(path, std::ios::binary);
    if (!out)
        HEAPMD_FATAL("cannot write manifest '", path, "'");
    diag::saveRunManifest(manifest, out);
    std::printf("run manifest written to %s\n", path.c_str());
}

void
printModel(const HeapModel &model)
{
    std::printf("program: %s (trained on %zu inputs)\n",
                model.programName.c_str(), model.trainingRuns);
    for (const HeapModel::Entry &e : model.entries()) {
        std::printf("  %-9s %-6s [%8.3f, %8.3f]  avg %+0.2f%%  "
                    "std %0.2f  stable on %zu inputs\n",
                    metricName(e.id).c_str(),
                    e.locallyStable ? "local" : "global", e.minValue,
                    e.maxValue, e.avgChange, e.stdDev, e.stableRuns);
    }
    if (!model.unstableMetrics.empty()) {
        std::printf("  never stable:");
        for (MetricId id : model.unstableMetrics)
            std::printf(" %s", metricName(id).c_str());
        std::printf("\n");
    }
}

int
cmdListApps()
{
    std::printf("SPEC 2000 analogues:\n");
    for (const std::string &name : specAppNames())
        std::printf("  %s\n", name.c_str());
    std::printf("commercial analogues:\n");
    for (const std::string &name : commercialAppNames())
        std::printf("  %s\n", name.c_str());
    return 0;
}

/**
 * One trace or segment set linted and replayed into a fresh Process
 * by lintAndReplay().  The checker is declared first so the Process,
 * which still holds it as an observer, is destroyed before it.
 */
struct TraceReplay
{
    std::unique_ptr<ExecutionChecker> checker;
    std::unique_ptr<Process> process;
    analysis::Report audit; //!< the trace's pre-flight lint
    analysis::TraceLintStats lint;
    CheckResult check; //!< empty unless replayed under a model
    std::uint64_t events = 0;
    std::uint64_t wallNanos = 0; //!< lint + replay + check wall time
};

/**
 * Lint the trace at @p path (with @p segments, the rotating segment
 * set rooted there) and, from the same decode, replay it into a fresh
 * Process, under @p model's checker when non-null; with @p replay
 * false it only lints.  The replay stops at the first lint error; the
 * caller reports the audit.
 *
 * The capture-provenance rule lives here and only here: a
 * live-capture trace samples at every scan-marker function entry (the
 * shim emits exactly one marker per scan pass) unless @p frq is
 * nonzero, and tolerates allocator address reuse (a Free the shim
 * missed shows up as an Alloc over a live range).  Any other trace
 * samples every @p frq function entries, 300 when @p frq is 0.
 */
TraceReplay
lintAndReplay(const std::string &path, bool segments, std::uint64_t frq,
              const HeapModel *model = nullptr, bool replay = true)
{
    TraceReplay out;
    const auto fold = [&](bool capture) -> Process & {
        ProcessConfig pcfg;
        pcfg.metricFrequency = frq != 0 ? frq : (capture ? 1 : 300);
        pcfg.tolerateAddressReuse = capture;
        out.process = std::make_unique<Process>(pcfg);
        if (model != nullptr) {
            out.checker = std::make_unique<ExecutionChecker>(*model);
            out.checker->attach(*out.process);
        }
        return *out.process;
    };
    const analysis::TraceFold feed =
        replay ? analysis::TraceFold(fold) : nullptr;
    const auto wall_start = std::chrono::steady_clock::now();
    out.lint = segments ? analysis::lintSegmentSet(path, out.audit, feed)
                        : analysis::lintTraceFile(trace::LoadedTrace(path),
                                                  out.audit, feed);
    if (!out.audit.clean() || !out.process)
        return out;
    out.events = out.process->now();
    if (out.checker)
        out.check = out.checker->finalize(*out.process);
    // Callers snapshot the Registry while the Process is still alive;
    // fold the batched graph counters first.
    out.process->flushTelemetry();
    out.wallNanos = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count());
    return out;
}

/** Warn when a replay stopped at a fault its lint let pass. */
void
warnCutShort(const TraceReplay &replay)
{
    if (!replay.lint.malformed.empty())
        warn("malformed trace: ", replay.lint.malformed, "; replayed ",
             replay.events, " events");
}

/**
 * `train --trace FILE [--trace ...]`: build a model from recorded or
 * captured traces instead of synthetic app runs.
 */
int
cmdTrainFromTraces(const Args &args)
{
    const HeapMDConfig cfg = configFrom(args);
    MetricSummarizer summarizer(cfg.summarizer);
    const std::vector<std::string> traces = args.all("trace");

    // Workers keep only each run's audit and series, so at most
    // --jobs heap graphs are alive at once.
    const std::uint64_t frq = args.num("frq", 0);
    std::vector<TraceReplay> runs(traces.size());
    std::vector<MetricSeries> series(traces.size());
    parallelForIndexed(traces.size(), cfg.jobs, [&](std::size_t i) {
        runs[i] = lintAndReplay(traces[i], /*segments=*/false, frq);
        if (!runs[i].audit.clean())
            return;
        series[i] = runs[i].process->series();
        series[i].label = "trace:" + traces[i];
        runs[i].process.reset();
    });
    // Verdicts in input order, so a malformed trace fails with the
    // same message (and at the same point) regardless of --jobs.
    for (std::size_t i = 0; i < traces.size(); ++i)
        preflight("trace", traces[i], runs[i].audit);
    for (const TraceReplay &run : runs)
        warnCutShort(run);
    for (std::size_t i = 0; i < traces.size(); ++i) {
        std::printf("replayed %s: %llu events, %zu samples%s\n",
                    traces[i].c_str(),
                    static_cast<unsigned long long>(runs[i].events),
                    series[i].samples().size(),
                    runs[i].lint.captureProvenance ? " (live capture)"
                                                   : "");
        summarizer.addRun(series[i]);
    }

    const std::string name = args.has("name")
        ? args.str("name")
        : std::filesystem::path(traces.front()).stem().string();
    const HeapModel model = summarizer.buildModel(name);
    printModel(model);
    for (std::size_t idx : summarizer.suspectTrainingRuns(model))
        std::printf("  suspect training trace: #%zu\n", idx);

    if (args.has("out"))
        saveModel(model, args.str("out"));
    if (args.has("manifest")) {
        diag::RunManifest manifest;
        manifest.command = "train";
        manifest.commandLine = g_command_line;
        manifest.program = name;
        fillManifestConfig(manifest, args, 1);
        for (const std::string &path : traces)
            diag::addManifestInput(manifest, "trace", path);
        if (args.has("out"))
            diag::addManifestInput(manifest, "model-out",
                                   args.str("out"));
        writeManifest(manifest, args.str("manifest"));
    }
    return 0;
}

int
cmdTrain(const Args &args)
{
    if (args.has("trace")) {
        if (args.has("app"))
            badInvocation("train takes --app or --trace, not both");
        return cmdTrainFromTraces(args);
    }
    const HeapMD tool(configFrom(args));
    auto app = makeApp(args.str("app"));
    const std::uint64_t first_seed = args.num("seed", 1);
    const std::size_t inputs = args.num("inputs", 25);
    std::printf("training %s on %zu inputs (seeds %llu..%llu)...\n",
                app->name().c_str(), inputs,
                static_cast<unsigned long long>(first_seed),
                static_cast<unsigned long long>(first_seed + inputs -
                                                1));
    const TrainingOutcome training = tool.train(
        *app, makeInputs(first_seed, inputs,
                         args.num32("version", 1),
                         args.real("scale", 1.0)));
    printModel(training.model);
    for (std::size_t idx : training.suspectTrainingRuns)
        std::printf("  suspect training input: #%zu\n", idx);

    if (args.has("out"))
        saveModel(training.model, args.str("out"));
    if (args.has("manifest")) {
        diag::RunManifest manifest;
        manifest.command = "train";
        manifest.commandLine = g_command_line;
        manifest.program = app->name();
        fillManifestConfig(manifest, args, 1);
        if (args.has("out")) {
            // The trained model is this run's product; fingerprint it
            // so later check manifests can prove which model they ran.
            diag::addManifestInput(manifest, "model-out",
                                   args.str("out"));
        }
        writeManifest(manifest, args.str("manifest"));
    }
    return 0;
}

int
cmdInspect(const Args &args)
{
    printModel(loadModel(args.str("model")));
    return 0;
}

/**
 * `check --inputs N`: check seeds S..S+N-1 against the model as one
 * batch, one Process + checker per input across --jobs workers.
 * Output and exit status are the per-input results in seed order.
 */
int
cmdCheckBatch(const Args &args, const HeapMD &tool, SyntheticApp &app,
              const HeapModel &model, std::size_t count)
{
    const AppConfig base = appConfigFrom(args, 100);
    std::vector<AppConfig> inputs(count, base);
    for (std::size_t i = 0; i < count; ++i)
        inputs[i].inputSeed = base.inputSeed + i;

    const std::vector<CheckOutcome> outs =
        tool.checkMany(app, inputs, model);

    bool anomalous = false;
    std::size_t next_bundle = 1;
    for (std::size_t i = 0; i < outs.size(); ++i) {
        const CheckOutcome &out = outs[i];
        std::printf("checked %s seed %llu: %zu report(s) over %llu "
                    "samples\n",
                    app.name().c_str(),
                    static_cast<unsigned long long>(
                        inputs[i].inputSeed),
                    out.check.reports.size(),
                    static_cast<unsigned long long>(
                        out.check.samplesChecked));
        printReports(args, out.check.reports, out.run.registry(),
                     out.run.series, next_bundle);
        next_bundle += out.check.reports.size();
        anomalous = anomalous || out.check.anomalous();
    }
    return anomalous ? kExitFindings : 0;
}

int
cmdCheck(const Args &args)
{
    // Usage validation before any file I/O: a bad --inputs must exit
    // 2 even when the model path is also unreadable.
    const std::size_t inputs = args.num("inputs", 1);
    if (inputs == 0)
        badInvocation("check --inputs must be at least 1");
    if (inputs > 1 && args.has("manifest"))
        badInvocation("check --manifest records a single run; "
                      "use --inputs 1");

    const HeapMD tool(configFrom(args));
    auto app = makeApp(args.str("app"));
    preflightModel(args.str("model"));
    const HeapModel model = loadModel(args.str("model"));

    if (inputs > 1)
        return cmdCheckBatch(args, tool, *app, model, inputs);

    const CheckOutcome out =
        tool.check(*app, appConfigFrom(args, 100), model);
    std::printf("checked %s: %zu report(s) over %llu samples\n",
                app->name().c_str(), out.check.reports.size(),
                static_cast<unsigned long long>(
                    out.check.samplesChecked));
    const std::vector<std::string> bundles = printReports(
        args, out.check.reports, out.run.registry(), out.run.series);
    if (args.has("manifest")) {
        diag::RunManifest manifest = diag::makeRunManifest(
            "check", g_command_line, out.run, &out.check);
        fillManifestConfig(manifest, args, 100);
        diag::addManifestInput(manifest, "model", args.str("model"));
        manifest.bundlePaths = bundles;
        writeManifest(manifest, args.str("manifest"));
    }
    return out.check.anomalous() ? kExitFindings : 0;
}

int
cmdRecord(const Args &args)
{
    // Every flag is parsed before --out is truncated.
    auto app = makeApp(args.str("app"));
    const AppConfig app_cfg = appConfigFrom(args, 1);
    // The trace is the product: the Process only ticks and feeds the
    // writer, and folds no heap graph.
    ProcessConfig pcfg;
    pcfg.instrumentationEnabled = false;
    Process process(pcfg);
    std::ofstream out(args.str("out"), std::ios::binary);
    if (!out)
        HEAPMD_FATAL("cannot write '", args.str("out"), "'");
    TraceWriter writer(out, process.registry());
    process.addEventObserver(&writer);

    app->run(process, app_cfg);
    writer.finish();
    std::printf("recorded %llu events to %s\n",
                static_cast<unsigned long long>(writer.eventCount()),
                args.str("out").c_str());
    return 0;
}

int
cmdReplay(const Args &args)
{
    const std::uint64_t frq = args.num("frq", 0);
    const std::string model_path = args.str("model");
    const std::string trace_path = args.str("trace");
    preflightModel(model_path);
    const HeapModel model = loadModel(model_path);
    const TraceReplay replay =
        lintAndReplay(trace_path, /*segments=*/false, frq, &model);
    preflight("trace", trace_path, replay.audit);
    warnCutShort(replay);
    const Process &process = *replay.process;
    const CheckResult &result = replay.check;

    std::printf("replayed %llu events: %zu report(s)\n",
                static_cast<unsigned long long>(replay.events),
                result.reports.size());
    const std::vector<std::string> bundles =
        printReports(args, result.reports, process.registry(),
                     process.series());
    if (args.has("manifest")) {
        // Replay bypasses HeapMD::observe(), so assemble the outcome
        // the manifest builder expects from the Process directly.
        RunOutcome run;
        run.series = process.series();
        if (run.series.label.empty())
            run.series.label = "replay:" + trace_path;
        run.graphStats = process.graph().stats();
        run.liveBlocksAtExit = process.graph().vertexCount();
        run.finalTick = process.now();
        run.wallNanos = replay.wallNanos;
        diag::RunManifest manifest = diag::makeRunManifest(
            "replay", g_command_line, run, &result);
        fillManifestConfig(manifest, args, 0);
        diag::addManifestInput(manifest, "model", model_path);
        diag::addManifestInput(manifest, "trace", trace_path);
        manifest.bundlePaths = bundles;
        writeManifest(manifest, args.str("manifest"));
    }
    return result.anomalous() ? kExitFindings : 0;
}

int
cmdCapture(const Args &args)
{
#if !defined(HEAPMD_HAVE_CAPTURE)
    (void)args;
    HEAPMD_FATAL(
        "this build has no live-capture support (configure with "
        "-DHEAPMD_BUILD_CAPTURE=ON on a non-sanitizer UNIX build)");
#else
    capture::SessionOptions options;
    options.tracePath = args.str("out", "capture.trace");
    options.scanFrequency =
        args.num("frq", capture::kDefaultScanFrequency);
    if (args.has("lib"))
        options.shimPath = args.str("lib");
    options.verbose = args.num("verbose", 0) != 0;
    options.rotateBytes = args.num("rotate-bytes", 0);
    options.compress = args.num("compress", 0) != 0;
    if (options.compress && options.rotateBytes == 0)
        badInvocation("capture: --compress needs --rotate-bytes "
                      "(gzip framing is per rotation segment)");
    if (options.compress && !trace::gzipSupported())
        HEAPMD_FATAL("this build has no zlib; rebuild with zlib "
                     "available or drop --compress");

    capture::SessionResult session;
    std::string error;
    if (!capture::runCapture(g_capture_argv, options, session,
                             error))
        HEAPMD_FATAL("capture failed: ", error);

    const bool child_ok = session.exited && session.exitCode == 0;
    const auto events = static_cast<unsigned long long>(
        session.counters["capture.events_emitted"]);
    if (session.exited)
        std::printf("captured '%s' (exit status %d): %llu events, "
                    "%llu scan passes -> %s\n",
                    g_capture_argv.front().c_str(), session.exitCode,
                    events,
                    static_cast<unsigned long long>(
                        session.counters["capture.scan_passes"]),
                    session.tracePath.c_str());
    else
        std::printf("captured '%s' (killed by signal %d): %llu "
                    "events -> %s\n",
                    g_capture_argv.front().c_str(),
                    session.termSignal, events,
                    session.tracePath.c_str());

    // The conservative scan ran inside the *child*; surface it as a
    // pipeline phase from the sidecar counters so capture manifests
    // carry per-stage timing like every other command (words are
    // pointer-sized).
    telemetry::PhaseRegistry::instance().recordExternal(
        "phase.capture_scan", session.counters["capture.scan_passes"],
        session.counters["capture.scan_ns"], 0,
        session.counters["capture.scan_words"] * sizeof(void *));

    // Audit the fresh trace against the static rule catalog.  The
    // capture-provenance header downgrades truncation findings (a
    // killed child) to warnings; anything error-severity here is a
    // shim bug and must fail loudly.  The trace or segment set is
    // decoded once: for --train-out and --check the audit's pass also
    // replays it, under the checker when the --check model lints
    // clean.
    analysis::Report model_audit;
    std::optional<HeapModel> check_model;
    if (args.has("check")) {
        analysis::lintModelFile(args.str("check"), model_audit);
        if (model_audit.clean())
            check_model.emplace(loadModel(args.str("check")));
    }
    const bool segments = options.rotateBytes != 0;
    const TraceReplay replay = lintAndReplay(
        session.tracePath, segments, 0,
        check_model ? &*check_model : nullptr,
        args.has("train-out") || args.has("check"));
    const analysis::Report &audit = replay.audit;
    if (!audit.findings().empty())
        std::fprintf(stderr, "audit of trace '%s':\n%s",
                     session.tracePath.c_str(),
                     audit.describe().c_str());
    if (!audit.clean())
        HEAPMD_FATAL("captured trace '", session.tracePath,
                     "' failed its audit");
    std::printf("trace audit clean: %llu bytes, %llu events, "
                "%llu segment(s)\n",
                static_cast<unsigned long long>(replay.lint.bytes),
                static_cast<unsigned long long>(replay.lint.events),
                static_cast<unsigned long long>(
                    replay.lint.segments));

    int status = 0;
    if (args.has("train-out") || args.has("check"))
        warnCutShort(replay);
    if (args.has("train-out")) {
        MetricSummarizer summarizer(configFrom(args).summarizer);
        summarizer.addRun(replay.process->series());
        const HeapModel model = summarizer.buildModel(
            std::filesystem::path(g_capture_argv.front())
                .filename()
                .string());
        printModel(model);
        saveModel(model, args.str("train-out"));
    }
    if (args.has("check")) {
        preflight("model", args.str("check"), model_audit);
        const std::string over =
            segments ? " over " + std::to_string(replay.lint.segments) +
                           " segments"
                     : "";
        std::printf("checked capture (%llu events%s): %zu report(s) "
                    "over %llu samples\n",
                    static_cast<unsigned long long>(replay.events),
                    over.c_str(), replay.check.reports.size(),
                    static_cast<unsigned long long>(
                        replay.check.samplesChecked));
        printReports(args, replay.check.reports,
                     replay.process->registry(),
                     replay.process->series());
        if (replay.check.anomalous())
            status = kExitFindings;
    }

    if (args.has("manifest")) {
        diag::RunManifest manifest;
        manifest.command = "capture";
        manifest.commandLine = g_command_line;
        manifest.program = g_capture_argv.front();
        manifest.metricFrequency = options.scanFrequency;
        manifest.rotateBytes = options.rotateBytes;
        diag::addManifestInput(manifest, "trace", session.tracePath);
        if (args.has("check"))
            diag::addManifestInput(manifest, "model",
                                   args.str("check"));
        if (args.has("train-out"))
            diag::addManifestInput(manifest, "model-out",
                                   args.str("train-out"));
        // capture.* counters were merged from the sidecar, so the
        // manifest's counter snapshot records the child's work too.
        writeManifest(manifest, args.str("manifest"));
    }

    if (!child_ok) {
        std::fprintf(stderr,
                     "%s: captured command failed (%s %d); its trace "
                     "was still recorded\n",
                     g_argv0,
                     session.exited ? "exit status" : "signal",
                     session.exited ? session.exitCode
                                    : session.termSignal);
        return 1;
    }
    return status;
#endif // HEAPMD_HAVE_CAPTURE
}

int
cmdObserve(const Args &args)
{
    const HeapMD tool(configFrom(args));
    auto app = makeApp(args.str("app"));
    const RunOutcome run =
        tool.observe(*app, appConfigFrom(args, 1));

    std::printf("point,tick,vertices,edges");
    for (MetricId id : kAllMetrics)
        std::printf(",%s", metricName(id).c_str());
    std::printf("\n");
    for (const MetricSample &s : run.series.samples()) {
        std::printf("%llu,%llu,%llu,%llu",
                    static_cast<unsigned long long>(s.pointIndex),
                    static_cast<unsigned long long>(s.tick),
                    static_cast<unsigned long long>(s.vertexCount),
                    static_cast<unsigned long long>(s.edgeCount));
        for (MetricId id : kAllMetrics)
            std::printf(",%.4f", s.value(id));
        std::printf("\n");
    }
    return 0;
}

int
cmdSnapshot(const Args &args)
{
    HeapMDConfig cfg = configFrom(args);
    Process process(cfg.process);
    auto app = makeApp(args.str("app"));
    app->run(process, appConfigFrom(args, 1));

    std::ofstream out(args.str("out"));
    if (!out)
        HEAPMD_FATAL("cannot write '", args.str("out"), "'");
    saveGraphSnapshot(process.graph(), out);
    std::printf("snapshot of %llu vertices / %llu edges written "
                "to %s\n",
                static_cast<unsigned long long>(
                    process.graph().vertexCount()),
                static_cast<unsigned long long>(
                    process.graph().edgeCount()),
                args.str("out").c_str());
    return 0;
}

/**
 * `audit --trace FILE [--trace ...]`: lint each trace into its own
 * report; with --deep the flow pass rides the lint's decode.  Traces
 * are the heavy inputs, so they fan out over the thread pool; each
 * report renders into an indexed slot and prints in input order,
 * keeping stdout byte-identical for any --jobs value.
 */
bool
auditTraces(const Args &args, const std::vector<std::string> &traces,
            std::size_t max_findings)
{
    const bool deep = args.num("deep", 0) != 0;
    const std::string bundle_dir =
        args.has("bundle-dir") ? args.str("bundle-dir") : "";
    if (!bundle_dir.empty()) {
        if (!deep)
            badInvocation("audit: --bundle-dir exports flow "
                          "incidents and needs --deep 1");
        std::filesystem::create_directories(bundle_dir);
    }

    std::vector<std::string> outputs(traces.size());
    std::vector<char> clean(traces.size(), 1);
    // A bundle that cannot be written is fatal, but not on a worker:
    // each records its error, and the first by input order is the
    // one reported, as a serial run would.
    std::vector<std::string> errors(traces.size());
    parallelForIndexed(traces.size(), g_jobs, [&](std::size_t i) {
        analysis::Report report(max_findings);
        const trace::LoadedTrace trace(traces[i]);
        analysis::FlowAnalysis flow;
        const analysis::TraceLintStats stats = analysis::lintTraceFile(
            trace, report, {}, deep ? &flow : nullptr);
        char line[512];
        std::snprintf(line, sizeof line,
                      "trace %s: %llu bytes, %llu events, %llu "
                      "functions\n",
                      traces[i].c_str(),
                      static_cast<unsigned long long>(stats.bytes),
                      static_cast<unsigned long long>(stats.events),
                      static_cast<unsigned long long>(
                          stats.functions));
        std::string text = line;
        // An unreadable file got no deep pass, only the trace.io
        // finding.
        if (deep && trace.ok()) {
            const analysis::FlowLintStats &fstats = flow.stats;
            std::snprintf(
                line, sizeof line,
                "flow: %llu live object(s) at exit holding %llu "
                "byte(s)%s%s\n",
                static_cast<unsigned long long>(fstats.liveAtExit),
                static_cast<unsigned long long>(fstats.leakedBytes),
                fstats.captureProvenance ? " (live capture)" : "",
                fstats.sawFooter ? "" : " (truncated: leak check "
                                        "skipped)");
            text += line;
            if (!bundle_dir.empty()) {
                std::size_t written = 0;
                for (const analysis::FlowFinding &f :
                     flow.findings) {
                    const diag::FlowIncident incident =
                        diag::makeFlowIncident(flow, f, traces[i]);
                    std::snprintf(line, sizeof line,
                                  "flow-%03zu-%03zu.json", i + 1,
                                  ++written);
                    const std::filesystem::path path =
                        std::filesystem::path(bundle_dir) / line;
                    std::ofstream out(path);
                    if (!out) {
                        errors[i] = "cannot write '" + path.string() +
                                    "'";
                        return;
                    }
                    diag::saveFlowIncident(incident, out);
                }
                if (written != 0) {
                    std::snprintf(line, sizeof line,
                                  "flow: %zu incident(s) written "
                                  "to %s\n",
                                  written, bundle_dir.c_str());
                    text += line;
                }
            }
        }
        text += report.describe();
        outputs[i] = std::move(text);
        clean[i] = report.clean() ? 1 : 0;
    });
    for (const std::string &error : errors) {
        if (!error.empty())
            HEAPMD_FATAL(error);
    }

    bool all_clean = true;
    for (std::size_t i = 0; i < traces.size(); ++i) {
        std::fputs(outputs[i].c_str(), stdout);
        all_clean = all_clean && clean[i] != 0;
    }
    return all_clean;
}

int
cmdAudit(const Args &args)
{
    if (!args.has("trace") && !args.has("segments") &&
        !args.has("model") && !args.has("graph") &&
        !args.has("bundle") && !args.has("manifest") &&
        !args.has("fleet")) {
        HEAPMD_FATAL("audit needs at least one of --trace, "
                     "--segments, --model, --graph, --bundle, "
                     "--manifest, --fleet");
    }
    if ((args.has("deep") || args.has("bundle-dir")) &&
        !args.has("trace"))
        badInvocation("audit: --deep applies to --trace inputs");
    const auto max_findings = static_cast<std::size_t>(args.num(
        "max-findings", analysis::Report::kDefaultMaxFindings));

    bool clean = auditTraces(args, args.all("trace"), max_findings);
    for (const std::string &base : args.all("segments")) {
        analysis::Report report(max_findings);
        const analysis::TraceLintStats stats =
            analysis::lintSegmentSet(base, report);
        std::printf("segments %s: %llu segment(s), %llu bytes, "
                    "%llu events, %llu functions\n%s",
                    base.c_str(),
                    static_cast<unsigned long long>(stats.segments),
                    static_cast<unsigned long long>(stats.bytes),
                    static_cast<unsigned long long>(stats.events),
                    static_cast<unsigned long long>(stats.functions),
                    report.describe().c_str());
        clean = clean && report.clean();
    }
    for (const std::string &path : args.all("model")) {
        analysis::Report report(max_findings);
        const analysis::ModelLintStats stats =
            analysis::lintModelFile(path, report);
        std::printf("model %s: %zu lines, %zu stable + %zu unstable "
                    "metrics\n%s",
                    path.c_str(), stats.lines, stats.stableMetrics,
                    stats.unstableMetrics,
                    report.describe().c_str());
        clean = clean && report.clean();
    }
    for (const std::string &path : args.all("graph")) {
        analysis::Report report(max_findings);
        const analysis::GraphLintStats stats =
            analysis::lintGraphFile(path, report);
        std::printf("graph %s: %zu lines, %zu vertices, %zu edges\n%s",
                    path.c_str(), stats.lines,
                    stats.vertices, stats.edges,
                    report.describe().c_str());
        clean = clean && report.clean();
    }
    for (const std::string &path : args.all("bundle")) {
        analysis::Report report(max_findings);
        const analysis::BundleLintStats stats =
            analysis::lintBundleFile(path, report);
        std::printf("bundle %s: %zu suspects, %zu stacks, %zu frames, "
                    "%zu window points\n%s",
                    path.c_str(), stats.suspects, stats.contextEntries,
                    stats.frames, stats.windowPoints,
                    report.describe().c_str());
        clean = clean && report.clean();
    }
    for (const std::string &path : args.all("manifest")) {
        analysis::Report report(max_findings);
        const analysis::ManifestLintStats stats =
            analysis::lintManifestFile(path, report);
        std::printf("manifest %s: %zu inputs, %zu metrics, %zu "
                    "counters, %zu reports\n%s",
                    path.c_str(), stats.inputs, stats.metrics,
                    stats.counters, stats.reports,
                    report.describe().c_str());
        clean = clean && report.clean();
    }
    for (const std::string &path : args.all("fleet")) {
        analysis::Report report(max_findings);
        const analysis::FleetLintStats stats =
            analysis::lintFleetFile(path, report);
        std::printf("fleet %s: %zu members, %zu metric ranges, %zu "
                    "outliers, %zu incident clusters\n%s",
                    path.c_str(), stats.members, stats.metrics,
                    stats.outliers, stats.incidents,
                    report.describe().c_str());
        clean = clean && report.clean();
    }
    return clean ? 0 : kExitFindings;
}

int
cmdReport(const Args &args)
{
    const std::string path = args.str("bundle");
    std::string text, error;
    if (!telemetry::readFileText(path, text, &error))
        HEAPMD_FATAL("cannot read bundle '", path, "': ", error);

    // Two document kinds render here: detector incident bundles
    // (heapmd.incident) and audit --deep flow incidents (heapmd.flow).
    // One parse; a document that is not a whole flow incident is
    // reported as a bundle.
    telemetry::DocumentHeader header;
    telemetry::readDocumentHeader(text, diag::kFlowKind,
                                  diag::kFlowSchemaVersion, header);
    diag::FlowIncident flow;
    if (diag::loadFlowIncident(header, flow, nullptr)) {
        std::printf("%s", diag::renderFlowIncident(flow).c_str());
        return 0;
    }
    diag::IncidentBundle bundle;
    if (!diag::loadIncidentBundle(header, bundle, &error))
        HEAPMD_FATAL("cannot load bundle '", path, "': ", error);
    diag::RenderOptions options;
    options.stacksPerPhase =
        static_cast<std::size_t>(args.num("stacks", 3));
    options.maxSuspects =
        static_cast<std::size_t>(args.num("suspects", 5));
    std::printf("%s", diag::renderIncident(bundle, options).c_str());
    return 0;
}

/**
 * Schema pre-flight for @p command: every @p noun (a @p kind
 * document) in @p paths must carry a schemaVersion in 1..@p newest
 * and, when @p mixed names the documents, all the same one --
 * comparing a v1 document against a v4 one silently misreads the
 * newer fields as "absent".  Either violation is the user's mismatch
 * (a stale binary or a future capture), so it is a usage error
 * (exit 2), not a finding; @p hint ends the mixed-version message.
 * Files the peek cannot even parse fall through to the loader's
 * fatal-error path (exit 1).
 */
void
requireKnownSchema(const std::string &command, const std::string &noun,
                   const std::vector<std::string> &paths,
                   const char *kind, std::uint64_t newest,
                   const char *mixed = nullptr, const char *hint = "")
{
    std::string first_path;
    std::uint64_t first_version = 0;
    for (const std::string &path : paths) {
        std::string text;
        std::uint64_t version = 0;
        if (!telemetry::readFileText(path, text, nullptr) ||
            !telemetry::peekSchemaVersion(text, kind, version))
            continue;
        if (version < 1 || version > newest)
            badInvocation(command + ": " + noun + " '" + path +
                          "' has unknown schemaVersion " +
                          std::to_string(version) +
                          " (this build understands 1.." +
                          std::to_string(newest) + ")");
        if (first_path.empty()) {
            first_path = path;
            first_version = version;
        } else if (mixed != nullptr && version != first_version) {
            badInvocation(command + ": mixed " + mixed +
                          " schema versions ('" + first_path +
                          "' is v" + std::to_string(first_version) +
                          ", '" + path + "' is v" +
                          std::to_string(version) + ")" + hint);
        }
    }
}

int
cmdTrend(const Args &args)
{
    const std::vector<std::string> candidates = args.all("manifest");
    if (candidates.empty())
        badInvocation("trend needs at least one --manifest candidate");
    std::vector<std::string> documents = {args.str("baseline")};
    documents.insert(documents.end(), candidates.begin(),
                     candidates.end());
    requireKnownSchema("trend", "manifest", documents,
                       diag::kManifestKind, diag::kManifestSchemaVersion,
                       "manifest",
                       "; re-run the older capture or compare like "
                       "with like");

    diag::RunManifest baseline;
    std::string error;
    if (!diag::loadRunManifestFile(args.str("baseline"), baseline,
                                   &error))
        HEAPMD_FATAL("cannot load baseline manifest '",
                     args.str("baseline"), "': ", error);

    diag::TrendOptions options;
    options.counterTolerance = args.real("counter-tol", 0.10);
    options.sampleRateTolerance = args.real("sample-tol", 0.10);
    options.counterMinBase = args.num("min-base", 100);
    options.rssTolerance =
        args.real("rss-tol", options.rssTolerance);
    options.phaseWallTolerance =
        args.real("phase-tol", options.phaseWallTolerance);

    analysis::Report report;
    for (const std::string &path : candidates) {
        diag::RunManifest candidate;
        if (!diag::loadRunManifestFile(path, candidate, &error))
            HEAPMD_FATAL("cannot load manifest '", path, "': ",
                         error);
        const std::size_t before = report.findings().size();
        diag::compareManifests(baseline, candidate, options, report);
        std::printf("%s vs baseline %s: %zu finding(s)\n",
                    path.c_str(), args.str("baseline").c_str(),
                    report.findings().size() - before);
    }
    if (!report.findings().empty())
        std::printf("%s", report.describe().c_str());
    if (report.clean()) {
        std::printf("no regressions across %zu candidate(s)\n",
                    candidates.size());
        return 0;
    }
    return kExitFindings;
}

int
cmdFleetMerge(const Args &args)
{
    std::vector<std::string> paths = args.positionals();
    for (const std::string &path : args.all("manifest"))
        paths.push_back(path);
    if (paths.empty())
        badInvocation("fleet-merge needs run manifests, incident "
                      "bundles, or directories of them (bare "
                      "operands and/or --manifest)");

    fleet::FleetInputs inputs;
    std::string error;
    if (!fleet::collectFleetInputs(paths, inputs, error))
        HEAPMD_FATAL("fleet-merge: ", error);

    // Members may mix manifest versions; each must be one this build
    // understands.
    requireKnownSchema("fleet-merge", "manifest", inputs.manifests,
                       diag::kManifestKind, diag::kManifestSchemaVersion);

    fleet::FleetMergeOptions options;
    options.jobs = g_jobs;
    options.outlierScore =
        args.real("outlier-z", options.outlierScore);
    options.minMembers = static_cast<std::size_t>(
        args.num("min-members", options.minMembers));

    fleet::FleetModel model;
    analysis::Report report;
    if (!fleet::mergeFleet(inputs, options, model, report, error))
        HEAPMD_FATAL("fleet-merge: ", error);

    const std::string out_path = args.str("out", "fleet.json");
    {
        std::ofstream out(out_path, std::ios::binary);
        if (!out)
            HEAPMD_FATAL("cannot write '", out_path, "'");
        fleet::saveFleetModel(model, out);
        if (!out)
            HEAPMD_FATAL("cannot write '", out_path, "'");
    }

    std::printf("fleet of %llu process(es): %zu metric range(s), "
                "%zu outlier(s), %zu incident cluster(s) -> %s\n",
                static_cast<unsigned long long>(model.processes),
                model.metrics.size(), model.outliers.size(),
                model.incidents.size(), out_path.c_str());
    if (!report.findings().empty())
        std::printf("%s", report.describe().c_str());
    return report.clean() ? 0 : kExitFindings;
}

int
cmdFleetTrend(const Args &args)
{
    const std::string baseline_path = args.str("baseline");
    const std::string fleet_path = args.str("fleet");

    requireKnownSchema("fleet-trend", "fleet model",
                       {baseline_path, fleet_path},
                       fleet::kFleetKind, fleet::kFleetSchemaVersion, "fleet");

    const fleet::FleetModel baseline = loadFleetModel(baseline_path);
    const fleet::FleetModel candidate = loadFleetModel(fleet_path);

    fleet::FleetTrendOptions options;
    options.rangeTolerance =
        args.real("range-tol", options.rangeTolerance);

    analysis::Report report;
    fleet::compareFleets(baseline, candidate, options, report);
    std::printf("%s vs baseline %s: %zu finding(s)\n",
                fleet_path.c_str(), baseline_path.c_str(),
                report.findings().size());
    if (!report.findings().empty())
        std::printf("%s", report.describe().c_str());
    if (report.clean()) {
        std::printf("no fleet drift across %llu process(es)\n",
                    static_cast<unsigned long long>(
                        candidate.processes));
        return 0;
    }
    return kExitFindings;
}

int
cmdDiff(const Args &args)
{
    const HeapModel a = loadModel(args.str("model"));
    const HeapModel b = loadModel(args.str("model-b"));
    const ModelDiff diff = diffModels(a, b);
    std::printf("%s", diff.describe().c_str());
    return diff.unchanged() ? 0 : kExitFindings;
}

#if defined(HEAPMD_HAVE_OBSV)

/**
 * Snapshot the live stats segments: the one named by --pid, or every
 * segment in /dev/shm.  A --pid that cannot be attached or read is
 * fatal (the caller asked for that process specifically); in the
 * discovery path broken segments are skipped with a note, since a
 * writer may exit between readdir and attach.
 */
std::vector<obsv::SegmentSnapshot>
collectSegments(const Args &args)
{
    std::vector<std::uint32_t> pids;
    if (args.has("pid"))
        pids.push_back(args.num32("pid", 0));
    else
        pids = obsv::listSegmentPids();

    std::vector<obsv::SegmentSnapshot> snapshots;
    for (std::uint32_t pid : pids) {
        obsv::SegmentReader reader;
        std::string error;
        obsv::SegmentSnapshot snapshot;
        if (!reader.attachPid(pid, &error) ||
            !reader.read(snapshot, &error)) {
            if (args.has("pid"))
                HEAPMD_FATAL("cannot read stats segment of pid ",
                             pid, ": ", error);
            std::fprintf(stderr, "%s: skipping pid %u: %s\n",
                         g_argv0, pid, error.c_str());
            continue;
        }
        snapshots.push_back(std::move(snapshot));
    }
    return snapshots;
}

int
cmdTop(const Args &args)
{
    if (args.num("reap", 0) != 0) {
        const obsv::ReapResult result = obsv::reapDeadSegments();
        for (std::uint32_t pid : result.reaped)
            std::printf("reaped stats segment of dead pid %u\n", pid);
        std::printf("%zu segment(s) reaped, %zu alive\n",
                    result.reaped.size(), result.alive.size());
        return 0;
    }
    if (args.has("pid") && args.has("all"))
        badInvocation("top takes --pid or --all, not both");

    HeapModel model;
    bool have_model = false;
    if (args.has("model")) {
        model = loadModel(args.str("model"));
        have_model = true;
    }
    const bool once = args.num("once", 0) != 0;
    const std::uint64_t interval_ms = args.num("interval", 2000);
    for (;;) {
        const std::vector<obsv::SegmentSnapshot> snapshots =
            collectSegments(args);
        const std::string view =
            obsv::renderTop(snapshots, have_model ? &model : nullptr,
                            obsv::monotonicMs());
        if (!once)
            std::printf("\x1b[H\x1b[2J"); // clear, like top(1)
        std::fputs(view.c_str(), stdout);
        std::fflush(stdout);
        if (once)
            return 0;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(interval_ms));
    }
}

/** write(2) until done; a vanished scraper is not an error. */
void
writeAll(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        const ssize_t n = ::write(fd, data, len);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return;
        }
        data += n;
        len -= static_cast<std::size_t>(n);
    }
}

/**
 * Minimal single-threaded /metrics endpoint shared by `export` and
 * `monitor --listen`.  pump() answers at most one pending request and
 * never blocks longer than its timeout, so the caller's wait loop can
 * interleave serving with its real work and with the g_stop flag.
 */
class MetricsServer
{
  public:
    ~MetricsServer() { close(); }

    /** Bind and listen; usage/fatal errors exit as ever. */
    void
    open(const std::string &listen_addr)
    {
        const std::size_t colon = listen_addr.rfind(':');
        if (colon == std::string::npos)
            badInvocation("--listen expects HOST:PORT");
        const std::string host = listen_addr.substr(0, colon);
        const int port = std::atoi(listen_addr.c_str() + colon + 1);
        if (port <= 0 || port > 65535)
            badInvocation("--listen port is not in 1..65535");

        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            HEAPMD_FATAL("cannot create socket: ",
                         std::strerror(errno));
        const int one = 1;
        ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
            badInvocation("--listen host must be an IPv4 address "
                          "(e.g. 127.0.0.1)");
        if (::bind(fd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof addr) != 0)
            HEAPMD_FATAL("cannot bind ", listen_addr, ": ",
                         std::strerror(errno));
        if (::listen(fd_, 8) != 0)
            HEAPMD_FATAL("cannot listen on ", listen_addr, ": ",
                         std::strerror(errno));
    }

    bool valid() const { return fd_ >= 0; }

    /**
     * Serve at most one pending scrape, waiting up to @p timeout_ms
     * for one to arrive (0 = just poll).  @p body renders the
     * document only when a client is actually connected.
     * @return true when a request was answered.
     */
    bool
    pump(const std::function<std::string()> &body, int timeout_ms)
    {
        if (fd_ < 0)
            return false;
        pollfd pfd{};
        pfd.fd = fd_;
        pfd.events = POLLIN;
        if (::poll(&pfd, 1, timeout_ms) <= 0)
            return false; // timeout or EINTR: caller rechecks g_stop
        const int client = ::accept(fd_, nullptr, nullptr);
        if (client < 0)
            return false;
        // Every request gets the same document regardless of path,
        // so the request bytes only need draining, not parsing.
        char request[1024];
        (void)::read(client, request, sizeof request);
        const std::string doc = body();
        char header[192];
        std::snprintf(
            header, sizeof header,
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/plain; version=0.0.4; "
            "charset=utf-8\r\n"
            "Content-Length: %zu\r\n"
            "Connection: close\r\n\r\n",
            doc.size());
        writeAll(client, header, std::strlen(header));
        writeAll(client, doc.data(), doc.size());
        ::close(client);
        return true;
    }

    void
    close()
    {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

  private:
    int fd_ = -1;
};

/** Set by SIGINT/SIGTERM: the long-running commands wind down. */
volatile std::sig_atomic_t g_stop = 0;

/**
 * Arrange for SIGINT/SIGTERM to request a graceful shutdown of
 * `export --listen` and `monitor`: the flag is polled from their wait
 * loops, and SA_RESTART is deliberately *not* set so a blocking
 * poll/accept wakes with EINTR instead of sleeping through the
 * signal.
 */
void
installStopHandlers()
{
    struct sigaction sa{};
    sa.sa_handler = [](int) { g_stop = 1; };
    ::sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

int
cmdExport(const Args &args)
{
    const std::string listen_addr =
        args.str("listen", "127.0.0.1:9464");

    // --fleet appends the heapmd_fleet_* families to every scrape.
    // The model is a static artifact, so it renders once up front --
    // re-run fleet-merge and restart to publish a new population.
    const std::string fleet_text =
        args.has("fleet")
            ? fleet::renderFleetPrometheus(
                  loadFleetModel(args.str("fleet")))
            : "";

    MetricsServer server;
    server.open(listen_addr);
    std::printf("serving metrics on http://%s/metrics\n",
                listen_addr.c_str());
    std::fflush(stdout);

    installStopHandlers();
    const bool once = args.num("once", 0) != 0;
    while (g_stop == 0) {
        const bool served = server.pump(
            [&args, &fleet_text] {
                return obsv::renderPrometheus(
                           collectSegments(args)) +
                       fleet_text;
            },
            200);
        if (served && once)
            break;
    }
    if (g_stop != 0) {
        std::printf("shutting down\n");
        std::fflush(stdout);
    }
    server.close();
    return 0;
}

int
cmdMonitor(const Args &args)
{
    monitor::MonitorOptions options;
    if (args.has("segments"))
        options.segmentsBase = args.str("segments");
    if (args.has("pid"))
        options.pid = args.num32("pid", 0);
    if (options.segmentsBase.empty() && options.pid == 0)
        badInvocation("monitor needs --segments BASE or --pid P");
    if (!options.segmentsBase.empty() && options.pid != 0)
        badInvocation("monitor takes --segments or --pid, not both");
    options.detector.debounce =
        args.num("debounce", options.detector.debounce);
    options.detector.rearm = args.num("rearm", options.detector.rearm);
    if (options.detector.debounce == 0 || options.detector.rearm == 0)
        badInvocation("monitor --debounce and --rearm must be at least 1");

    const HeapModel model = loadModel(args.str("model"));
    options.follow = args.num("once", 0) == 0;
    options.pollMs = args.num("poll-ms", 50);
    options.windowRadius =
        args.num("window", diag::kDefaultWindowRadius);
    if (args.has("bundle-dir"))
        options.bundleDir = args.str("bundle-dir");

    installStopHandlers();
    options.stopped = [] { return g_stop != 0; };

    MetricsServer server;
    if (args.has("listen")) {
        server.open(args.str("listen"));
        std::printf("serving monitor metrics on http://%s/metrics\n",
                    args.str("listen").c_str());
    }

    // The session is constructed after the callbacks that reference
    // it, so they go through a pointer filled in below; the session
    // never invokes them before run().
    monitor::MonitorSession *session_ptr = nullptr;
    options.onIdle = [&server, &session_ptr] {
        if (server.valid() && session_ptr != nullptr)
            server.pump(
                [&session_ptr] {
                    return session_ptr->renderPrometheus();
                },
                0);
    };
    options.onIncident = [&session_ptr](const BugReport &report) {
        if (session_ptr == nullptr)
            return;
        std::printf("\n%s",
                    report.describe(session_ptr->registry()).c_str());
        std::fflush(stdout);
    };

    monitor::MonitorSession session(model, options);
    session_ptr = &session;
    std::printf("monitoring %s against model '%s'%s\n",
                options.segmentsBase.empty()
                    ? ("pid " + std::to_string(options.pid)).c_str()
                    : options.segmentsBase.c_str(),
                model.programName.c_str(),
                options.follow ? "" : " (once)");
    std::fflush(stdout);

    std::string error;
    const bool ok = session.run(error);
    server.close();
    if (!ok)
        HEAPMD_FATAL("monitor failed: ", error);

    const monitor::MonitorStats &stats = session.stats();
    std::printf("monitored %llu events / %llu samples over %llu "
                "segment(s): %llu incident(s), %llu bundle(s) "
                "written%s\n",
                static_cast<unsigned long long>(stats.events),
                static_cast<unsigned long long>(stats.samples),
                static_cast<unsigned long long>(
                    stats.segmentsConsumed),
                static_cast<unsigned long long>(stats.incidents),
                static_cast<unsigned long long>(
                    stats.bundlesWritten),
                stats.truncatedTail ? " (truncated tail tolerated)"
                                    : "");
    return session.anomalous() ? kExitFindings : 0;
}

/** `stats --format prometheus`: the live segments as exposition text. */
int
printPrometheus(const Args &args)
{
    std::string text = obsv::renderPrometheus(collectSegments(args));
    if (args.has("fleet"))
        text += fleet::renderFleetPrometheus(
            loadFleetModel(args.str("fleet")));
    std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
}

#else // !HEAPMD_HAVE_OBSV

/** Every live-observability command, in a build without them. */
int
noObservability(const Args &)
{
    HEAPMD_FATAL("this build has no live-observability support "
                 "(POSIX shared memory required)");
}
const auto cmdTop = noObservability;
const auto cmdExport = noObservability;
const auto cmdMonitor = noObservability;
const auto printPrometheus = noObservability;

#endif // HEAPMD_HAVE_OBSV

int
cmdStats(const Args &args)
{
    if (args.has("format")) {
        if (args.str("format") != "prometheus")
            badInvocation("stats --format only supports "
                          "'prometheus'");
        return printPrometheus(args);
    }
    const HeapMD tool(configFrom(args));
    auto app = makeApp(args.str("app", specAppNames().front()));
    tool.observe(*app, appConfigFrom(args, 1));
    telemetry::statsTable(
        telemetry::Registry::instance().snapshotAll())
        .print(std::cout);
    return 0;
}

/**
 * One command: its handler and its usage entry.  The synopsis lines
 * name every flag the command accepts -- the parser takes exactly
 * their `--name` tokens -- and the help is the prose under them,
 * which may mention flags of other commands.
 */
struct CommandSpec
{
    std::string name;
    int (*run)(const Args &);
    std::string synopsis;    //!< usage lines naming flags, '\n'-separated
    std::string help;        //!< parenthesised prose, '\n'-separated
    bool positional = false; //!< bare operands OK (fleet-merge)
};

/** Every command, in usage order. */
const std::vector<CommandSpec> &
commandTable()
{
    const std::string findings = std::to_string(kExitFindings);
    static const std::vector<CommandSpec> table = {
        {"list-apps", [](const Args &) { return cmdListApps(); }, "",
         ""},
        {"train", cmdTrain,
         "--app NAME [--inputs N=25] [--seed S=1]\n"
         "[--version V=1] [--scale X=1.0] [--frq N=300]\n"
         "[--local 0|1] [--out FILE] [--manifest FILE]\n"
         "or: --trace FILE [--trace FILE ...] [--name NAME]",
         "(train from recorded/captured traces instead of\n"
         " synthetic apps)"},
        {"inspect", cmdInspect, "--model FILE", ""},
        {"check", cmdCheck,
         "--app NAME --model FILE [--seed S=100]\n"
         "[--inputs N=1] [--version V=1] [--scale X=1.0]\n"
         "[--frq N=300]\n"
         "[--fault KIND [--rate R=1.0] [--budget B=0]]\n"
         "[--bundle-dir DIR] [--manifest FILE]",
         "(--inputs N checks seeds S..S+N-1 as a batch)"},
        {"record", cmdRecord,
         "--app NAME --out FILE [--seed S=1] [--version V]\n"
         "[--scale X] [--fault KIND [--rate R] [--budget B]]",
         ""},
        {"capture", cmdCapture,
         "[--out FILE=capture.trace] [--frq N=10000]\n"
         "[--lib SHIM.so] [--train-out FILE [--local 0|1]]\n"
         "[--check MODEL] [--bundle-dir DIR]\n"
         "[--rotate-bytes N] [--compress 1]\n"
         "[--manifest FILE] [--verbose 1]\n"
         "-- <command> [args...]",
         "(LD_PRELOADs the allocator shim into the command\n"
         " and records a live trace; --frq is the\n"
         " conservative-scan period in allocation events;\n"
         " --rotate-bytes records rotating FILE.NNNNNN.heapmd\n"
         " segments `monitor` can follow while the command\n"
         " still runs; --compress gzips each rotation\n"
         " segment [.heapmd.gz], with the rotation threshold\n"
         " still counted in raw trace bytes --\n"
         " HEAPMD_CAPTURE_COMPRESS=1 does the same;\n"
         " --train-out and --check replay the trace or the\n"
         " segment set in the pass that audits it)"},
        {"replay", cmdReplay,
         "--trace FILE --model FILE [--frq N=300]\n"
         "[--bundle-dir DIR] [--manifest FILE]",
         "(a trace lint error is fatal; capture-provenance\n"
         " traces default to --frq 1 and tolerate allocator\n"
         " address reuse)"},
        {"diff", cmdDiff, "--model FILE --model-b FILE", ""},
        {"snapshot", cmdSnapshot,
         "--app NAME --out FILE [--seed S=1] [--version V]\n"
         "[--scale X] [--fault KIND [--rate R] [--budget B]]",
         ""},
        {"audit", cmdAudit,
         "[--trace FILE ...] [--segments BASE ...]\n"
         "[--model FILE ...]\n"
         "[--graph FILE ...] [--bundle FILE ...]\n"
         "[--manifest FILE ...] [--fleet FILE ...]\n"
         "[--deep 0|1]\n"
         "[--bundle-dir DIR] [--max-findings N=1000]",
         "(static verification: lint artifacts against the\n"
         " rule catalog in DESIGN.md without replaying;\n"
         " every input repeats, reports print per file in\n"
         " input order, and the exit code reflects the\n"
         " worst finding across all of them; --deep 1 adds\n"
         " the shadow-heap flow analysis [flow.* rules] on\n"
         " traces and --bundle-dir exports its findings as\n"
         " flow incidents for `report`)"},
        {"report", cmdReport,
         "--bundle FILE [--stacks N=3] [--suspects N=5]",
         "(render an incident bundle or a flow incident:\n"
         " ranked suspects, metric trajectory, call stacks\n"
         " / rule, site pair, triage hint)"},
        {"trend", cmdTrend,
         "--baseline FILE --manifest FILE [--manifest ...]\n"
         "[--counter-tol R=0.10] [--sample-tol R=0.10]\n"
         "[--min-base N=100] [--rss-tol R=0.35]\n"
         "[--phase-tol R=1.0]",
         "(compare run manifests against a clean baseline;\n"
         " exits " + findings + " when a regression is flagged; all\n"
         " manifests must share one schemaVersion)"},
        {"fleet-merge", cmdFleetMerge,
         "<path...> [--manifest FILE ...]\n"
         "[--out FILE=fleet.json] [--outlier-z Z=3.0]\n"
         "[--min-members N=3]",
         "(fold run manifests -- given directly or found in\n"
         " directories, along with any incident bundles --\n"
         " into one population model: pooled per-metric\n"
         " stable ranges, leave-one-out outlier attribution\n"
         " weighted by sample counts, incident clusters\n"
         " keyed on suspect-function signature; the output\n"
         " is byte-identical for any input order or --jobs;\n"
         " exits " + findings + " when a member is attributed as an\n"
         " outlier)",
         /*positional=*/true},
        {"fleet-trend", cmdFleetTrend,
         "--fleet FILE --baseline FILE\n"
         "[--range-tol R=0.25]",
         "(compare today's fleet model against yesterday's;\n"
         " new outliers, drifted pooled ranges, and new\n"
         " incident clusters exit " + findings + ")"},
        {"top", cmdTop,
         "[--pid P | --all 1] [--once 1] [--interval MS=2000]\n"
         "[--model FILE] [--reap 1]",
         "(live view of capture shim stats segments in\n"
         " /dev/shm; --model adds drift against a trained\n"
         " model's stable ranges; --reap removes segments\n"
         " left by SIGKILLed processes)"},
        {"export", cmdExport,
         "[--listen HOST:PORT=127.0.0.1:9464] [--pid P]\n"
         "[--once 1] [--fleet FILE]",
         "(serve the live segments as a Prometheus /metrics\n"
         " HTTP endpoint; SIGINT/SIGTERM shut it down\n"
         " cleanly; --fleet appends the heapmd_fleet_*\n"
         " families of a fleet-merge model to every scrape)"},
        {"monitor", cmdMonitor,
         "--model FILE (--segments BASE | --pid P)\n"
         "[--once 1] [--bundle-dir DIR] [--poll-ms N=50]\n"
         "[--debounce N=3] [--rearm N=8] [--window N=16]\n"
         "[--listen HOST:PORT]",
         "(online detector daemon: tail a rotating capture\n"
         " segment set -- or, with --pid, a live process's\n"
         " shm stats -- against a trained model and write\n"
         " an incident bundle 3 samples after an excursion\n"
         " survives its debounce, while the workload runs;\n"
         " --once consumes a completed set with the same\n"
         " verdicts as `check`; --listen serves the\n"
         " heapmd_monitor_* Prometheus families)"},
        {"observe", cmdObserve,
         "--app NAME [--seed S=1] [--version V] [--scale X]\n"
         "[--frq N=300] [--fault KIND [--rate R] [--budget B]]",
         "(prints the metric series as CSV -- the paper's\n"
         " GUI plotter substitute)"},
        {"stats", cmdStats,
         "[--app NAME=" + specAppNames().front() +
             "] [--seed S=1] [--version V]\n"
             "[--scale X] [--frq N=300]\n"
             "[--fault KIND [--rate R] [--budget B]]\n"
             "or: --format prometheus [--pid P] [--fleet FILE]",
         "(runs once and prints the telemetry counters)\n"
         "(print the live stats segments as Prometheus\n"
         " text exposition instead of running anything;\n"
         " --fleet appends the heapmd_fleet_* families)"},
    };
    return table;
}

/** The flags of the usage text's global block: every command's. */
const std::set<std::string> kGlobalFlags = {"trace-out", "stats",
                                            "jobs"};

/** The flags a command takes: the global ones and its synopsis' `--name`s. */
std::set<std::string>
acceptedFlags(const std::string &synopsis)
{
    std::set<std::string> flags = kGlobalFlags;
    for (std::size_t at = synopsis.find("--"); at != std::string::npos;
         at = synopsis.find("--", at)) {
        at += 2;
        const std::size_t end = std::min(
            synopsis.find_first_not_of(
                "abcdefghijklmnopqrstuvwxyz0123456789-", at),
            synopsis.size());
        if (end > at) // not the bare `--` of capture's command split
            flags.insert(synopsis.substr(at, end - at));
        at = end;
    }
    return flags;
}

void
printUsage(std::FILE *to)
{
    std::fprintf(to, "usage: %s <command> [flags]\n\ncommands:\n",
                 g_argv0);
    for (const CommandSpec &command : commandTable()) {
        std::string lines = command.synopsis;
        if (!command.help.empty())
            lines += '\n' + command.help;
        // Every line after the first aligns under the first.
        for (std::size_t at = lines.find('\n'); at != std::string::npos;
             at = lines.find('\n', at + 11))
            lines.insert(at + 1, 10, ' ');
        const std::string name =
            lines.empty() ? command.name : command.name + ' ';
        std::fprintf(to, "  %-8s%s\n", name.c_str(), lines.c_str());
    }
    std::fprintf(
        to,
        "\n"
        "global flags (any command):\n"
        "  --trace-out FILE   Chrome trace-event JSON timeline\n"
        "  --stats 0|1        counter table on exit (stderr); the\n"
        "                     HEAPMD_STATS env var does the same\n"
        "  --jobs N           worker threads for train (--inputs or\n"
        "                     several --trace), check --inputs,\n"
        "                     multi-trace audit and fleet-merge\n"
        "                     (default 0 = one per CPU the process\n"
        "                     may run on; 1 = serial; the\n"
        "                     HEAPMD_JOBS env var is the fallback;\n"
        "                     outputs are bit-identical for any\n"
        "                     value)\n"
        "\n"
        "exit status: 0 clean; 1 fatal error; 2 usage error;\n"
        "  3 findings (anomaly reports, audit defects, model drift,\n"
        "  trend regressions)\n");
}

/** --stats 1 on the command line, or HEAPMD_STATS set and not "0". */
bool
statsRequested(const Args &args)
{
    if (args.has("stats"))
        return args.num("stats", 0) != 0;
    const char *env = std::getenv("HEAPMD_STATS");
    return env != nullptr && std::string(env) != "0";
}

} // namespace

int
main(int argc, char **argv)
{
    g_argv0 = argv[0];
    if (argc < 2)
        badInvocation("missing command");
    const std::string command = argv[1];
    g_command_line = "heapmd";
    for (int i = 1; i < argc; ++i) {
        g_command_line += ' ';
        g_command_line += argv[i];
    }

    const auto &table = commandTable();
    const auto it = std::find_if(table.begin(), table.end(),
                                 [&command](const CommandSpec &spec) {
                                     return spec.name == command;
                                 });
    if (it == table.end())
        badInvocation("unknown command '" + command + "'");

    // `capture` ends its flags at `--`; everything after is the
    // command to run and must not reach the flag parser.
    int flags_end = argc;
    if (command == "capture") {
        for (int i = 2; i < argc; ++i) {
            if (std::string(argv[i]) == "--") {
                flags_end = i;
                break;
            }
        }
        if (flags_end == argc)
            badInvocation(
                "capture needs a '--' separator before the command "
                "to run, e.g. `heapmd capture --out run.trace -- "
                "./app arg1`");
        for (int i = flags_end + 1; i < argc; ++i)
            g_capture_argv.push_back(argv[i]);
        if (g_capture_argv.empty())
            badInvocation("capture: no command follows '--'");
    }

    const Args args(flags_end, argv, it->positional);
    args.checkAllowed(command, acceptedFlags(it->synopsis));

    if (args.has("jobs")) {
        g_jobs = parseJobs(args.str("jobs"), "--jobs");
    } else if (const char *env = std::getenv("HEAPMD_JOBS");
               env != nullptr && *env != '\0') {
        g_jobs = parseJobs(env, "HEAPMD_JOBS");
    }

    const bool tracing =
        args.has("trace-out") &&
        telemetry::TraceSession::start(args.str("trace-out"));

    int status = 0;
    {
        HEAPMD_TRACE_SPAN("cli." + command);
        status = it->run(args);
    }
    if (tracing)
        telemetry::TraceSession::stop();

    if (statsRequested(args)) {
        telemetry::statsTable(
            telemetry::Registry::instance().snapshotAll())
            .print(std::cerr);
    }
    return status;
}
