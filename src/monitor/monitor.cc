#include "monitor/monitor.hh"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <utility>

#include "capture/capture_env.hh"
#include "obsv/segment.hh"
#include "support/logging.hh"
#include "telemetry/prom_text.hh"
#include "telemetry/telemetry.hh"
#include "trace/segment_set.hh"

namespace heapmd
{

namespace monitor
{

namespace
{

namespace fs = std::filesystem;
using telemetry::prom::appendF64;
using telemetry::prom::appendHeader;
using telemetry::prom::appendU64;
using telemetry::prom::escapeLabelValue;

void
sleepMs(std::uint64_t ms)
{
    timespec ts;
    ts.tv_sec = static_cast<time_t>(ms / 1000);
    ts.tv_nsec = static_cast<long>((ms % 1000) * 1000000);
    while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
    }
}

std::string
metricLabels(MetricId id)
{
    return "{metric=\"" + escapeLabelValue(metricName(id)) + "\"}";
}

} // namespace

MonitorSession::MonitorSession(const HeapModel &model,
                               MonitorOptions options)
    : model_(model), options_(std::move(options))
{
    if (options_.pollMs == 0)
        options_.pollMs = 1;
}

MonitorSession::~MonitorSession() = default;

const FunctionRegistry &
MonitorSession::registry() const
{
    return process_ != nullptr ? process_->registry() : own_registry_;
}

const MetricSeries &
MonitorSession::series() const
{
    return process_ != nullptr ? process_->series() : own_series_;
}

std::vector<MetricView>
MonitorSession::views() const
{
    if (detector_ == nullptr)
        return {};
    return detector_->views();
}

bool
MonitorSession::run(std::string &error)
{
    HEAPMD_TRACE_SPAN("monitor.run");
    HEAPMD_PHASE_SPAN_NAMED(phase, "phase.monitor");

    bool ok = false;
    if (!options_.segmentsBase.empty() && options_.pid != 0) {
        error = "monitor needs exactly one source: a segment base "
                "path or a pid, not both";
    } else if (!options_.segmentsBase.empty()) {
        ok = runSegments(error);
    } else if (options_.pid != 0) {
        ok = runPid(error);
    } else {
        error = "monitor needs a source: a segment base path or a "
                "pid";
    }

    // A stop, a drained source or a failure closes the open reports.
    if (detector_ != nullptr)
        detector_->finish();

    phase.addBytes(bytes_consumed_);
    HEAPMD_COUNTER_ADD("monitor.events", stats_.events);
    HEAPMD_COUNTER_ADD("monitor.samples", stats_.samples);
    HEAPMD_COUNTER_ADD("monitor.incidents", stats_.incidents);
    return ok;
}

void
MonitorSession::idle()
{
    if (detector_ != nullptr)
        stats_.samples = detector_->samplesChecked();
    if (options_.onIdle)
        options_.onIdle();
}

void
MonitorSession::handleIncident(const BugReport &report)
{
    ++stats_.incidents;
    reports_.push_back(report);
    if (detector_ != nullptr)
        stats_.samples = detector_->samplesChecked();

    if (!options_.bundleDir.empty()) {
        std::error_code ec;
        fs::create_directories(options_.bundleDir, ec);
        const diag::IncidentBundle bundle = diag::makeIncidentBundle(
            report, registry(), series(), options_.windowRadius);
        // Numbered from 001, as every other bundle writer does.
        char name[48];
        std::snprintf(name, sizeof name, "incident-%03" PRIu64
                      ".json",
                      stats_.bundlesWritten + 1);
        const fs::path path = fs::path(options_.bundleDir) / name;
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        if (out) {
            diag::saveIncidentBundle(bundle, out);
            out.flush();
        }
        // A daemon must not die on a bundle it cannot write.
        if (out)
            ++stats_.bundlesWritten;
        else
            warn("cannot write incident bundle '", path.string(), "': ",
                 ec ? ec.message() : std::strerror(errno));
    }

    if (options_.onIncident)
        options_.onIncident(report);
}

bool
MonitorSession::runSegments(std::string &error)
{
    ProcessConfig pcfg;
    pcfg.metricFrequency = 1; // one sample per shim scan marker
    pcfg.tolerateAddressReuse = true;
    process_ = std::make_unique<Process>(pcfg);

    // Interning the footer name tables as segments complete keeps
    // FnIds aligned with the writer's (each footer lists names in id
    // order and is a superset of its predecessors), so reports from
    // segment N symbolize with the names of segment N-1's footer.
    const auto intern_names =
        [this](const std::vector<std::string> &names) {
            for (const std::string &name : names)
                process_->registry().intern(name);
        };

    ExecutionChecker checker(model_);
    if (options_.follow) {
        detector_ = std::make_unique<AnomalyDetector>(
            model_, options_.detector);
        detector_->setIncidentCallback(
            [this](const BugReport &report) {
                handleIncident(report);
            });
        detector_->attach(*process_);
    } else {
        checker.attach(*process_);
    }

    trace::SegmentChain *chain_ptr = nullptr;
    trace::SegmentChain::Options copts;
    copts.follow = options_.follow;
    copts.pollMs = options_.pollMs;
    copts.stopped = options_.stopped;
    copts.onWait = [this, &chain_ptr] {
        if (chain_ptr != nullptr)
            stats_.tailLagBytes = chain_ptr->tailLagBytes();
        idle();
    };
    trace::SegmentChain chain(options_.segmentsBase, copts);
    chain_ptr = &chain;

    Event event;
    while (chain.next(event)) {
        process_->onEvent(event);
        ++stats_.events;
        if (chain.segmentsConsumed() != stats_.segmentsConsumed) {
            stats_.segmentsConsumed = chain.segmentsConsumed();
            intern_names(chain.functionNames());
        }
    }
    bytes_consumed_ = chain.bytesConsumed();
    stats_.segmentsConsumed = chain.segmentsConsumed();
    stats_.truncatedTail = chain.sawTruncatedTail();
    stats_.tailLagBytes = chain.tailLagBytes();
    intern_names(chain.functionNames());

    if (chain.failed()) {
        error = chain.error();
        return false;
    }

    if (options_.follow) {
        stats_.samples = detector_->samplesChecked();
    } else {
        const CheckResult result = checker.finalize(*process_);
        stats_.samples = result.samplesChecked;
        for (const BugReport &report : result.reports)
            handleIncident(report);
    }
    return true;
}

bool
MonitorSession::runPid(std::string &error)
{
    detector_ =
        std::make_unique<AnomalyDetector>(model_, options_.detector);
    detector_->setIncidentCallback([this](const BugReport &report) {
        handleIncident(report);
    });

    // The shm channel publishes aggregate percentages, not stacks;
    // every synthesized sample carries the scan marker as its only
    // context frame.
    const std::vector<FnId> scan_frames = {
        own_registry_.intern(capture::kScanFunctionName)};

    obsv::SegmentReader reader;
    std::uint64_t last_scans = 0;
    bool sampled = false;
    bool attached = false;

    for (;;) {
        if (options_.stopped && options_.stopped())
            break;

        if (!attached) {
            std::string attach_error;
            if (reader.attachPid(options_.pid, &attach_error)) {
                attached = true;
            } else if (!obsv::pidAlive(options_.pid)) {
                if (sampled)
                    break; // watched it to the end
                error = "process " + std::to_string(options_.pid) +
                        " is gone and left no stats segment";
                return false;
            } else if (!options_.follow) {
                error = attach_error;
                return false;
            } else {
                idle();
                sleepMs(options_.pollMs);
                continue;
            }
        }

        obsv::SegmentSnapshot snap;
        std::string read_error;
        if (!reader.read(snap, &read_error)) {
            if (!obsv::pidAlive(options_.pid))
                break; // writer died mid-run; nothing more to read
            error = read_error;
            return false;
        }

        if (own_series_.label.empty() && !snap.program.empty())
            own_series_.label = snap.program;
        stats_.events = snap.value(obsv::Slot::EventsEmitted);

        const std::uint64_t scans =
            snap.value(obsv::Slot::ScanPasses);
        if (snap.hasMetrics() && (!sampled || scans != last_scans)) {
            MetricSample sample;
            sample.tick = snap.value(obsv::Slot::EventsEmitted);
            sample.pointIndex = stats_.samples;
            sample.vertexCount = snap.value(obsv::Slot::LiveObjects);
            sample.edgeCount = snap.value(obsv::Slot::LiveEdges);
            for (const MetricId id : kAllMetrics)
                sample.values[metricIndex(id)] =
                    snap.metricPercent(id);
            own_series_.push(sample);
            detector_->observe(sample, scan_frames);
            stats_.samples = detector_->samplesChecked();
            last_scans = scans;
            sampled = true;
        }

        if (!options_.follow)
            break; // --once: one consistent snapshot is the answer

        if (!obsv::pidAlive(options_.pid))
            break;
        idle();
        sleepMs(options_.pollMs);
    }

    stats_.samples = detector_->samplesChecked();
    return true;
}

std::string
MonitorSession::renderPrometheus() const
{
    const std::vector<MetricView> views = this->views();
    std::string out;
    out.reserve(2048);

    appendHeader(out, "heapmd_monitor_metric_percent", "gauge",
                 "Most recent observed value of each monitored "
                 "degree metric (percent of vertices).");
    for (const MetricView &view : views) {
        if (!view.observed)
            continue;
        appendF64(out, "heapmd_monitor_metric_percent",
                  metricLabels(view.id), view.value);
    }

    appendHeader(out, "heapmd_monitor_range_distance", "gauge",
                 "Percentage points the metric sits beyond its "
                 "slacked calibrated range (0 while in range).");
    for (const MetricView &view : views) {
        if (!view.observed)
            continue;
        appendF64(out, "heapmd_monitor_range_distance",
                  metricLabels(view.id), view.distance);
    }

    appendHeader(out, "heapmd_monitor_violating_samples_total",
                 "counter",
                 "Samples observed outside the slacked calibrated "
                 "range, per metric.");
    for (const MetricView &view : views)
        appendU64(out, "heapmd_monitor_violating_samples_total",
                  metricLabels(view.id), view.violatingSamples);

    appendHeader(out, "heapmd_monitor_incidents_total", "counter",
                 "Incidents fired by the hysteresis detector.");
    appendU64(out, "heapmd_monitor_incidents_total", "",
              stats_.incidents);

    appendHeader(out, "heapmd_monitor_bundles_written_total",
                 "counter",
                 "Incident bundles persisted to the bundle "
                 "directory.");
    appendU64(out, "heapmd_monitor_bundles_written_total", "",
              stats_.bundlesWritten);

    appendHeader(out, "heapmd_monitor_samples_total", "counter",
                 "Metric samples checked against the model.");
    appendU64(out, "heapmd_monitor_samples_total", "",
              stats_.samples);

    appendHeader(out, "heapmd_monitor_events_total", "counter",
                 "Trace events folded into the monitor's heap-graph "
                 "image (writer-reported in shm mode).");
    appendU64(out, "heapmd_monitor_events_total", "", stats_.events);

    appendHeader(out, "heapmd_monitor_segments_consumed_total",
                 "counter",
                 "Trace segments fully decoded by the monitor.");
    appendU64(out, "heapmd_monitor_segments_consumed_total", "",
              stats_.segmentsConsumed);

    appendHeader(out, "heapmd_monitor_tail_lag_bytes", "gauge",
                 "Bytes on disk the monitor has not yet decoded "
                 "(decode lag behind the writer).");
    appendU64(out, "heapmd_monitor_tail_lag_bytes", "",
              stats_.tailLagBytes);

    return out;
}

} // namespace monitor

} // namespace heapmd
