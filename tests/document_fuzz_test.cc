/**
 * @file
 * Mutation harness over heapmd's four JSON documents (run manifest,
 * incident bundle, flow incident, fleet model).  Each canonical saved
 * document is mutated -- every prefix, every single-byte flip, every
 * single-byte deletion, every string emptied, and every number
 * replaced by huge, negative, fractional, infinite and off-by-one
 * values -- and each input goes through its loader, the
 * schema peek and its linter.  Oracles:
 *   - nothing crashes (the sanitizer jobs run this test);
 *   - a failed load leaves a non-empty error;
 *   - a successful load re-saves to bytes that reload and re-save
 *     identically;
 *   - a document the linter passes without an error loads, and the
 *     peek then reports the loaded schemaVersion.
 * Deterministic: the flips come from a fixed seed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <functional>
#include <string>
#include <vector>

#include "analysis/diag_lint.hh"
#include "analysis/fleet_lint.hh"
#include "detector/bug_report.hh"
#include "detector/classification.hh"
#include "diag/flow_incident.hh"
#include "diag/incident_bundle.hh"
#include "diag/run_manifest.hh"
#include "fleet/fleet_model.hh"
#include "metrics/metric.hh"
#include "support/random.hh"
#include "telemetry/json_document.hh"

namespace heapmd
{

namespace
{

/** One document type under test. */
struct DocumentKind
{
    const char *name;
    const char *kind;
    std::string canonical;
    /** Load @p text; on success set @p saved to its re-save. */
    std::function<bool(const std::string &text, std::string &saved,
                       std::string *error)>
        load;
    /** Lint @p text; true when no error-severity finding. */
    std::function<bool(const std::string &text)> lintClean;
};

template <typename Doc>
std::function<bool(const std::string &, std::string &, std::string *)>
loader(bool (*load)(const std::string &, Doc &, std::string *),
       std::string (*save)(const Doc &),
       std::uint64_t Doc::*version, std::uint64_t *loaded_version)
{
    return [=](const std::string &text, std::string &saved,
               std::string *error) {
        Doc doc;
        if (!load(text, doc, error))
            return false;
        saved = save(doc);
        *loaded_version = doc.*version;
        return true;
    };
}

diag::RunManifest
canonicalManifest()
{
    diag::RunManifest m;
    m.command = "check";
    m.commandLine = "heapmd check --app gzip --seed 3";
    m.program = "gzip";
    m.metricFrequency = 300;
    m.seed = 3;
    m.version = 1;
    m.scale = 0.5;
    m.fault = "dangling";
    m.faultRate = 0.25;
    m.rotateBytes = 4096;
    m.hardwareConcurrency = 4;
    m.sanitizer = "none";
    m.peakRssBytes = 1 << 20;
    m.durationNanos = 123456;
    m.inputs = {{"model", "gzip.model", "fnv1a:0123456789abcdef", 77}};
    m.phases = {{"phase.decode", 2, 900, 800, 4096}};
    m.events = 1000;
    m.samples = 10;
    m.allocs = 400;
    m.frees = 390;
    m.liveBlocksAtExit = 10;
    m.wallNanos = 5000;
    m.cpuNanos = 4000;
    m.reportsTotal = 2;
    m.heapAnomalies = 1;
    m.pathological = 1;
    m.bundlePaths = {"incident-0.json"};
    for (MetricId id : {MetricId::Roots, MetricId::Leaves}) {
        diag::ManifestMetric metric;
        metric.metric = metricName(id);
        metric.summary.count = 10;
        metric.summary.min = 1.5;
        metric.summary.max = 9.25;
        metric.summary.mean = 4.0;
        metric.summary.stddev = 0.5;
        m.metrics.push_back(metric);
    }
    m.counters = {{"trace.events", 1000}, {"trace.frees", 390}};
    m.gauges = {{"heap.live", -3}};
    return m;
}

diag::IncidentBundle
canonicalBundle()
{
    diag::IncidentBundle b;
    b.program = "gzip seed 3 v1";
    b.bugClass = bugClassName(BugClass::HeapAnomaly);
    b.metric = metricName(MetricId::Leaves);
    b.direction = anomalyDirectionName(AnomalyDirection::AboveMax);
    b.observedValue = 61.5;
    b.calibratedMin = 20.0;
    b.calibratedMax = 40.0;
    b.tick = 900;
    b.pointIndex = 9;
    b.suspects = {{7, "list_push", 2}, {3, "main", 1}};
    b.contextLog = {{800, 8, 39.5, {{7, "list_push"}, {3, "main"}}},
                    {900, 9, 61.5, {{7, "list_push"}}}};
    b.windowRadius = 1;
    b.window = {{8, 800, 39.5}, {9, 900, 61.5}, {10, 1000, 62.0}};
    return b;
}

diag::FlowIncident
canonicalFlow()
{
    diag::FlowIncident f;
    f.program = "gzip";
    f.rule = "flow.write_freed";
    f.severity = "error";
    f.message = "write into freed block";
    f.byteOffset = 120;
    f.eventIndex = 14;
    f.addr = 4104;
    f.base = 4096;
    f.size = 32;
    f.lifetimeEvents = 6;
    f.objects = 1;
    f.bytes = 32;
    f.allocSite = {true, 5, "node_new", 3, 40};
    f.freeSite = {true, 6, "node_free", 9, 88};
    return f;
}

fleet::FleetModel
canonicalFleet()
{
    fleet::FleetModel f;
    f.processes = 3;
    f.metricFrequency = 300;
    for (const char *path : {"a.json", "b.json", "c.json"})
        f.members.push_back({path, "gzip", "check", 4, 1000, 10, 0,
                             300, 0});
    f.metrics = {{metricName(MetricId::Roots), 3, 30, 1.0, 5.0, 3.0,
                  0.5}};
    f.outliers = {{"b.json", metricName(MetricId::Roots), 4.5, 9.0,
                   3.0}};
    f.incidents = {{"heap-anomaly|Leaves|list_push", 2,
                    {"a.json", "c.json"}}};
    return f;
}

/** Every number token of @p text, as (offset, length). */
std::vector<std::pair<std::size_t, std::size_t>>
numberTokens(const std::string &text)
{
    std::vector<std::pair<std::size_t, std::size_t>> out;
    bool in_string = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"') {
            in_string = true;
            continue;
        }
        if (c != '-' && !std::isdigit(static_cast<unsigned char>(c)))
            continue;
        std::size_t end = i + 1;
        while (end < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[end])) ||
                text[end] == '.' || text[end] == 'e' ||
                text[end] == 'E' || text[end] == '+' ||
                text[end] == '-'))
            ++end;
        out.emplace_back(i, end - i);
        i = end - 1;
    }
    return out;
}

/** The contents of every string token of @p text, as (offset, length). */
std::vector<std::pair<std::size_t, std::size_t>>
stringTokens(const std::string &text)
{
    std::vector<std::pair<std::size_t, std::size_t>> out;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] != '"')
            continue;
        std::size_t end = i + 1;
        while (end < text.size() && text[end] != '"')
            end += text[end] == '\\' ? 2 : 1;
        out.emplace_back(i + 1, std::min(end, text.size()) - i - 1);
        i = end;
    }
    return out;
}

/** The mutated inputs of one canonical document. */
std::vector<std::string>
mutations(const std::string &canonical, std::uint64_t seed)
{
    std::vector<std::string> out;
    for (std::size_t n = 0; n < canonical.size(); ++n)
        out.push_back(canonical.substr(0, n));
    Rng rng(seed);
    for (std::size_t i = 0; i < canonical.size(); ++i) {
        std::string flipped = canonical;
        flipped[i] = static_cast<char>(
            flipped[i] ^ static_cast<char>(1 + rng.below(255)));
        out.push_back(std::move(flipped));
    }
    // Deletions: each single byte, and each string's contents.
    for (std::size_t i = 0; i < canonical.size(); ++i)
        out.push_back(canonical.substr(0, i) + canonical.substr(i + 1));
    for (const auto &[offset, length] : stringTokens(canonical))
        out.push_back(canonical.substr(0, offset) +
                      canonical.substr(offset + length));
    static const char *const kNumbers[] = {
        "0",      "-1",   "1.5",  "0.5",
        "1e30",   "1e400", "-1e400", "18446744073709551616",
        "9223372036854775808", "4294967296",
    };
    for (const auto &[offset, length] : numberTokens(canonical)) {
        const std::string token = canonical.substr(offset, length);
        std::vector<std::string> values(std::begin(kNumbers),
                                        std::end(kNumbers));
        // Off by one: counts that disagree with their arrays.
        if (token.find_first_of(".eE-") == std::string::npos)
            values.push_back(std::to_string(std::stoull(token) + 1));
        for (const std::string &value : values) {
            std::string mutated = canonical;
            mutated.replace(offset, length, value);
            out.push_back(std::move(mutated));
        }
    }
    return out;
}

std::vector<DocumentKind>
documentKinds(std::uint64_t &loaded_version)
{
    using analysis::Report;
    std::vector<DocumentKind> kinds;
    kinds.push_back(
        {"manifest", diag::kManifestKind,
         diag::manifestToJson(canonicalManifest()),
         loader<diag::RunManifest>(diag::loadRunManifest,
                                   diag::manifestToJson,
                                   &diag::RunManifest::schemaVersion,
                                   &loaded_version),
         [](const std::string &text) {
             Report report;
             analysis::lintManifestText(text, report);
             return report.clean();
         }});
    kinds.push_back(
        {"bundle", diag::kBundleKind,
         diag::bundleToJson(canonicalBundle()),
         loader<diag::IncidentBundle>(
             diag::loadIncidentBundle, diag::bundleToJson,
             &diag::IncidentBundle::schemaVersion, &loaded_version),
         [](const std::string &text) {
             Report report;
             analysis::lintBundleText(text, report);
             return report.clean();
         }});
    kinds.push_back(
        {"flow", diag::kFlowKind,
         diag::flowIncidentToJson(canonicalFlow()),
         loader<diag::FlowIncident>(
             diag::loadFlowIncident, diag::flowIncidentToJson,
             &diag::FlowIncident::schemaVersion, &loaded_version),
         [](const std::string &text) {
             Report report;
             analysis::lintBundleText(text, report);
             return report.clean();
         }});
    kinds.push_back(
        {"fleet", fleet::kFleetKind,
         fleet::fleetToJson(canonicalFleet()),
         loader<fleet::FleetModel>(fleet::loadFleetModel,
                                   fleet::fleetToJson,
                                   &fleet::FleetModel::schemaVersion,
                                   &loaded_version),
         [](const std::string &text) {
             Report report;
             analysis::lintFleetText(text, report);
             return report.clean();
         }});
    return kinds;
}

TEST(DocumentFuzzTest, CanonicalDocumentsLoadAndLintClean)
{
    std::uint64_t version = 0;
    for (const DocumentKind &kind : documentKinds(version)) {
        std::string saved, error;
        EXPECT_TRUE(kind.load(kind.canonical, saved, &error))
            << kind.name << ": " << error;
        EXPECT_EQ(saved, kind.canonical) << kind.name;
        EXPECT_TRUE(kind.lintClean(kind.canonical)) << kind.name;
    }
}

TEST(DocumentFuzzTest, MutatedDocumentsKeepTheOracles)
{
    std::uint64_t loaded_version = 0;
    std::size_t inputs = 0;
    std::size_t loaded = 0;
    std::size_t counterexamples = 0;
    const auto report = [&](const DocumentKind &kind,
                            const std::string &input,
                            const std::string &what) {
        if (++counterexamples <= 10)
            ADD_FAILURE() << kind.name << ": " << what << "\n"
                          << input;
    };
    std::uint64_t seed = 1;
    for (const DocumentKind &kind : documentKinds(loaded_version)) {
        for (const std::string &input :
             mutations(kind.canonical, seed++)) {
            ++inputs;
            std::string saved, error;
            const bool ok = kind.load(input, saved, &error);
            std::uint64_t peeked = 0;
            const bool peek_ok =
                telemetry::peekSchemaVersion(input, kind.kind, peeked);
            const bool lint_clean = kind.lintClean(input);
            if (!ok) {
                if (error.empty())
                    report(kind, input, "failed load left no error");
                if (lint_clean)
                    report(kind, input,
                           "lint passes a document that does not "
                           "load: " + error);
                continue;
            }
            ++loaded;
            if (!peek_ok || peeked != loaded_version)
                report(kind, input, "peek disagrees with the load");
            std::string resaved;
            if (!kind.load(saved, resaved, &error))
                report(kind, input, "re-save does not reload: " + error);
            else if (resaved != saved)
                report(kind, input, "re-save does not reload equal");
        }
    }
    EXPECT_EQ(counterexamples, 0u);
    // The corpus must exercise both outcomes.
    EXPECT_GT(loaded, 0u);
    EXPECT_GT(inputs - loaded, 0u);
}

} // namespace

} // namespace heapmd
