#include "analysis/model_lint.hh"

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

#include "analysis/text_parse.hh"
#include "metrics/metric.hh"
#include "metrics/stability.hh"
#include "telemetry/telemetry.hh"

namespace heapmd
{

namespace analysis
{

namespace
{

/** One parsed "metric" line. */
struct ParsedEntry
{
    std::string name;
    bool local = false;
    double minValue = 0.0;
    double maxValue = 0.0;
    double avgChange = 0.0;
    double stdDev = 0.0;
    std::uint64_t stableRuns = 0;
};

/** @return false on a syntax error (reported by the caller). */
bool
parseMetricLine(std::istringstream &ls, ParsedEntry &entry)
{
    std::string token;
    if (!(ls >> entry.name) || !(ls >> token))
        return false;
    if (token == "kind") { // current format; legacy omits the field
        std::string kind;
        if (!(ls >> kind) || !(ls >> token))
            return false;
        if (kind != "local" && kind != "global")
            return false;
        entry.local = kind == "local";
    }
    if (token != "min")
        return false;

    const struct
    {
        const char *key;
        double *value;
    } fields[] = {
        {"max", &entry.maxValue},
        {"avg", &entry.avgChange},
        {"std", &entry.stdDev},
    };
    std::string value;
    if (!(ls >> value) || !parseDouble(value, entry.minValue))
        return false;
    for (const auto &field : fields) {
        if (!(ls >> token) || token != field.key)
            return false;
        if (!(ls >> value) || !parseDouble(value, *field.value))
            return false;
    }
    if (!(ls >> token) || token != "stable_runs")
        return false;
    if (!(ls >> value) || !parseCount(value, entry.stableRuns))
        return false;
    return true;
}

/** Document-wide lint state. */
struct Linter
{
    Report &report;
    /** The paper's bounds, which the default summarizer enforces. */
    const StabilityThresholds thresholds{};
    ModelLintStats stats;

    std::set<std::string> calibrated;
    std::set<std::string> unstable;
    std::uint64_t trainingRuns = 0;
    bool sawRuns = false;
    std::vector<std::pair<std::uint64_t, ParsedEntry>> entries;

    explicit Linter(Report &rep) : report(rep) {}

    void checkEntry(std::uint64_t line_no, const ParsedEntry &e);
    void finish(bool saw_end, std::uint64_t end_line);
};

void
Linter::checkEntry(std::uint64_t line_no, const ParsedEntry &e)
{
    if (!tryMetricFromName(e.name)) {
        report.errorAtLine("model.unknown-metric", line_no,
                           "unknown metric name '" + e.name + "'");
    }
    if (!calibrated.insert(e.name).second) {
        report.errorAtLine("model.duplicate-metric", line_no,
                           "metric '" + e.name +
                               "' calibrated more than once");
    }

    const struct
    {
        const char *field;
        double value;
    } numeric[] = {
        {"min", e.minValue},
        {"max", e.maxValue},
        {"avg", e.avgChange},
        {"std", e.stdDev},
    };
    bool finite = true;
    for (const auto &[field, value] : numeric) {
        if (!std::isfinite(value)) {
            report.errorAtLine("model.non-finite", line_no,
                               std::string(field) + " of metric '" +
                                   e.name + "' is not finite");
            finite = false;
        }
    }
    if (!finite)
        return; // range/threshold checks are meaningless on NaN/inf

    if (e.minValue > e.maxValue) {
        std::ostringstream oss;
        oss << "metric '" << e.name << "' has min " << e.minValue
            << " > max " << e.maxValue;
        report.errorAtLine("model.range-inverted", line_no, oss.str());
    }
    // All seven metrics are percentages of live vertices.
    if (e.minValue < 0.0 || e.maxValue > 100.0) {
        std::ostringstream oss;
        oss << "calibrated range [" << e.minValue << ", "
            << e.maxValue << "] of metric '" << e.name
            << "' leaves the 0..100 percentage domain";
        report.errorAtLine("model.threshold-bounds", line_no,
                           oss.str());
    }
    if (std::abs(e.avgChange) > thresholds.maxAbsAvgChange) {
        std::ostringstream oss;
        oss << "avg change " << e.avgChange << " of metric '"
            << e.name << "' exceeds the stability threshold of +/-"
            << thresholds.maxAbsAvgChange << '%';
        report.errorAtLine("model.threshold-bounds", line_no,
                           oss.str());
    }
    const double std_bound =
        e.local ? kLocallyStableStdDev : thresholds.maxStdDev;
    if (e.stdDev < 0.0 || e.stdDev > std_bound) {
        std::ostringstream oss;
        oss << "change stddev " << e.stdDev << " of "
            << (e.local ? "locally" : "globally")
            << " stable metric '" << e.name
            << "' is outside [0, " << std_bound << ']';
        report.errorAtLine("model.threshold-bounds", line_no,
                           oss.str());
    }
    if (e.stableRuns == 0) {
        report.errorAtLine("model.stable-runs", line_no,
                           "metric '" + e.name +
                               "' calibrated over 0 stable runs");
    }
}

void
Linter::finish(bool saw_end, std::uint64_t end_line)
{
    if (!saw_end) {
        report.errorAtLine("model.no-end", end_line,
                           "document missing the 'end' terminator");
    }
    for (const auto &[line_no, e] : entries) {
        if (unstable.count(e.name) != 0) {
            report.errorAtLine("model.duplicate-metric", line_no,
                               "metric '" + e.name +
                                   "' is both calibrated and listed "
                                   "as never-stable");
        }
        if (sawRuns && e.stableRuns > trainingRuns) {
            report.errorAtLine(
                "model.stable-runs", line_no,
                "metric '" + e.name + "' claims " +
                    std::to_string(e.stableRuns) +
                    " stable runs out of only " +
                    std::to_string(trainingRuns) + " training runs");
        }
    }
    if (entries.empty()) {
        report.error("model.empty-stable-set",
                     "no metric was calibrated; the model cannot "
                     "detect anything");
    }
    if (sawRuns && trainingRuns == 0) {
        report.warning("model.stable-runs",
                       "model declares 0 training runs");
    }
}

} // namespace

ModelLintStats
lintModel(std::istream &is, Report &report)
{
    Linter linter(report);
    std::string line;
    std::uint64_t line_no = 0;

    if (!std::getline(is, line) || line != "heapmd-model v1") {
        report.errorAtLine("model.bad-header", 1,
                           "first line is not 'heapmd-model v1'");
        linter.stats.lines = line_no;
        return linter.stats;
    }
    ++line_no;

    bool saw_end = false;
    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        if (key == "program") {
            // Free-form remainder; nothing to validate.
        } else if (key == "runs") {
            std::string value;
            if (!(ls >> value) ||
                !parseCount(value, linter.trainingRuns)) {
                report.errorAtLine("model.syntax", line_no,
                                   "malformed runs line: " + line);
            } else {
                linter.sawRuns = true;
            }
        } else if (key == "metric") {
            ParsedEntry entry;
            if (!parseMetricLine(ls, entry)) {
                report.errorAtLine("model.syntax", line_no,
                                   "malformed metric line: " + line);
            } else {
                ++linter.stats.stableMetrics;
                linter.checkEntry(line_no, entry);
                linter.entries.emplace_back(line_no, entry);
            }
        } else if (key == "unstable") {
            std::string name;
            if (!(ls >> name)) {
                report.errorAtLine("model.syntax", line_no,
                                   "malformed unstable line");
            } else {
                ++linter.stats.unstableMetrics;
                if (!tryMetricFromName(name)) {
                    report.errorAtLine("model.unknown-metric",
                                       line_no,
                                       "unknown metric name '" +
                                           name + "'");
                }
                if (!linter.unstable.insert(name).second) {
                    report.errorAtLine("model.duplicate-metric",
                                       line_no,
                                       "metric '" + name +
                                           "' listed as never-stable "
                                           "twice");
                }
            }
        } else if (key == "end") {
            saw_end = true;
            if (std::getline(is, line) && !line.empty()) {
                report.warningAtLine("model.syntax", line_no + 1,
                                     "content after 'end'");
            }
            break;
        } else {
            report.errorAtLine("model.syntax", line_no,
                               "unknown model key '" + key + "'");
        }
    }

    linter.finish(saw_end, line_no + 1);
    linter.stats.lines = line_no;
    return linter.stats;
}

ModelLintStats
lintModelFile(const std::string &path, Report &report)
{
    HEAPMD_TRACE_SPAN("audit.model");
    HEAPMD_COUNTER_INC("audit.model_lints");
    const std::size_t before = report.findings().size();
    std::ifstream in(path);
    if (!in) {
        report.error("model.io",
                     "cannot open model file '" + path + "'");
        HEAPMD_COUNTER_INC("audit.findings");
        return {};
    }
    const ModelLintStats stats = lintModel(in, report);
    HEAPMD_COUNTER_ADD("audit.findings",
                       report.findings().size() - before);
    return stats;
}

} // namespace analysis

} // namespace heapmd
