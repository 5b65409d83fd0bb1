#include "analysis/graph_lint.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "analysis/text_parse.hh"
#include "heapgraph/degree_histogram.hh"
#include "heapgraph/graph_snapshot.hh"
#include "metrics/metric.hh"
#include "support/types.hh"
#include "telemetry/telemetry.hh"

namespace heapmd
{

namespace analysis
{

namespace
{

constexpr std::size_t kBuckets = DegreeHistogram::kExactBuckets;

/** One parsed "vertex" line. */
struct ParsedVertex
{
    std::uint64_t line = 0;
    Addr addr = 0;
    std::uint64_t size = 0;
    std::uint64_t indeg = 0;
    std::uint64_t outdeg = 0;
};

/** One parsed "hist" line: its counts, and where it was. */
struct ParsedHistogram : DegreeCounts
{
    std::uint64_t line = 0;
};

/** Whole parsed document plus lint state. */
struct Linter
{
    Report &report;
    GraphLintStats stats;

    bool sawVertexCount = false, sawEdgeCount = false;
    std::uint64_t declaredVertices = 0;
    std::uint64_t declaredEdges = 0;
    std::map<ObjectId, ParsedVertex> vertices;
    /** Distinct edge -> line number of its first declaration. */
    std::map<std::pair<ObjectId, ObjectId>, std::uint64_t> edges;
    std::map<ObjectId, std::uint64_t> countedIn, countedOut;
    ParsedHistogram hist;
    bool sawHist = false;
    std::map<MetricId, std::pair<std::uint64_t, double>> metrics;

    explicit Linter(Report &rep)
        : report(rep)
    {
    }

    bool parseKeyedCount(std::istringstream &ls, const char *key,
                         std::uint64_t &value)
    {
        std::string token, number;
        if (!(ls >> token) || token != key)
            return false;
        return (ls >> number) && parseCount(number, value);
    }

    void vertexLine(std::uint64_t line_no, std::istringstream &ls);
    void edgeLine(std::uint64_t line_no, std::istringstream &ls);
    void histLine(std::uint64_t line_no, std::istringstream &ls);
    void metricLine(std::uint64_t line_no, std::istringstream &ls);
    void finish(bool saw_end, std::uint64_t end_line);
};

void
Linter::vertexLine(std::uint64_t line_no, std::istringstream &ls)
{
    std::string id_token;
    std::uint64_t id = 0;
    ParsedVertex v;
    v.line = line_no;
    if (!(ls >> id_token) || !parseCount(id_token, id) ||
        !parseKeyedCount(ls, "addr", v.addr) ||
        !parseKeyedCount(ls, "size", v.size) ||
        !parseKeyedCount(ls, "indeg", v.indeg) ||
        !parseKeyedCount(ls, "outdeg", v.outdeg)) {
        report.errorAtLine("graph.syntax", line_no,
                           "malformed vertex line");
        return;
    }
    ++stats.vertices;
    if (v.size == 0) {
        report.errorAtLine("graph.zero-extent", line_no,
                           "vertex " + std::to_string(id) +
                               " has extent size 0");
    }
    if (!vertices.emplace(id, v).second) {
        report.errorAtLine("graph.duplicate", line_no,
                           "vertex id " + std::to_string(id) +
                               " declared twice");
    }
}

void
Linter::edgeLine(std::uint64_t line_no, std::istringstream &ls)
{
    std::string from_token, to_token;
    std::uint64_t from = 0, to = 0;
    if (!(ls >> from_token) || !parseCount(from_token, from) ||
        !(ls >> to_token) || !parseCount(to_token, to)) {
        report.errorAtLine("graph.syntax", line_no,
                           "malformed edge line");
        return;
    }
    ++stats.edges;
    if (!edges.emplace(std::make_pair(from, to), line_no).second) {
        report.errorAtLine("graph.duplicate", line_no,
                           "edge " + std::to_string(from) + " -> " +
                               std::to_string(to) +
                               " declared twice");
        return; // degrees count distinct edges only
    }
    ++countedOut[from];
    ++countedIn[to];
}

void
Linter::histLine(std::uint64_t line_no, std::istringstream &ls)
{
    if (sawHist) {
        report.errorAtLine("graph.duplicate", line_no,
                           "histogram declared twice");
        return;
    }
    ParsedHistogram h;
    h.line = line_no;
    std::string token, number;
    bool ok = parseKeyedCount(ls, "vertices", h.vertices);
    ok = ok && (ls >> token) && token == "indeg";
    for (std::size_t d = 0; ok && d < kBuckets; ++d)
        ok = (ls >> number) && parseCount(number, h.indeg[d]);
    ok = ok && (ls >> token) && token == "outdeg";
    for (std::size_t d = 0; ok && d < kBuckets; ++d)
        ok = (ls >> number) && parseCount(number, h.outdeg[d]);
    ok = ok && parseKeyedCount(ls, "ineqout", h.inEqOut);
    if (!ok) {
        report.errorAtLine("graph.syntax", line_no,
                           "malformed hist line");
        return;
    }
    hist = h;
    sawHist = true;
}

void
Linter::metricLine(std::uint64_t line_no, std::istringstream &ls)
{
    std::string name, number;
    double value = 0.0;
    if (!(ls >> name) || !(ls >> number) ||
        !parseDouble(number, value)) {
        report.errorAtLine("graph.syntax", line_no,
                           "malformed metric line");
        return;
    }
    const auto id = tryMetricFromName(name);
    if (!id) {
        report.errorAtLine("graph.syntax", line_no,
                           "unknown metric name '" + name + "'");
        return;
    }
    if (!metrics.emplace(*id, std::make_pair(line_no, value)).second) {
        report.errorAtLine("graph.duplicate", line_no,
                           "metric '" + name + "' declared twice");
    }
}

void
Linter::finish(bool saw_end, std::uint64_t end_line)
{
    if (!saw_end) {
        report.errorAtLine("graph.no-end", end_line,
                           "document missing the 'end' terminator");
    }

    // Declared counts vs. actual lines.
    if (sawVertexCount && declaredVertices != stats.vertices) {
        report.error("graph.count-mismatch",
                     "document declares " +
                         std::to_string(declaredVertices) +
                         " vertices but lists " +
                         std::to_string(stats.vertices));
    }
    if (sawEdgeCount && declaredEdges != edges.size()) {
        report.error("graph.count-mismatch",
                     "document declares " +
                         std::to_string(declaredEdges) +
                         " edges but lists " +
                         std::to_string(edges.size()) + " distinct");
    }

    // Every edge endpoint must be a declared vertex (vertex lines may
    // appear anywhere in the document, so this runs after parsing).
    for (const auto &[edge, line_no] : edges) {
        for (const auto &[label, id] :
             {std::pair<const char *, ObjectId>{"source", edge.first},
              {"target", edge.second}}) {
            if (vertices.count(id) == 0) {
                report.errorAtLine("graph.dangling-edge", line_no,
                                   std::string("edge ") + label +
                                       " " + std::to_string(id) +
                                       " is not a declared vertex");
            }
        }
    }

    // Degree conservation: per-vertex declared degrees must agree
    // with a recount from the edge list, and both sides of every
    // distinct edge contribute exactly once, so the in- and
    // out-degree sums must both equal the distinct edge count.
    std::uint64_t sum_in = 0, sum_out = 0;
    for (const auto &[id, v] : vertices) {
        sum_in += v.indeg;
        sum_out += v.outdeg;
        const std::uint64_t in_count =
            countedIn.count(id) != 0 ? countedIn.at(id) : 0;
        const std::uint64_t out_count =
            countedOut.count(id) != 0 ? countedOut.at(id) : 0;
        if (v.indeg != in_count || v.outdeg != out_count) {
            report.errorAtLine(
                "graph.degree-mismatch", v.line,
                "vertex " + std::to_string(id) + " declares in/out " +
                    std::to_string(v.indeg) + "/" +
                    std::to_string(v.outdeg) +
                    " but the edge list yields " +
                    std::to_string(in_count) + "/" +
                    std::to_string(out_count));
        }
    }
    if (sum_in != sum_out || sum_in != edges.size()) {
        report.error("graph.degree-mismatch",
                     "degree conservation broken: sum(indeg) " +
                         std::to_string(sum_in) + ", sum(outdeg) " +
                         std::to_string(sum_out) + ", edges " +
                         std::to_string(edges.size()));
    }

    // No two live extents may overlap.
    struct Extent
    {
        Addr addr;
        std::uint64_t size;
        ObjectId id;
        std::uint64_t line;
    };
    std::vector<Extent> extents;
    extents.reserve(vertices.size());
    for (const auto &[id, v] : vertices) {
        if (v.size != 0) // zero extents are flagged separately
            extents.push_back({v.addr, v.size, id, v.line});
    }
    std::sort(extents.begin(), extents.end(),
              [](const Extent &a, const Extent &b) {
                  return a.addr < b.addr ||
                         (a.addr == b.addr && a.id < b.id);
              });
    for (std::size_t i = 1; i < extents.size(); ++i) {
        const Extent &prev = extents[i - 1];
        const Extent &cur = extents[i];
        if (cur.addr - prev.addr < prev.size) {
            report.errorAtLine(
                "graph.extent-overlap", cur.line,
                "vertex " + std::to_string(cur.id) + " at address " +
                    std::to_string(cur.addr) + " overlaps vertex " +
                    std::to_string(prev.id));
        }
    }

    // Histogram totals vs. a recount from the declared degrees.
    if (!sawHist) {
        report.error("graph.histogram", "missing hist line");
    } else {
        DegreeCounts recount;
        for (const auto &[id, v] : vertices)
            recount.add(v.indeg, v.outdeg);
        if (hist.vertices != vertices.size()) {
            report.errorAtLine(
                "graph.histogram", hist.line,
                "histogram total " + std::to_string(hist.vertices) +
                    " != vertex count " +
                    std::to_string(vertices.size()));
        }
        for (std::size_t d = 0; d < kBuckets; ++d) {
            if (hist.indeg[d] != recount.indeg[d]) {
                report.errorAtLine(
                    "graph.histogram", hist.line,
                    "indeg=" + std::to_string(d) + " bucket is " +
                        std::to_string(hist.indeg[d]) +
                        ", recount says " +
                        std::to_string(recount.indeg[d]));
            }
            if (hist.outdeg[d] != recount.outdeg[d]) {
                report.errorAtLine(
                    "graph.histogram", hist.line,
                    "outdeg=" + std::to_string(d) + " bucket is " +
                        std::to_string(hist.outdeg[d]) +
                        ", recount says " +
                        std::to_string(recount.outdeg[d]));
            }
        }
        if (hist.inEqOut != recount.inEqOut) {
            report.errorAtLine(
                "graph.histogram", hist.line,
                "ineqout count is " + std::to_string(hist.inEqOut) +
                    ", recount says " + std::to_string(recount.inEqOut));
        }

        // The seven paper metrics must be recomputable from the
        // histogram within epsilon.
        const std::array<double, kNumMetrics> expected = hist.percents();
        for (MetricId id : kAllMetrics) {
            const double want = expected[metricIndex(id)];
            const auto it = metrics.find(id);
            if (it == metrics.end()) {
                report.error("graph.metric-recompute",
                             "metric '" + metricName(id) +
                                 "' missing from the document");
                continue;
            }
            const auto &[line_no, got] = it->second;
            if (std::abs(got - want) > kMetricEpsilon) {
                std::ostringstream oss;
                oss << "metric '" << metricName(id) << "' is " << got
                    << " but the histogram recomputes to " << want;
                report.errorAtLine("graph.metric-recompute", line_no,
                                   oss.str());
            }
        }
    }
}

} // namespace

GraphLintStats
lintGraph(std::istream &is, Report &report)
{
    Linter linter(report);
    std::string line;
    std::uint64_t line_no = 0;

    if (!std::getline(is, line) || line != kGraphSnapshotHeader) {
        report.errorAtLine("graph.bad-header", 1,
                           std::string("first line is not '") +
                               kGraphSnapshotHeader + "'");
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
        if (key == "vertices") {
            std::string number;
            if (!(ls >> number) ||
                !parseCount(number, linter.declaredVertices)) {
                report.errorAtLine("graph.syntax", line_no,
                                   "malformed vertices line");
            } else {
                linter.sawVertexCount = true;
            }
        } else if (key == "edges") {
            std::string number;
            if (!(ls >> number) ||
                !parseCount(number, linter.declaredEdges)) {
                report.errorAtLine("graph.syntax", line_no,
                                   "malformed edges line");
            } else {
                linter.sawEdgeCount = true;
            }
        } else if (key == "vertex") {
            linter.vertexLine(line_no, ls);
        } else if (key == "edge") {
            linter.edgeLine(line_no, ls);
        } else if (key == "hist") {
            linter.histLine(line_no, ls);
        } else if (key == "metric") {
            linter.metricLine(line_no, ls);
        } else if (key == "end") {
            saw_end = true;
            break;
        } else {
            report.errorAtLine("graph.syntax", line_no,
                               "unknown snapshot key '" + key + "'");
        }
    }

    linter.finish(saw_end, line_no + 1);
    linter.stats.lines = line_no;
    return linter.stats;
}

GraphLintStats
lintGraphFile(const std::string &path, Report &report)
{
    HEAPMD_TRACE_SPAN("audit.graph");
    HEAPMD_COUNTER_INC("audit.graph_lints");
    const std::size_t before = report.findings().size();
    std::ifstream in(path);
    if (!in) {
        report.error("graph.io",
                     "cannot open graph snapshot '" + path + "'");
        HEAPMD_COUNTER_INC("audit.findings");
        return {};
    }
    const GraphLintStats stats = lintGraph(in, report);
    HEAPMD_COUNTER_ADD("audit.findings",
                       report.findings().size() - before);
    return stats;
}

} // namespace analysis

} // namespace heapmd
