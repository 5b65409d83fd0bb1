#include "diag/render.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace heapmd
{
namespace diag
{

namespace
{

/** Darkest-to-brightest ASCII intensity ramp ('.' lowest so minimum
 *  values stay visible next to the caret line's spaces). */
constexpr const char *kRamp = ".,:-=+*#%@";
constexpr std::size_t kRampSize = 10;

std::string
formatValue(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.4f", value);
    return buf;
}

/** "inner <- mid <- outer" over already-resolved frame names. */
std::string
formatFrames(const std::vector<BundleFrame> &frames)
{
    if (frames.empty())
        return "<empty stack>";
    std::string out;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        if (i)
            out += " <- ";
        out += frames[i].name;
    }
    return out;
}

void
renderPhase(std::ostringstream &os, const char *title,
            const std::vector<const BundleLogEntry *> &entries,
            std::size_t limit)
{
    if (entries.empty())
        return;
    os << "  stacks " << title << " (" << entries.size()
       << " snapshot" << (entries.size() == 1 ? "" : "s") << "):\n";
    const std::size_t shown = std::min(limit, entries.size());
    for (std::size_t i = 0; i < shown; ++i) {
        const BundleLogEntry &entry = *entries[i];
        os << "    point " << entry.pointIndex << " tick "
           << entry.tick << " value " << formatValue(entry.metricValue)
           << ": " << formatFrames(entry.frames) << "\n";
    }
    if (shown < entries.size())
        os << "    ... " << entries.size() - shown << " more ...\n";
}

} // namespace

std::string
asciiSparkline(const std::vector<double> &values)
{
    if (values.empty())
        return "";
    const auto [lo_it, hi_it] =
        std::minmax_element(values.begin(), values.end());
    const double lo = *lo_it;
    const double span = *hi_it - lo;
    std::string out;
    out.reserve(values.size());
    for (double v : values) {
        std::size_t level = kRampSize / 2;
        if (span > 0.0) {
            // A non-finite value (a loaded 1e400) scales to NaN, which
            // has no integer level: it renders at the top.
            const double scaled =
                (v - lo) / span * (kRampSize - 1) + 0.5;
            level = std::isnan(scaled)
                        ? kRampSize - 1
                        : std::min(static_cast<std::size_t>(scaled),
                                   kRampSize - 1);
        }
        out += kRamp[level];
    }
    return out;
}

std::string
renderIncident(const IncidentBundle &bundle,
               const RenderOptions &options)
{
    std::ostringstream os;
    os << "incident: " << bundle.bugClass << " on " << bundle.metric
       << " (" << bundle.direction << ")\n";
    os << "  program: " << bundle.program << "\n";
    os << "  observed " << formatValue(bundle.observedValue)
       << " outside calibrated [" << formatValue(bundle.calibratedMin)
       << ", " << formatValue(bundle.calibratedMax) << "] at point "
       << bundle.pointIndex << ", tick " << bundle.tick << "\n";

    // The root-cause hint leads: the paper's headline is that HeapMD
    // "is often able to pinpoint the function responsible" (4.3).
    if (bundle.suspects.empty()) {
        os << "  suspect functions: none (no stack context logged)\n";
    } else {
        os << "  suspect functions (innermost frame across "
           << bundle.contextLog.size() << " snapshots):\n";
        const std::size_t shown =
            std::min(options.maxSuspects, bundle.suspects.size());
        for (std::size_t i = 0; i < shown; ++i) {
            const BundleSuspect &suspect = bundle.suspects[i];
            os << "    " << i + 1 << ". " << suspect.name << "  "
               << suspect.snapshots << "/" << bundle.contextLog.size()
               << "\n";
        }
        if (shown < bundle.suspects.size())
            os << "    ... " << bundle.suspects.size() - shown
               << " more ...\n";
    }

    if (!bundle.window.empty()) {
        std::vector<double> values;
        values.reserve(bundle.window.size());
        std::size_t crossing = bundle.window.size(); // = off the end
        for (std::size_t i = 0; i < bundle.window.size(); ++i) {
            values.push_back(bundle.window[i].value);
            if (bundle.window[i].pointIndex == bundle.pointIndex)
                crossing = i;
        }
        const auto [lo, hi] =
            std::minmax_element(values.begin(), values.end());
        os << "  trajectory points " << bundle.window.front().pointIndex
           << ".." << bundle.window.back().pointIndex << " (min "
           << formatValue(*lo) << ", max " << formatValue(*hi)
           << ", ^ marks the crossing):\n";
        os << "    " << asciiSparkline(values) << "\n";
        if (crossing < bundle.window.size())
            os << "    " << std::string(crossing, ' ') << "^\n";
    }

    // Context stacks, split around the crossing point.
    std::vector<const BundleLogEntry *> before, during, after;
    for (const BundleLogEntry &entry : bundle.contextLog) {
        if (entry.pointIndex < bundle.pointIndex)
            before.push_back(&entry);
        else if (entry.pointIndex == bundle.pointIndex)
            during.push_back(&entry);
        else
            after.push_back(&entry);
    }
    renderPhase(os, "before the crossing", before,
                options.stacksPerPhase);
    renderPhase(os, "at the crossing", during, options.stacksPerPhase);
    renderPhase(os, "after the crossing", after,
                options.stacksPerPhase);
    return os.str();
}

namespace
{

std::string
formatHex(std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::string
formatSite(const FlowSiteRecord &site)
{
    if (!site.known)
        return "(unknown site)";
    return "event " + std::to_string(site.eventIndex) + " (byte " +
           std::to_string(site.byteOffset) + ") in " +
           (site.name.empty() ? "(no function)" : site.name);
}

/** One actionable sentence per flow rule. */
const char *
triageHint(const std::string &rule)
{
    if (rule == "flow.double_free")
        return "two owners released the same object: drop the "
               "redundant free, or hand off ownership explicitly";
    if (rule == "flow.free_unallocated")
        return "the freed pointer never came from the allocator: "
               "check for pointer arithmetic or a stale copy";
    if (rule == "flow.size_mismatch")
        return "an interior pointer reached free(): keep the base "
               "pointer for deallocation";
    if (rule == "flow.negative_size")
        return "a negative length reached the allocator: validate "
               "the size computation before allocating";
    if (rule == "flow.write_freed")
        return "a pointer kept past free() was written through: "
               "null the reference at the free site or reorder "
               "teardown";
    if (rule == "flow.write_unmapped")
        return "the store target was never a heap object: check "
               "for an uninitialized or corrupted pointer";
    if (rule == "flow.overlap_alloc")
        return "the allocator handed out overlapping extents: the "
               "trace is internally inconsistent or the recorder "
               "missed a free";
    if (rule == "flow.dangling_edge")
        return "a stale pointer to a recycled object was loaded and "
               "written through: null the reference when its target "
               "is freed";
    if (rule == "flow.leak_at_exit")
        return "objects from this site were never freed: add "
               "teardown, or suppress if the leak is intentional";
    return "see DESIGN.md section 12 for the flow.* rule catalog";
}

} // namespace

std::string
renderFlowIncident(const FlowIncident &incident)
{
    std::ostringstream os;
    os << "flow incident: " << incident.rule << " ("
       << incident.severity << ")\n";
    os << "  program: " << incident.program << "\n";
    os << "  at event " << incident.eventIndex << " (byte "
       << incident.byteOffset << "), address "
       << formatHex(incident.addr) << "\n";
    if (incident.size != 0) {
        os << "  object [" << formatHex(incident.base) << ", "
           << formatHex(incident.base + incident.size) << "), "
           << incident.size << " byte(s)";
        if (incident.lifetimeEvents != 0)
            os << ", lifetime " << incident.lifetimeEvents
               << " event(s)";
        os << "\n";
    }
    if (incident.rule == "flow.leak_at_exit") {
        os << "  leaked: " << incident.objects
           << " object(s), " << incident.bytes << " byte(s)\n";
    } else if (incident.objects != 0) {
        os << "  stale edges: " << incident.objects << "\n";
    }
    if (incident.allocSite.known)
        os << "  allocated at " << formatSite(incident.allocSite)
           << "\n";
    if (incident.freeSite.known)
        os << "  freed at " << formatSite(incident.freeSite) << "\n";
    os << "  detail: " << incident.message << "\n";
    os << "  triage: " << triageHint(incident.rule) << "\n";
    return os.str();
}

} // namespace diag
} // namespace heapmd
