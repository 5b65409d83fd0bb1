#include "telemetry/prom_text.hh"

#include <cinttypes>
#include <cstdio>

namespace heapmd
{
namespace telemetry
{
namespace prom
{

std::string
escapeLabelValue(std::string_view value)
{
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
        switch (c) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        default: out += c; break;
        }
    }
    return out;
}

void
appendHeader(std::string &out, const char *name, const char *type,
             const char *help)
{
    out.append("# HELP ").append(name).append(" ").append(help);
    out.append("\n# TYPE ").append(name).append(" ").append(type);
    out.append("\n");
}

void
appendU64(std::string &out, const char *name,
          const std::string &labels, std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRIu64, value);
    out.append(name).append(labels).append(" ").append(buf).append("\n");
}

void
appendF64(std::string &out, const char *name,
          const std::string &labels, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", value);
    out.append(name).append(labels).append(" ").append(buf).append("\n");
}

} // namespace prom
} // namespace telemetry
} // namespace heapmd
