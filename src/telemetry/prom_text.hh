/**
 * @file
 * Prometheus text-exposition (format 0.0.4) line writers, shared by
 * every scrape heapmd renders: stats segments (obsv), the monitor's
 * detector state and fleet models.  Reals print with six fixed
 * decimals, so equal inputs render byte-identical scrapes.
 */

#ifndef HEAPMD_TELEMETRY_PROM_TEXT_HH
#define HEAPMD_TELEMETRY_PROM_TEXT_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace heapmd
{
namespace telemetry
{
namespace prom
{

/**
 * Escape a label value per the exposition format: backslash, double
 * quote, and newline become \\, \", and \n.
 */
std::string escapeLabelValue(std::string_view value);

/** Append a family's `# HELP` and `# TYPE` lines. */
void appendHeader(std::string &out, const char *name, const char *type,
                  const char *help);

/** Append `name{labels} value` (@p labels may be empty). */
void appendU64(std::string &out, const char *name,
               const std::string &labels, std::uint64_t value);

/** Append `name{labels} value` with six fixed decimals. */
void appendF64(std::string &out, const char *name,
               const std::string &labels, double value);

} // namespace prom
} // namespace telemetry
} // namespace heapmd

#endif // HEAPMD_TELEMETRY_PROM_TEXT_HH
