/**
 * @file
 * Counter sidecar: how capture.* telemetry crosses the process
 * boundary.
 *
 * The shim's counters live in the *child* process and cannot reach
 * the host CLI's telemetry registry directly, so the shim serializes
 * them to a tiny text sidecar ("<trace>.stats") at finalize and the
 * host parses it back, merging the values into its own registry for
 * `heapmd stats` and the run manifest.  The names and the counters
 * behind them are the rows of the shim's counter catalog
 * (obsv/shm_layout.hh).
 *
 * Format: one "<name> <value>\n" pair per line, names already carrying
 * the "capture." prefix, in catalog order.  Readers look names up, so
 * the order is not part of the format.
 */

#ifndef HEAPMD_CAPTURE_STATS_SIDECAR_HH
#define HEAPMD_CAPTURE_STATS_SIDECAR_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "obsv/shm_layout.hh"

namespace heapmd
{

namespace capture
{

/**
 * Every counter the shim keeps over one captured run.  A counter
 * with a stats-segment slot lives at its slot index in `slots`, the
 * array the shim publishes as is; the sidecar-only counters live in
 * `local`.
 */
struct CounterValues
{
    std::array<std::uint64_t, obsv::kSlotCount> slots{};
    std::array<std::uint64_t, obsv::kLocalCounterCount> local{};

    std::uint64_t &operator[](obsv::Slot s)
    {
        return slots[obsv::slotIndex(s)];
    }

    std::uint64_t &operator[](obsv::LocalCounter c)
    {
        return local[static_cast<std::size_t>(c)];
    }

    /** The value behind catalog row @p row. */
    std::uint64_t operator[](const obsv::CounterRow &row) const
    {
        return row.inSlot ? slots[row.index] : local[row.index];
    }
};

/** Serialize every catalog counter with a sidecar name. */
void writeStatsSidecar(std::ostream &os, const CounterValues &values);

/**
 * Parse a sidecar stream into name -> value.  A line counts only when
 * it is exactly two fields, a name the catalog declares and a whole
 * unsigned decimal value; every other line is skipped.  An empty map
 * simply means nothing usable was found.
 */
std::map<std::string, std::uint64_t>
readStatsSidecar(std::istream &is);

} // namespace capture

} // namespace heapmd

#endif // HEAPMD_CAPTURE_STATS_SIDECAR_HH
