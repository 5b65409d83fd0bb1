#include "capture/stats_sidecar.hh"

#include <charconv>
#include <ostream>
#include <sstream>

namespace heapmd
{

namespace capture
{

namespace
{

/** True when @p name is a catalog row's sidecar name. */
bool
knownName(const std::string &name)
{
    for (const obsv::CounterRow &row : obsv::kCounterCatalog)
        if (row.sidecar != nullptr && name == row.sidecar)
            return true;
    return false;
}

} // namespace

void
writeStatsSidecar(std::ostream &os, const CounterValues &values)
{
    for (const obsv::CounterRow &row : obsv::kCounterCatalog)
        if (row.sidecar != nullptr)
            os << row.sidecar << ' ' << values[row] << '\n';
}

std::map<std::string, std::uint64_t>
readStatsSidecar(std::istream &is)
{
    std::map<std::string, std::uint64_t> values;
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream fields(line);
        std::string name, text, extra;
        if (!(fields >> name >> text) || (fields >> extra) ||
            !knownName(name))
            continue;
        std::uint64_t value = 0;
        const char *end = text.data() + text.size();
        const auto [ptr, ec] = std::from_chars(text.data(), end, value);
        if (ec == std::errc() && ptr == end)
            values[name] = value;
    }
    return values;
}

} // namespace capture

} // namespace heapmd
