#include "telemetry/json_document.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace heapmd
{
namespace telemetry
{

bool
readFileText(const std::string &path, std::string &out,
             std::string *error)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
        if (error != nullptr)
            *error = "cannot open '" + path + "'";
        return false;
    }
    out.clear();
    char buffer[1 << 16];
    std::size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0)
        out.append(buffer, got);
    const int read_errno = std::ferror(file) != 0 ? errno : 0;
    std::fclose(file);
    if (read_errno != 0) {
        if (error != nullptr)
            *error = "cannot read '" + path +
                     "': " + std::strerror(read_errno);
        return false;
    }
    return true;
}

const char *
wholeNumberFault(double value, bool is_signed)
{
    if (!is_signed && value < 0.0)
        return "is negative";
    // 2^63 and 2^64 are exact doubles; NaN and inf fail the test.
    const double limit = is_signed ? 0x1p63 : 0x1p64;
    if (!(value >= -limit && value < limit))
        return "is out of range";
    if (value != std::trunc(value))
        return "is not a whole number";
    return nullptr;
}

bool
readDocumentHeader(const std::string &text, const char *kind,
                   std::uint64_t newest, DocumentHeader &out)
{
    out = DocumentHeader{};
    if (!parseJson(text, out.root, &out.detail)) {
        out.fault = HeaderFault::Syntax;
    } else if (!out.root.isObject()) {
        out.fault = HeaderFault::NotObject;
        out.detail = "root is not an object";
    }
    return checkDocumentHeader(out, kind, newest);
}

bool
checkDocumentHeader(DocumentHeader &header, const char *kind,
                    std::uint64_t newest)
{
    if (header.fault == HeaderFault::Syntax ||
        header.fault == HeaderFault::NotObject)
        return false;
    header.fault = HeaderFault::None;
    header.kind.clear();
    header.rawVersion = 0.0;
    header.version = 0;
    header.detail.clear();
    header.bare = false;
    const auto fail = [&](HeaderFault fault, std::string detail,
                          bool bare) {
        header.fault = fault;
        header.detail = std::move(detail);
        header.bare = bare;
        return false;
    };
    const JsonValue *tag = header.root.find("kind");
    if (tag == nullptr)
        return fail(HeaderFault::NoKind, "member 'kind' is missing",
                    true);
    if (!tag->isString())
        return fail(HeaderFault::NoKind,
                    "member 'kind' is not a string", true);
    header.kind = tag->string;
    if (header.kind != kind)
        return fail(HeaderFault::WrongKind,
                    "kind '" + header.kind + "' is not '" + kind + "'",
                    false);
    const JsonValue *version = header.root.find("schemaVersion");
    if (version == nullptr)
        return fail(HeaderFault::NoVersion,
                    "member 'schemaVersion' is missing", true);
    if (!version->isNumber())
        return fail(HeaderFault::NoVersion,
                    "member 'schemaVersion' is not a number", true);
    header.rawVersion = version->number;
    if (const char *why = wholeNumberFault(version->number, false))
        return fail(HeaderFault::VersionNotWhole,
                    std::string("member 'schemaVersion' ") + why, true);
    header.version = static_cast<std::uint64_t>(version->number);
    if (header.version < 1 || header.version > newest)
        return fail(HeaderFault::VersionUnsupported,
                    "unsupported schemaVersion " +
                        std::to_string(header.version),
                    false);
    return true;
}

bool
peekSchemaVersion(const std::string &text, const char *kind,
                  std::uint64_t &version)
{
    DocumentHeader header;
    readDocumentHeader(text, kind,
                       std::numeric_limits<std::uint64_t>::max(), header);
    version = header.version;
    return header.ok() ||
           header.fault == HeaderFault::VersionUnsupported;
}

bool
LoadError::operator()(const std::string &what) const
{
    if (out != nullptr)
        *out = std::string(noun) + ": " + what;
    return false;
}

bool
LoadError::operator()(const DocumentHeader &header) const
{
    if (!header.bare)
        return (*this)(header.detail);
    if (out != nullptr)
        *out = header.detail;
    return false;
}

} // namespace telemetry
} // namespace heapmd
