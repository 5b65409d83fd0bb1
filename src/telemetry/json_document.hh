/**
 * @file
 * Reading heapmd's JSON documents (incident bundles, flow incidents,
 * run manifests, fleet models): one whole-file reader and one
 * document-header reader, below both the loaders (src/diag,
 * src/fleet) and the diag/fleet linters (src/analysis).  The header
 * reader parses the text, requires an object root, checks the "kind"
 * tag and a whole "schemaVersion" in 1..newest, and records which
 * step failed; loaders and linters word that in their own terms.
 */

#ifndef HEAPMD_TELEMETRY_JSON_DOCUMENT_HH
#define HEAPMD_TELEMETRY_JSON_DOCUMENT_HH

#include <cstdint>
#include <string>

#include "telemetry/trace_json.hh"

namespace heapmd
{
namespace telemetry
{

/**
 * Read the whole file at @p path.  A path that opens but cannot be
 * read (a directory, EISDIR) fails like one that does not open.
 * @return false with "cannot open '<path>'" or
 *         "cannot read '<path>': <reason>" in @p error.
 */
bool readFileText(const std::string &path, std::string &out,
                  std::string *error);

/**
 * Why @p value cannot be stored as an unsigned (@p is_signed false)
 * or signed 64-bit integer: "is negative", "is out of range" (which
 * covers inf) or "is not a whole number"; nullptr when it can.
 */
const char *wholeNumberFault(double value, bool is_signed);

/** The header check that failed, in the order they run. */
enum class HeaderFault : std::uint8_t
{
    None,
    Syntax,             //!< not JSON
    NotObject,          //!< the root is not an object
    NoKind,             //!< no string "kind" member
    WrongKind,          //!< "kind" names another document type
    NoVersion,          //!< no numeric "schemaVersion" member
    VersionNotWhole,    //!< not a uint64 (wholeNumberFault)
    VersionUnsupported, //!< a whole number outside 1..newest
};

/** A parsed document and what its header check found. */
struct DocumentHeader
{
    JsonValue root;
    HeaderFault fault = HeaderFault::None;
    std::string kind;          //!< the "kind" tag, when a string
    double rawVersion = 0.0;   //!< "schemaVersion", when a number
    std::uint64_t version = 0; //!< rawVersion, when a whole number

    /**
     * The fault in loader words: parseJson's message, or a
     * member-accessor message ("member 'kind' is missing") when
     * @p bare, which loaders pass on without their noun.
     */
    std::string detail;
    bool bare = false;

    bool ok() const { return fault == HeaderFault::None; }

    /** The kind tag matched; only the version may be at fault. */
    bool kindMatched() const
    {
        return ok() || fault >= HeaderFault::NoVersion;
    }
};

/**
 * Parse @p text and check its header against @p kind and schema
 * versions 1..@p newest (checkDocumentHeader).
 * @return out.ok()
 */
bool readDocumentHeader(const std::string &text, const char *kind,
                        std::uint64_t newest, DocumentHeader &out);

/**
 * (Re-)check a parsed document's header against @p kind and
 * 1..@p newest, so one parse can be tried as several kinds.  A
 * Syntax or NotObject fault stays.
 * @return header.ok()
 */
bool checkDocumentHeader(DocumentHeader &header, const char *kind,
                         std::uint64_t newest);

/**
 * Schema pre-flight: the schemaVersion of a @p kind document in
 * @p text, whatever whole number it is, so the caller can reject an
 * unknown version as a usage error before a full load.
 * @return false when the text is not such a document.
 */
bool peekSchemaVersion(const std::string &text, const char *kind,
                       std::uint64_t &version);

/**
 * A loader's failure sink: messages read "<noun>: <what>", except
 * the bare member-accessor ones.  Both calls return false.
 */
struct LoadError
{
    std::string *out;
    const char *noun;

    bool operator()(const std::string &what) const;
    bool operator()(const DocumentHeader &header) const;
};

} // namespace telemetry
} // namespace heapmd

#endif // HEAPMD_TELEMETRY_JSON_DOCUMENT_HH
