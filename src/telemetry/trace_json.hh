/**
 * @file
 * Minimal JSON parser and Chrome trace-event validator.
 *
 * Shared by tools/trace_json_check (the CI gate on --trace-out
 * output) and tests/telemetry_test (which parses the emitted file).
 * Deliberately tiny: enough JSON to round-trip what TraceSession
 * writes, with positions in error messages; not a general-purpose
 * JSON library.
 */

#ifndef HEAPMD_TELEMETRY_TRACE_JSON_HH
#define HEAPMD_TELEMETRY_TRACE_JSON_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace heapmd
{
namespace telemetry
{

/** Parsed JSON value (object members keep their file order). */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    /** Member lookup (first match), or nullptr. */
    const JsonValue *find(const std::string &key) const;

    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
};

/**
 * Deepest array/object nesting parseJson accepts.  HeapMD's own
 * documents nest at most a handful of levels; the bound keeps a
 * hostile document from overflowing the recursive parser's stack.
 */
inline constexpr std::size_t kMaxJsonDepth = 256;

/**
 * Parse @p text as one JSON document (trailing whitespace allowed,
 * trailing garbage rejected, nesting deeper than kMaxJsonDepth
 * rejected).
 * @return false with a position-carrying message in @p error.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string *error);

/**
 * Escape @p raw for inclusion in a JSON string literal (quotes,
 * backslashes, and control characters).  Shared by the trace-event
 * writer and the diag bundle/manifest emitters.
 */
std::string jsonEscape(const std::string &raw);

/** What the trace validator counted while walking the events. */
struct TraceJsonStats
{
    std::size_t events = 0;   //!< total entries in traceEvents
    std::size_t spans = 0;    //!< ph "X"
    std::size_t instants = 0; //!< ph "i" / "I"
    std::size_t counters = 0; //!< ph "C"
    std::size_t metadata = 0; //!< ph "M"
};

/**
 * Validate Chrome trace-event JSON: a root object with a
 * `traceEvents` array whose entries each carry a non-empty string
 * `name`, a known one-character `ph`, numeric non-negative `ts`, and
 * numeric `pid`/`tid`; complete events ("X") need a non-negative
 * `dur`, counter events ("C") a numeric-valued `args` object.
 *
 * @return false with a description in @p error; @p stats (optional)
 *         is filled with what was counted either way.
 */
bool validateTraceEventJson(const std::string &text,
                            TraceJsonStats *stats, std::string *error);

/** validateTraceEventJson over a file's contents. */
bool validateTraceEventFile(const std::string &path,
                            TraceJsonStats *stats, std::string *error);

} // namespace telemetry
} // namespace heapmd

#endif // HEAPMD_TELEMETRY_TRACE_JSON_HH
