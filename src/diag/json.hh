/**
 * @file
 * Canonical JSON emission for diagnostics artifacts.
 *
 * Incident bundles and run manifests must round-trip byte-for-byte
 * (save(load(save(x))) == save(x)) so artifacts can be diffed and
 * content-hashed across runs.  That requires one canonical rendering:
 * fixed field order (the save functions), two-space indentation, and
 * shortest-round-trip number formatting (std::to_chars), which strtod
 * parses back to the identical double.
 */

#ifndef HEAPMD_DIAG_JSON_HH
#define HEAPMD_DIAG_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "telemetry/trace_json.hh"

namespace heapmd
{
namespace diag
{

/** Shortest text that strtod parses back to exactly @p value. */
std::string formatJsonNumber(double value);

/**
 * Streaming canonical-JSON writer.  The caller supplies the field
 * order; the writer owns commas, indentation, escaping, and number
 * formatting.  Layout: every member/element on its own line, two
 * spaces per depth, no trailing newline after the root's closing
 * brace (savers append one).
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    /** Root or nested anonymous object (array element). */
    void beginObject();
    void endObject();

    /** `"key": {` */
    void beginObject(const std::string &key);

    /** `"key": [` */
    void beginArray(const std::string &key);
    void endArray();

    /** `"key": "value"` */
    void field(const std::string &key, const std::string &value);
    void field(const std::string &key, const char *value);

    /** `"key": <number>` */
    void field(const std::string &key, double value);
    void field(const std::string &key, std::uint64_t value);
    void field(const std::string &key, std::int64_t value);

    /** `"key": true|false` */
    void fieldBool(const std::string &key, bool value);

    /** `"key": null` */
    void nullField(const std::string &key);

    /** Bare array element. */
    void element(double value);
    void element(const std::string &value);

  private:
    void beginValue();           //!< comma + newline + indent
    void key(const std::string &name);

    std::ostream &os_;
    std::vector<bool> has_entry_; //!< per open scope
};

/**
 * Typed member accessors over a parsed telemetry::JsonValue.  Each
 * returns false and sets "member '<key>' ..." in @p error when the
 * member is missing or has the wrong type; jsonU64/jsonI64 also
 * reject a number that is not a whole number in their range
 * (telemetry::wholeNumberFault).
 */
bool jsonString(const telemetry::JsonValue &object, const char *key,
                std::string &out, std::string *error);
bool jsonNumber(const telemetry::JsonValue &object, const char *key,
                double &out, std::string *error);
bool jsonU64(const telemetry::JsonValue &object, const char *key,
             std::uint64_t &out, std::string *error);
bool jsonI64(const telemetry::JsonValue &object, const char *key,
             std::int64_t &out, std::string *error);
bool jsonBool(const telemetry::JsonValue &object, const char *key,
              bool &out, std::string *error);
const telemetry::JsonValue *
jsonArray(const telemetry::JsonValue &object, const char *key,
          std::string *error);
const telemetry::JsonValue *
jsonObject(const telemetry::JsonValue &object, const char *key,
           std::string *error);

} // namespace diag
} // namespace heapmd

#endif // HEAPMD_DIAG_JSON_HH
