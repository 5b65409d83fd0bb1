#include "diag/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "telemetry/json_document.hh"

namespace heapmd
{
namespace diag
{

std::string
formatJsonNumber(double value)
{
    // JSON has no NaN/Inf; diagnostics values are percentages and
    // counts, so non-finite means a bug upstream -- render 0 rather
    // than emit an unparsable document.
    if (!std::isfinite(value))
        return "0";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, value);
    return std::string(buf, res.ptr);
}

void
JsonWriter::beginValue()
{
    if (!has_entry_.empty()) {
        if (has_entry_.back())
            os_ << ",";
        has_entry_.back() = true;
        os_ << "\n";
        for (std::size_t i = 0; i < has_entry_.size(); ++i)
            os_ << "  ";
    }
}

void
JsonWriter::key(const std::string &name)
{
    beginValue();
    os_ << "\"" << telemetry::jsonEscape(name) << "\": ";
}

void
JsonWriter::beginObject()
{
    beginValue();
    os_ << "{";
    has_entry_.push_back(false);
}

void
JsonWriter::beginObject(const std::string &name)
{
    key(name);
    os_ << "{";
    has_entry_.push_back(false);
}

void
JsonWriter::endObject()
{
    const bool had_entry = has_entry_.back();
    has_entry_.pop_back();
    if (had_entry) {
        os_ << "\n";
        for (std::size_t i = 0; i < has_entry_.size(); ++i)
            os_ << "  ";
    }
    os_ << "}";
}

void
JsonWriter::beginArray(const std::string &name)
{
    key(name);
    os_ << "[";
    has_entry_.push_back(false);
}

void
JsonWriter::endArray()
{
    const bool had_entry = has_entry_.back();
    has_entry_.pop_back();
    if (had_entry) {
        os_ << "\n";
        for (std::size_t i = 0; i < has_entry_.size(); ++i)
            os_ << "  ";
    }
    os_ << "]";
}

void
JsonWriter::field(const std::string &name, const std::string &value)
{
    key(name);
    os_ << "\"" << telemetry::jsonEscape(value) << "\"";
}

void
JsonWriter::field(const std::string &name, const char *value)
{
    field(name, std::string(value));
}

void
JsonWriter::field(const std::string &name, double value)
{
    key(name);
    os_ << formatJsonNumber(value);
}

void
JsonWriter::field(const std::string &name, std::uint64_t value)
{
    key(name);
    os_ << value;
}

void
JsonWriter::field(const std::string &name, std::int64_t value)
{
    key(name);
    os_ << value;
}

void
JsonWriter::fieldBool(const std::string &name, bool value)
{
    key(name);
    os_ << (value ? "true" : "false");
}

void
JsonWriter::nullField(const std::string &name)
{
    key(name);
    os_ << "null";
}

void
JsonWriter::element(double value)
{
    beginValue();
    os_ << formatJsonNumber(value);
}

void
JsonWriter::element(const std::string &value)
{
    beginValue();
    os_ << "\"" << telemetry::jsonEscape(value) << "\"";
}

namespace
{

bool
missing(const char *key, const char *what, std::string *error)
{
    if (error != nullptr)
        *error = std::string("member '") + key + "' " + what;
    return false;
}

} // namespace

bool
jsonString(const telemetry::JsonValue &object, const char *key,
           std::string &out, std::string *error)
{
    const telemetry::JsonValue *member = object.find(key);
    if (member == nullptr)
        return missing(key, "is missing", error);
    if (!member->isString())
        return missing(key, "is not a string", error);
    out = member->string;
    return true;
}

bool
jsonNumber(const telemetry::JsonValue &object, const char *key,
           double &out, std::string *error)
{
    const telemetry::JsonValue *member = object.find(key);
    if (member == nullptr)
        return missing(key, "is missing", error);
    if (!member->isNumber())
        return missing(key, "is not a number", error);
    out = member->number;
    return true;
}

bool
jsonU64(const telemetry::JsonValue &object, const char *key,
        std::uint64_t &out, std::string *error)
{
    double value = 0.0;
    if (!jsonNumber(object, key, value, error))
        return false;
    if (const char *why = telemetry::wholeNumberFault(value, false))
        return missing(key, why, error);
    out = static_cast<std::uint64_t>(value);
    return true;
}

bool
jsonI64(const telemetry::JsonValue &object, const char *key,
        std::int64_t &out, std::string *error)
{
    double value = 0.0;
    if (!jsonNumber(object, key, value, error))
        return false;
    if (const char *why = telemetry::wholeNumberFault(value, true))
        return missing(key, why, error);
    out = static_cast<std::int64_t>(value);
    return true;
}

bool
jsonBool(const telemetry::JsonValue &object, const char *key,
         bool &out, std::string *error)
{
    const telemetry::JsonValue *member = object.find(key);
    if (member == nullptr)
        return missing(key, "is missing", error);
    if (member->kind != telemetry::JsonValue::Kind::Bool)
        return missing(key, "is not a boolean", error);
    out = member->boolean;
    return true;
}

const telemetry::JsonValue *
jsonArray(const telemetry::JsonValue &object, const char *key,
          std::string *error)
{
    const telemetry::JsonValue *member = object.find(key);
    if (member == nullptr) {
        missing(key, "is missing", error);
        return nullptr;
    }
    if (!member->isArray()) {
        missing(key, "is not an array", error);
        return nullptr;
    }
    return member;
}

const telemetry::JsonValue *
jsonObject(const telemetry::JsonValue &object, const char *key,
           std::string *error)
{
    const telemetry::JsonValue *member = object.find(key);
    if (member == nullptr) {
        missing(key, "is missing", error);
        return nullptr;
    }
    if (!member->isObject()) {
        missing(key, "is not an object", error);
        return nullptr;
    }
    return member;
}

} // namespace diag
} // namespace heapmd
