#include "telemetry/trace_json.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "telemetry/json_document.hh"

namespace heapmd
{
namespace telemetry
{

namespace
{

/** Recursive-descent parser over a string, tracking the offset. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool
    parseDocument(JsonValue &out)
    {
        skipWhitespace();
        if (!parseValue(out))
            return false;
        skipWhitespace();
        if (pos_ != text_.size())
            return fail("trailing garbage after the document");
        return true;
    }

  private:
    bool
    fail(const std::string &what)
    {
        if (error_ != nullptr && error_->empty()) {
            std::ostringstream oss;
            oss << what << " at offset " << pos_;
            *error_ = oss.str();
        }
        return false;
    }

    void
    skipWhitespace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    consume(char expected)
    {
        if (pos_ >= text_.size() || text_[pos_] != expected)
            return fail(std::string("expected '") + expected + "'");
        ++pos_;
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        switch (c) {
          case '{':
          case '[': {
            if (depth_ == kMaxJsonDepth)
                return fail("document nested deeper than " +
                            std::to_string(kMaxJsonDepth) + " levels");
            ++depth_;
            const bool ok =
                c == '{' ? parseObject(out) : parseArray(out);
            --depth_;
            return ok;
          }
          case '"':
            out.kind = JsonValue::Kind::String;
            return parseString(out.string);
          case 't':
          case 'f':
            return parseKeyword(c == 't' ? "true" : "false", out);
          case 'n':
            return parseKeyword("null", out);
          default:
            return parseNumber(out);
        }
    }

    bool
    parseKeyword(const std::string &word, JsonValue &out)
    {
        if (text_.compare(pos_, word.size(), word) != 0)
            return fail("unknown keyword");
        pos_ += word.size();
        if (word == "null") {
            out.kind = JsonValue::Kind::Null;
        } else {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = (word == "true");
        }
        return true;
    }

    bool
    parseNumber(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return fail("expected a value");
        char *end = nullptr;
        const std::string token = text_.substr(start, pos_ - start);
        out.number = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0')
            return fail("malformed number '" + token + "'");
        out.kind = JsonValue::Kind::Number;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (true) {
            if (pos_ >= text_.size())
                return fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'r':
                out += '\r';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                const std::string hex = text_.substr(pos_, 4);
                pos_ += 4;
                char *end = nullptr;
                const long code = std::strtol(hex.c_str(), &end, 16);
                if (end == nullptr || *end != '\0')
                    return fail("malformed \\u escape");
                // Control characters only in our output; keep it
                // simple and store the low byte.
                out += static_cast<char>(code & 0x7f);
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        if (!consume('['))
            return false;
        out.kind = JsonValue::Kind::Array;
        skipWhitespace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue element;
            skipWhitespace();
            if (!parseValue(element))
                return false;
            out.array.push_back(std::move(element));
            skipWhitespace();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseObject(JsonValue &out)
    {
        if (!consume('{'))
            return false;
        out.kind = JsonValue::Kind::Object;
        skipWhitespace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWhitespace();
            std::string key;
            if (!parseString(key))
                return false;
            skipWhitespace();
            if (!consume(':'))
                return false;
            skipWhitespace();
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.object.emplace_back(std::move(key), std::move(value));
            skipWhitespace();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    const std::string &text_;
    std::string *error_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0; //!< arrays/objects open at pos_
};

bool
failEvent(std::string *error, std::size_t index,
          const std::string &what)
{
    if (error != nullptr && error->empty()) {
        std::ostringstream oss;
        oss << "traceEvents[" << index << "]: " << what;
        *error = oss.str();
    }
    return false;
}

bool
numberField(const JsonValue &event, const char *key, double &out)
{
    const JsonValue *field = event.find(key);
    if (field == nullptr || !field->isNumber())
        return false;
    out = field->number;
    return true;
}

} // namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &[name, value] : object) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

bool
parseJson(const std::string &text, JsonValue &out, std::string *error)
{
    if (error != nullptr)
        error->clear();
    Parser parser(text, error);
    return parser.parseDocument(out);
}

std::string
jsonEscape(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size() + 2);
    for (const char c : raw) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

bool
validateTraceEventJson(const std::string &text, TraceJsonStats *stats,
                       std::string *error)
{
    if (stats != nullptr)
        *stats = TraceJsonStats{};
    if (error != nullptr)
        error->clear();

    JsonValue root;
    if (!parseJson(text, root, error))
        return false;
    if (!root.isObject()) {
        if (error != nullptr)
            *error = "root is not a JSON object";
        return false;
    }
    const JsonValue *events = root.find("traceEvents");
    if (events == nullptr || !events->isArray()) {
        if (error != nullptr)
            *error = "missing or non-array 'traceEvents'";
        return false;
    }

    for (std::size_t i = 0; i < events->array.size(); ++i) {
        const JsonValue &event = events->array[i];
        if (!event.isObject())
            return failEvent(error, i, "not an object");

        const JsonValue *name = event.find("name");
        if (name == nullptr || !name->isString() ||
            name->string.empty())
            return failEvent(error, i,
                             "missing or empty string 'name'");

        const JsonValue *ph = event.find("ph");
        if (ph == nullptr || !ph->isString() ||
            ph->string.size() != 1)
            return failEvent(error, i,
                             "missing one-character string 'ph'");
        const char phase = ph->string[0];
        static const std::string known = "XiICMBE";
        if (known.find(phase) == std::string::npos)
            return failEvent(error, i,
                             std::string("unknown phase '") + phase +
                                 "'");

        double ts = 0.0;
        if (!numberField(event, "ts", ts) || ts < 0.0)
            return failEvent(error, i,
                             "missing or negative numeric 'ts'");
        double ignored = 0.0;
        if (!numberField(event, "pid", ignored))
            return failEvent(error, i, "missing numeric 'pid'");
        if (!numberField(event, "tid", ignored))
            return failEvent(error, i, "missing numeric 'tid'");

        if (phase == 'X') {
            double dur = 0.0;
            if (!numberField(event, "dur", dur) || dur < 0.0)
                return failEvent(
                    error, i,
                    "complete event without non-negative 'dur'");
        }
        if (phase == 'C' || phase == 'M') {
            const JsonValue *args = event.find("args");
            if (args == nullptr || !args->isObject() ||
                args->object.empty())
                return failEvent(error, i,
                                 "missing non-empty 'args' object");
            if (phase == 'C') {
                bool numeric = false;
                for (const auto &[key, value] : args->object)
                    numeric = numeric || value.isNumber();
                if (!numeric)
                    return failEvent(
                        error, i,
                        "counter event without a numeric arg");
            }
        }

        if (stats != nullptr) {
            ++stats->events;
            switch (phase) {
              case 'X':
                ++stats->spans;
                break;
              case 'i':
              case 'I':
                ++stats->instants;
                break;
              case 'C':
                ++stats->counters;
                break;
              case 'M':
                ++stats->metadata;
                break;
              default:
                break;
            }
        }
    }
    return true;
}

bool
validateTraceEventFile(const std::string &path, TraceJsonStats *stats,
                       std::string *error)
{
    std::string text;
    if (!readFileText(path, text, error)) {
        if (stats != nullptr)
            *stats = TraceJsonStats{};
        return false;
    }
    return validateTraceEventJson(text, stats, error);
}

} // namespace telemetry
} // namespace heapmd
