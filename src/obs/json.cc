#include "json.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace scd::obs
{

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

std::string
JsonWriter::quote(std::string_view text)
{
    std::string out = "\"";
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

std::string
JsonWriter::number(double v)
{
    if (!std::isfinite(v))
        return "null"; // JSON has no inf/nan; absent-as-null is diffable
    // Integral doubles in the exact range print as integers.
    if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        return buf;
    }
    // Shortest representation that round-trips: try increasing precision.
    char buf[40];
    for (int precision : {9, 12, 17}) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

void
JsonWriter::newline()
{
    out_ += '\n';
    out_.append(indent_ * stack_.size(), ' ');
}

void
JsonWriter::beforeValue()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return;
    }
    if (stack_.empty())
        return;
    if (hasItems_.back())
        out_ += ',';
    hasItems_.back() = true;
    newline();
}

JsonWriter &
JsonWriter::beginObject()
{
    beforeValue();
    out_ += '{';
    stack_.push_back(true);
    hasItems_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    bool hadItems = hasItems_.back();
    stack_.pop_back();
    hasItems_.pop_back();
    if (hadItems)
        newline();
    out_ += '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    beforeValue();
    out_ += '[';
    stack_.push_back(false);
    hasItems_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    bool hadItems = hasItems_.back();
    stack_.pop_back();
    hasItems_.pop_back();
    if (hadItems)
        newline();
    out_ += ']';
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    if (hasItems_.back())
        out_ += ',';
    hasItems_.back() = true;
    newline();
    out_ += quote(name);
    out_ += ": ";
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view text)
{
    beforeValue();
    out_ += quote(text);
    return *this;
}

JsonWriter &
JsonWriter::value(const char *text)
{
    return value(std::string_view(text));
}

JsonWriter &
JsonWriter::value(bool b)
{
    beforeValue();
    out_ += b ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::value(int64_t v)
{
    beforeValue();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::value(uint64_t v)
{
    beforeValue();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    beforeValue();
    out_ += number(v);
    return *this;
}

JsonWriter &
JsonWriter::nullValue()
{
    beforeValue();
    out_ += "null";
    return *this;
}

// ---------------------------------------------------------------------------
// JsonValue parser
// ---------------------------------------------------------------------------

namespace
{

const JsonValue kNullValue{};

} // namespace

class JsonParser
{
  public:
    JsonParser(std::string_view text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool
    run(JsonValue &out)
    {
        skipSpace();
        if (!parseValue(out))
            return false;
        skipSpace();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const char *message)
    {
        if (error_ && error_->empty()) {
            *error_ = std::string(message) + " at offset " +
                      std::to_string(pos_);
        }
        return false;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word, JsonValue &out, JsonValue::Kind kind,
            bool boolean)
    {
        size_t len = std::strlen(word);
        if (text_.compare(pos_, len, word) != 0)
            return fail("invalid literal");
        pos_ += len;
        out.kind_ = kind;
        out.boolean_ = boolean;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int n = 0; n < 4; ++n) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= unsigned(h - 'A' + 10);
                    else
                        return fail("bad \\u escape digit");
                }
                // The exporter only emits \u00xx control escapes; decode
                // the BMP point as UTF-8 for completeness.
                if (code < 0x80) {
                    out += char(code);
                } else if (code < 0x800) {
                    out += char(0xC0 | (code >> 6));
                    out += char(0x80 | (code & 0x3F));
                } else {
                    out += char(0xE0 | (code >> 12));
                    out += char(0x80 | ((code >> 6) & 0x3F));
                    out += char(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    /** Consume a run of decimal digits; returns how many there were. */
    size_t
    digits()
    {
        size_t from = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        return pos_ - from;
    }

    /**
     * RFC 8259 number: -? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?
     * A literal without sign, fraction or exponent is integral and must
     * fit in a uint64_t; every other number is read as a double.
     */
    bool
    parseNumber(JsonValue &out)
    {
        size_t start = pos_;
        bool integral = !consume('-');
        if (pos_ >= text_.size() ||
            !std::isdigit(static_cast<unsigned char>(text_[pos_])))
            return fail(pos_ == start ? "expected a number"
                                      : "expected a digit after '-'");
        if (!consume('0'))
            digits();
        if (consume('.')) {
            integral = false;
            if (digits() == 0)
                return fail("expected a digit after '.'");
        }
        if (consume('e') || consume('E')) {
            integral = false;
            if (!consume('+'))
                (void)consume('-');
            if (digits() == 0)
                return fail("expected a digit in the exponent");
        }
        std::string token(text_.substr(start, pos_ - start));
        out.kind_ = JsonValue::Kind::Number;
        out.number_ = std::strtod(token.c_str(), nullptr);
        out.integral_ = integral;
        if (integral) {
            errno = 0;
            out.uintValue_ = std::strtoull(token.c_str(), nullptr, 10);
            if (errno == ERANGE) {
                pos_ = start;
                return fail("integer does not fit in 64 bits");
            }
        }
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (depth_ > 64)
            return fail("nesting too deep");
        skipSpace();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            ++depth_;
            out.kind_ = JsonValue::Kind::Object;
            skipSpace();
            if (consume('}')) {
                --depth_;
                return true;
            }
            while (true) {
                skipSpace();
                std::string name;
                if (!parseString(name))
                    return false;
                skipSpace();
                if (!consume(':'))
                    return fail("expected ':'");
                JsonValue member;
                if (!parseValue(member))
                    return false;
                out.object_.emplace_back(std::move(name),
                                         std::move(member));
                skipSpace();
                if (consume(','))
                    continue;
                if (consume('}'))
                    break;
                return fail("expected ',' or '}'");
            }
            --depth_;
            return true;
        }
        if (c == '[') {
            ++pos_;
            ++depth_;
            out.kind_ = JsonValue::Kind::Array;
            skipSpace();
            if (consume(']')) {
                --depth_;
                return true;
            }
            while (true) {
                JsonValue element;
                if (!parseValue(element))
                    return false;
                out.array_.push_back(std::move(element));
                skipSpace();
                if (consume(','))
                    continue;
                if (consume(']'))
                    break;
                return fail("expected ',' or ']'");
            }
            --depth_;
            return true;
        }
        if (c == '"') {
            out.kind_ = JsonValue::Kind::String;
            return parseString(out.string_);
        }
        if (c == 't')
            return literal("true", out, JsonValue::Kind::Bool, true);
        if (c == 'f')
            return literal("false", out, JsonValue::Kind::Bool, false);
        if (c == 'n')
            return literal("null", out, JsonValue::Kind::Null, false);
        return parseNumber(out);
    }

    std::string_view text_;
    std::string *error_;
    size_t pos_ = 0;
    unsigned depth_ = 0;
};

JsonValue
JsonValue::parse(std::string_view text, std::string *error)
{
    if (error)
        error->clear();
    JsonValue out;
    JsonParser parser(text, error);
    if (!parser.run(out))
        return JsonValue{};
    return out;
}

uint64_t
JsonValue::asUint() const
{
    if (integral_)
        return uintValue_;
    return number_ < 0 ? 0 : static_cast<uint64_t>(number_);
}

const JsonValue &
JsonValue::at(std::string_view name) const
{
    for (const auto &[key, value] : object_) {
        if (key == name)
            return value;
    }
    return kNullValue;
}

bool
JsonValue::has(std::string_view name) const
{
    for (const auto &[key, value] : object_) {
        (void)value;
        if (key == name)
            return true;
    }
    return false;
}

const JsonValue &
JsonValue::at(size_t index) const
{
    return index < array_.size() ? array_[index] : kNullValue;
}

size_t
JsonValue::size() const
{
    return kind_ == Kind::Array ? array_.size() : object_.size();
}

double
JsonValue::numberOr(std::string_view name, double fallback) const
{
    const JsonValue &v = at(name);
    return v.isNumber() ? v.asDouble() : fallback;
}

std::string
JsonValue::stringOr(std::string_view name,
                    const std::string &fallback) const
{
    const JsonValue &v = at(name);
    return v.isString() ? v.asString() : fallback;
}

} // namespace scd::obs
