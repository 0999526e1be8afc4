#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace betty::obs {

namespace {

/** Cursor over the input with error reporting. */
struct Parser
{
    const std::string& text;
    size_t pos = 0;
    std::string error;
    /** Arrays and objects open around the cursor. */
    int depth = 0;

    bool
    fail(const std::string& message)
    {
        if (error.empty())
            error = message + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char* word, size_t len)
    {
        if (text.compare(pos, len, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos += len;
        return true;
    }

    bool
    parseString(std::string& out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        out.clear();
        while (pos < text.size()) {
            const char c = text[pos++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos >= text.size())
                    return fail("truncated escape");
                const char esc = text[pos++];
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
                  case 'b':
                    out += '\b';
                    break;
                  case 'f':
                    out += '\f';
                    break;
                  case 'n':
                    out += '\n';
                    break;
                  case 'r':
                    out += '\r';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  case 'u': {
                    if (pos + 4 > text.size())
                        return fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text[pos++];
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
                    // UTF-8 encode the BMP code point (the exporters
                    // only emit \u for control characters).
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
            } else {
                out += c;
            }
        }
        return fail("unterminated string");
    }

    bool
    parseValue(JsonValue& out)
    {
        skipSpace();
        if (pos >= text.size())
            return fail("unexpected end of input");
        const char c = text[pos];
        if (c == '{' || c == '[') {
            // Recursion depth follows the input: cap it before a
            // hostile document exhausts the stack.
            if (depth == kMaxJsonDepth)
                return fail("nesting deeper than " +
                            std::to_string(kMaxJsonDepth) + " levels");
            ++depth;
            const bool ok = c == '{' ? parseObject(out) : parseArray(out);
            --depth;
            return ok;
        }
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.string);
        }
        if (c == 't') {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true", 4);
        }
        if (c == 'f') {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false", 5);
        }
        if (c == 'n' || c == 'N' || c == 'i' || c == 'I') {
            // 'n' is ambiguous: null, or strtod's "nan" spelling.
            if (text.compare(pos, 4, "null") == 0) {
                out.kind = JsonValue::Kind::Null;
                pos += 4;
                return true;
            }
            return parseNumber(out);
        }
        return parseNumber(out);
    }

    bool
    parseNumber(JsonValue& out)
    {
        const char* start = text.c_str() + pos;
        char* end = nullptr;
        out.number = std::strtod(start, &end);
        if (end == start)
            return fail("expected a value");
        // Besides JSON numbers, accept strtod's non-finite spellings
        // ("nan", "inf", "-inf", ...): the exporters print doubles
        // with %.17g, which emits exactly those for non-finite values,
        // and the readers (betty_report) must be able to see them to
        // reject them with a typed error instead of a parse crash.
        const char first = *start;
        if (first != '-' &&
            !std::isdigit(static_cast<unsigned char>(first)) &&
            std::isfinite(out.number))
            return fail("expected a value");
        out.kind = JsonValue::Kind::Number;
        pos += size_t(end - start);
        return true;
    }

    bool
    parseArray(JsonValue& out)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos; // '['
        skipSpace();
        if (consume(']'))
            return true;
        while (true) {
            JsonValue element;
            if (!parseValue(element))
                return false;
            out.array.push_back(std::move(element));
            skipSpace();
            if (consume(']'))
                return true;
            if (!consume(','))
                return fail("expected ',' or ']'");
        }
    }

    bool
    parseObject(JsonValue& out)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos; // '{'
        skipSpace();
        if (consume('}'))
            return true;
        while (true) {
            skipSpace();
            std::string key;
            if (!parseString(key))
                return false;
            skipSpace();
            if (!consume(':'))
                return fail("expected ':'");
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.object.emplace(std::move(key), std::move(value));
            skipSpace();
            if (consume('}'))
                return true;
            if (!consume(','))
                return fail("expected ',' or '}'");
        }
    }
};

} // namespace

bool
parseJson(const std::string& text, JsonValue& out, std::string* error)
{
    Parser parser{text, 0, {}, 0};
    if (!parser.parseValue(out)) {
        if (error)
            *error = parser.error;
        return false;
    }
    parser.skipSpace();
    if (parser.pos != text.size()) {
        parser.fail("trailing characters");
        if (error)
            *error = parser.error;
        return false;
    }
    return true;
}

bool
readJsonFile(const std::string& path, JsonValue& out, std::string* error)
{
    std::ifstream file(path, std::ios::binary);
    if (!file) {
        if (error)
            *error = "cannot read '" + path + "'";
        return false;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    std::string parse_error;
    if (!parseJson(buffer.str(), out, &parse_error)) {
        if (error)
            *error = "'" + path + "' is not valid JSON: " + parse_error;
        return false;
    }
    return true;
}

bool
writeJsonFile(const std::string& path, const std::string& text)
{
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (!file)
        return false;
    const bool written =
        std::fwrite(text.data(), 1, text.size(), file) == text.size();
    const bool closed = std::fclose(file) == 0;
    return written && closed;
}

JsonWriter&
JsonWriter::key(std::string_view name)
{
    beginItem();
    quoted(name);
    out_ += ": ";
    afterKey_ = true;
    return *this;
}

JsonWriter&
JsonWriter::string(std::string_view text)
{
    beginItem();
    quoted(text);
    return *this;
}

JsonWriter&
JsonWriter::number(double value)
{
    beginItem();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out_ += buf;
    return *this;
}

JsonWriter&
JsonWriter::integer(int64_t value)
{
    beginItem();
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
    return *this;
}

JsonWriter&
JsonWriter::boolean(bool value)
{
    beginItem();
    out_ += value ? "true" : "false";
    return *this;
}

JsonWriter&
JsonWriter::open(char bracket)
{
    beginItem();
    out_ += bracket;
    items_.push_back(0);
    return *this;
}

JsonWriter&
JsonWriter::close(char bracket)
{
    if (items_.back() > 0 && items_.size() <= 2) {
        out_ += '\n';
        out_.append(2 * (items_.size() - 1), ' ');
    }
    out_ += bracket;
    items_.pop_back();
    if (items_.empty())
        out_ += '\n';
    return *this;
}

void
JsonWriter::beginItem()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (items_.empty())
        return;
    if (items_.back()++ > 0)
        out_ += ',';
    if (items_.size() <= 2) {
        out_ += '\n';
        out_.append(2 * items_.size(), ' ');
    } else if (items_.back() > 1) {
        out_ += ' ';
    }
}

void
JsonWriter::quoted(std::string_view text)
{
    out_ += '"';
    for (const char c : text) {
        switch (c) {
          case '"':
            out_ += "\\\"";
            break;
          case '\\':
            out_ += "\\\\";
            break;
          case '\n':
            out_ += "\\n";
            break;
          case '\t':
            out_ += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char hex[8];
                std::snprintf(hex, sizeof(hex), "\\u%04x", c);
                out_ += hex;
            } else {
                out_ += c;
            }
        }
    }
    out_ += '"';
}

} // namespace betty::obs
