/**
 * @file
 * The one place that knows JSON text: a streaming writer, a
 * recursive-descent parser into a small document model, and the file
 * read/write helpers every export and reader goes through.
 *
 * The writer produces every observability export (Chrome trace,
 * metrics snapshot, run report, flight recorder, critpath report,
 * bench results) without an external JSON dependency. The parser
 * accepts the full JSON value grammar the writer emits: objects,
 * arrays, strings with the common escapes, numbers, booleans and null
 * — plus the non-finite number spellings ("nan", "inf", "-inf") that
 * %.17g produces, so readers can reject them with a typed error
 * instead of a parse failure. The parser builds a tree and is meant
 * for report-sized documents; nesting is capped at kMaxJsonDepth.
 */
#ifndef BETTY_OBS_JSON_H
#define BETTY_OBS_JSON_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace betty::obs {

/** One parsed JSON value (tree node). */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member by key, or nullptr if absent / not an object. */
    const JsonValue*
    find(const std::string& key) const
    {
        if (!isObject())
            return nullptr;
        const auto it = object.find(key);
        return it == object.end() ? nullptr : &it->second;
    }

    /** Number as int64 (truncating); 0 when not a number. */
    int64_t asInt() const { return int64_t(number); }
};

/** Deepest array/object nesting parseJson() accepts. */
constexpr int kMaxJsonDepth = 256;

/**
 * Parse @p text as one JSON document. Returns false on malformed
 * input (trailing garbage and nesting beyond kMaxJsonDepth included)
 * and, when @p error is non-null, describes the first problem and its
 * offset.
 */
bool parseJson(const std::string& text, JsonValue& out,
               std::string* error = nullptr);

/**
 * Read and parse the JSON file at @p path. Returns false when the
 * file cannot be read or does not parse; @p error (when non-null)
 * then names the file and the problem.
 */
bool readJsonFile(const std::string& path, JsonValue& out,
                  std::string* error = nullptr);

/**
 * Write @p text to @p path. Returns false when the file cannot be
 * opened, written or closed (a full disk often shows only at close).
 */
bool writeJsonFile(const std::string& path, const std::string& text);

/**
 * Streaming JSON writer: appends one document to a string without
 * building a tree. It places commas and brackets, escapes every
 * string (quotes, backslashes and control characters) and prints
 * doubles with %.17g, so they round-trip (non-finite values print as
 * nan/inf, which the readers reject with typed errors).
 *
 * Layout is fixed: the top-level container and the containers
 * directly inside it put each item on its own line; deeper
 * containers stay on one line. Inside an object, call key() before
 * each value.
 */
class JsonWriter
{
  public:
    JsonWriter& beginObject() { return open('{'); }
    JsonWriter& endObject() { return close('}'); }
    JsonWriter& beginArray() { return open('['); }
    JsonWriter& endArray() { return close(']'); }

    /** Name the next value of the enclosing object. */
    JsonWriter& key(std::string_view name);

    JsonWriter& string(std::string_view text);
    JsonWriter& number(double value);
    JsonWriter& integer(int64_t value);
    JsonWriter& boolean(bool value);

    /** Hand over the text written so far; a document is complete
     * once its outermost container is closed (it then ends with a
     * newline). */
    std::string take() { return std::move(out_); }

  private:
    JsonWriter& open(char bracket);
    JsonWriter& close(char bracket);
    /** Separator and line break owed before the next key or value. */
    void beginItem();
    void quoted(std::string_view text);

    std::string out_;
    /** Items written so far in each open container, outermost first. */
    std::vector<int64_t> items_;
    /** A key was just written; its value follows on the same line. */
    bool afterKey_ = false;
};

} // namespace betty::obs

#endif // BETTY_OBS_JSON_H
