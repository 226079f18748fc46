/**
 * @file
 * Minimal JSON document model and recursive-descent parser.
 *
 * The observability layer reads back JSON it did not necessarily
 * write itself: sampler time series (`report timeline`) and, in the
 * tests, Chrome trace-event files.  This parser accepts
 * any RFC 8259 document into a small ordered value tree; it is a
 * reader for tooling paths (reports, tests), never for the hot path.
 */

#ifndef WASTESIM_OBS_JSONV_HH
#define WASTESIM_OBS_JSONV_HH

#include <string>
#include <utility>
#include <vector>

namespace wastesim
{

/** One parsed JSON value; object member order is preserved. */
struct JsonValue
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0;
    std::string str;
    std::vector<JsonValue> items; //!< array elements
    std::vector<std::pair<std::string, JsonValue>> members; //!< object

    bool isObject() const { return type == Type::Object; }
    bool isArray() const { return type == Type::Array; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }

    /** Member @p key of an object, or nullptr. */
    const JsonValue *find(const std::string &key) const;
};

/**
 * Parse @p text into @p out.  Trailing non-whitespace after the
 * document, and any syntax error, fail with a position-carrying
 * message in @p err.
 */
bool jsonParse(const std::string &text, JsonValue &out,
               std::string *err = nullptr);

} // namespace wastesim

#endif // WASTESIM_OBS_JSONV_HH
