// Minimal JSON value: parse, build, dump.
//
// Backs the machine-readable surfaces of the tool — `dspaddr run
// --format=json` and the JSON-lines `dspaddr serve` protocol — without
// pulling in an external dependency. Scope is deliberately small:
//  * objects preserve insertion order (deterministic dumps, the property
//    the serve smoke test relies on);
//  * numbers distinguish integers (int64) from doubles; doubles dump as
//    the shortest representation that round-trips;
//  * `dump()` is compact (no whitespace), one value per line by
//    construction — exactly what a JSON-lines protocol needs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace dspaddr::support {

/// Thrown by JsonValue::parse on malformed input.
class JsonParseError : public Error {
public:
  explicit JsonParseError(const std::string& what) : Error(what) {}
};

/// One JSON value (null, bool, integer, double, string, array, object).
class JsonValue {
public:
  enum class Type {
    kNull,
    kBool,
    kInt,
    kDouble,
    kString,
    kArray,
    kObject,
  };

  using Array = std::vector<JsonValue>;
  using Member = std::pair<std::string, JsonValue>;
  /// Insertion-ordered members (small objects; linear find is fine).
  using Object = std::vector<Member>;

  JsonValue() = default;
  static JsonValue null() { return JsonValue{}; }
  static JsonValue boolean(bool value);
  static JsonValue number(std::int64_t value);
  static JsonValue number(double value);
  static JsonValue string(std::string value);
  static JsonValue array();
  static JsonValue object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_int() const { return type_ == Type::kInt; }
  bool is_number() const {
    return type_ == Type::kInt || type_ == Type::kDouble;
  }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw InvalidArgument on a type mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;
  /// Any number as double (integers convert).
  double as_double() const;
  const std::string& as_string() const;
  const Array& items() const;
  const Object& members() const;

  /// Appends to an array (value must be an array).
  void push_back(JsonValue value);

  /// Sets `key` on an object: replaces an existing member in place,
  /// appends otherwise.
  void set(std::string key, JsonValue value);

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;

  /// Compact deterministic serialization (member order preserved).
  std::string dump() const;

  /// Parses exactly one JSON value; throws JsonParseError on malformed
  /// input or trailing non-whitespace.
  static JsonValue parse(std::string_view text);

private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

// Append primitives: dump() is built from these, and writers that know
// their schema (engine/serialize.cpp, engine/result_codec.cpp) call
// them directly instead of building a tree only to dump it. Each
// produces exactly the bytes dump() writes for the same value.

/// Appends `text` as a quoted JSON string, escaped per RFC 8259:
/// quote, backslash, \b \f \n \r \t, other control characters as
/// \u00xx; every other byte (UTF-8 included) verbatim.
void json_append_string(std::string& out, std::string_view text);

/// Appends `value` in decimal.
void json_append_int(std::string& out, std::int64_t value);

/// Appends the shortest "%.{p}g" rendering of `value` that parses back
/// to exactly `value`, with ".0" added when that text would read back
/// as an integer; null for a non-finite value (JSON has none).
void json_append_double(std::string& out, double value);

// Member writers on top of them: each appends `prefix` verbatim (the
// separator, the member's quoted name and its colon, plus any opening
// braces) and then the value. Unsigned values are written as int64,
// the way JsonValue::number stores them.

inline void json_put_int(std::string& out, const char* prefix,
                         std::int64_t value) {
  out += prefix;
  json_append_int(out, value);
}

inline void json_put_uint(std::string& out, const char* prefix,
                          std::uint64_t value) {
  json_put_int(out, prefix, static_cast<std::int64_t>(value));
}

inline void json_put_bool(std::string& out, const char* prefix, bool value) {
  out += prefix;
  out += value ? "true" : "false";
}

inline void json_put_double(std::string& out, const char* prefix,
                            double value) {
  out += prefix;
  json_append_double(out, value);
}

inline void json_put_string(std::string& out, const char* prefix,
                            std::string_view value) {
  out += prefix;
  json_append_string(out, value);
}

}  // namespace dspaddr::support
