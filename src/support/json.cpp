#include "support/json.hpp"

#include <charconv>
#include <cmath>
#include <system_error>

namespace dspaddr::support {
namespace {

void check_type(bool condition, std::string_view what) {
  if (!condition) {
    throw InvalidArgument("JsonValue: value is not " + std::string(what));
  }
}

/// The escape sequence for byte `c`, or nullptr when it is written
/// verbatim. Control characters without a short form are written by
/// the caller as \u00xx.
const char* short_escape(unsigned char c) {
  switch (c) {
    case '"': return "\\\"";
    case '\\': return "\\\\";
    case '\b': return "\\b";
    case '\f': return "\\f";
    case '\n': return "\\n";
    case '\r': return "\\r";
    case '\t': return "\\t";
    default: return nullptr;
  }
}

bool needs_escape(unsigned char c) {
  return c < 0x20 || c == '"' || c == '\\';
}

/// Containers deeper than this fail to parse: the recursive-descent
/// parser must not let one hostile line (e.g. 100k '[') overflow the
/// stack of a long-lived serve process.
constexpr int kMaxParseDepth = 256;

/// Recursive-descent parser over a string_view with position tracking.
class Parser {
public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON value");
    }
    return value;
  }

private:
  [[noreturn]] void fail(const std::string& message) const {
    throw JsonParseError("JSON parse error at offset " +
                         std::to_string(pos_) + ": " + message);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return false;
    }
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return JsonValue::string(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue::boolean(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue::boolean(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue::null();
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  /// RAII depth guard shared by parse_object / parse_array.
  struct DepthGuard {
    explicit DepthGuard(Parser& parser) : parser_(parser) {
      if (++parser_.depth_ > kMaxParseDepth) {
        parser_.fail("nesting deeper than " +
                     std::to_string(kMaxParseDepth) + " levels");
      }
    }
    ~DepthGuard() { --parser_.depth_; }
    Parser& parser_;
  };

  JsonValue parse_object() {
    const DepthGuard guard(*this);
    expect('{');
    JsonValue object = JsonValue::object();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return object;
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      object.set(std::move(key), parse_value());
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return object;
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    const DepthGuard guard(*this);
    expect('[');
    JsonValue array = JsonValue::array();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return array;
    }
    for (;;) {
      array.push_back(parse_value());
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return array;
      }
      fail("expected ',' or ']' in array");
    }
  }

  void append_utf8(std::string& out, unsigned code_point) {
    if (code_point < 0x80) {
      out += static_cast<char>(code_point);
    } else if (code_point < 0x800) {
      out += static_cast<char>(0xC0 | (code_point >> 6));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code_point >> 12));
      out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    }
  }

  std::string parse_string() {
    if (peek() != '"') {
      fail("expected string");
    }
    ++pos_;
    std::string out;
    for (;;) {
      // Everything up to the next quote, backslash or control character
      // is copied verbatim, in one append.
      const std::size_t run = pos_;
      while (pos_ < text_.size() &&
             !needs_escape(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      out.append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        fail("unescaped control character in string");
      }
      if (pos_ >= text_.size()) {
        fail("unterminated escape");
      }
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
          }
          unsigned code_point = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code_point <<= 4;
            if (h >= '0' && h <= '9') {
              code_point |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code_point |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code_point |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid hex digit in \\u escape");
            }
          }
          // Surrogate pairs are out of scope for this protocol; map
          // them to U+FFFD rather than emitting invalid UTF-8.
          if (code_point >= 0xD800 && code_point <= 0xDFFF) {
            code_point = 0xFFFD;
          }
          append_utf8(out, code_point);
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
  }

  /// Consumes a digit run; the grammar requires at least one digit at
  /// every position a run may appear.
  std::size_t take_digits() {
    std::size_t count = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
      ++count;
    }
    return count;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    if (take_digits() == 0) {
      fail("invalid number: expected a digit");
    }
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      if (take_digits() == 0) {
        fail("invalid number: expected a digit after '.'");
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (take_digits() == 0) {
        fail("invalid number: expected a digit in the exponent");
      }
    }
    if (!is_double) {
      std::int64_t value = 0;
      const auto [end, error] =
          std::from_chars(text_.data() + start, text_.data() + pos_, value);
      if (error == std::errc{} && end == text_.data() + pos_) {
        return JsonValue::number(value);
      }
      // Falls through: an integer beyond int64 is still a valid JSON
      // number, representable (with precision loss) as a double.
    }
    // std::stod, not from_chars: its range errors (overflow and
    // underflow alike) define which numbers this parser rejects.
    try {
      return JsonValue::number(
          std::stod(std::string(text_.substr(start, pos_ - start))));
    } catch (const std::out_of_range&) {
      // Magnitude beyond double range; JSON cannot carry infinity, so
      // this is the one syntactically-valid number we reject.
      fail("number out of range");
    } catch (const std::exception&) {
      fail("invalid number");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

void dump_value(const JsonValue& value, std::string& out) {
  switch (value.type()) {
    case JsonValue::Type::kNull:
      out += "null";
      return;
    case JsonValue::Type::kBool:
      out += value.as_bool() ? "true" : "false";
      return;
    case JsonValue::Type::kInt:
      json_append_int(out, value.as_int());
      return;
    case JsonValue::Type::kDouble:
      json_append_double(out, value.as_double());
      return;
    case JsonValue::Type::kString:
      json_append_string(out, value.as_string());
      return;
    case JsonValue::Type::kArray: {
      out += '[';
      bool first = true;
      for (const JsonValue& item : value.items()) {
        if (!first) out += ',';
        first = false;
        dump_value(item, out);
      }
      out += ']';
      return;
    }
    case JsonValue::Type::kObject: {
      out += '{';
      bool first = true;
      for (const JsonValue::Member& member : value.members()) {
        if (!first) out += ',';
        first = false;
        json_append_string(out, member.first);
        out += ':';
        dump_value(member.second, out);
      }
      out += '}';
      return;
    }
  }
}

}  // namespace

JsonValue JsonValue::boolean(bool value) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::number(std::int64_t value) {
  JsonValue v;
  v.type_ = Type::kInt;
  v.int_ = value;
  return v;
}

JsonValue JsonValue::number(double value) {
  JsonValue v;
  v.type_ = Type::kDouble;
  v.double_ = value;
  return v;
}

JsonValue JsonValue::string(std::string value) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

bool JsonValue::as_bool() const {
  check_type(type_ == Type::kBool, "a bool");
  return bool_;
}

std::int64_t JsonValue::as_int() const {
  check_type(type_ == Type::kInt, "an integer");
  return int_;
}

double JsonValue::as_double() const {
  check_type(is_number(), "a number");
  return type_ == Type::kInt ? static_cast<double>(int_) : double_;
}

const std::string& JsonValue::as_string() const {
  check_type(type_ == Type::kString, "a string");
  return string_;
}

const JsonValue::Array& JsonValue::items() const {
  check_type(type_ == Type::kArray, "an array");
  return array_;
}

const JsonValue::Object& JsonValue::members() const {
  check_type(type_ == Type::kObject, "an object");
  return object_;
}

void JsonValue::push_back(JsonValue value) {
  check_type(type_ == Type::kArray, "an array");
  array_.push_back(std::move(value));
}

void JsonValue::set(std::string key, JsonValue value) {
  check_type(type_ == Type::kObject, "an object");
  for (Member& member : object_) {
    if (member.first == key) {
      member.second = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::kObject) {
    return nullptr;
  }
  for (const Member& member : object_) {
    if (member.first == key) {
      return &member.second;
    }
  }
  return nullptr;
}

std::string JsonValue::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

void json_append_string(std::string& out, std::string_view text) {
  out += '"';
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (!needs_escape(c)) {
      continue;
    }
    out.append(text.data() + run, i - run);
    run = i + 1;
    if (const char* escape = short_escape(c)) {
      out += escape;
    } else {
      constexpr char kHex[] = "0123456789abcdef";
      out += "\\u00";
      out += kHex[c >> 4];
      out += kHex[c & 0xF];
    }
  }
  out.append(text.data() + run, text.size() - run);
  out += '"';
}

void json_append_int(std::string& out, std::int64_t value) {
  char buffer[24];
  const char* end = std::to_chars(buffer, buffer + sizeof(buffer), value).ptr;
  out.append(buffer, static_cast<std::size_t>(end - buffer));
}

void json_append_double(std::string& out, double value) {
  using std::chars_format;
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  // No "%.{p}g" with fewer significant digits than the shortest
  // round-trip form parses back, so the search for the shortest one
  // that does starts at that digit count instead of at p = 1. to_chars
  // with a precision formats exactly like printf's "%.*g".
  char buffer[64];
  char* const last = buffer + sizeof(buffer);
  const char* end =
      std::to_chars(buffer, last, value, chars_format::scientific).ptr;
  int digits = 0;
  for (const char* p = buffer; p != end && *p != 'e'; ++p) {
    digits += *p >= '0' && *p <= '9';
  }
  for (;; ++digits) {
    end = std::to_chars(buffer, last, value, chars_format::general, digits).ptr;
    double parsed = 0.0;
    std::from_chars(buffer, end, parsed);
    if (parsed == value || digits >= 17) {
      break;
    }
  }
  const std::string_view text(buffer, static_cast<std::size_t>(end - buffer));
  out += text;
  // Ensure the result reads back as a number with a fractional part so
  // that dump/parse round-trips preserve the double-ness of the value.
  if (text.find_first_of(".e") == std::string_view::npos) {
    out += ".0";
  }
}

}  // namespace dspaddr::support
