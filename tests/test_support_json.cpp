// The minimal JSON value backing --format=json and the serve protocol.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "support/json.hpp"
#include "support/rng.hpp"

namespace dspaddr {
namespace {

using support::JsonValue;

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_TRUE(JsonValue::parse("true").as_bool());
  EXPECT_FALSE(JsonValue::parse("false").as_bool());
  EXPECT_EQ(JsonValue::parse("42").as_int(), 42);
  EXPECT_EQ(JsonValue::parse("-7").as_int(), -7);
  EXPECT_DOUBLE_EQ(JsonValue::parse("2.5").as_double(), 2.5);
  EXPECT_DOUBLE_EQ(JsonValue::parse("1e3").as_double(), 1000.0);
  EXPECT_EQ(JsonValue::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, IntegersStayIntegers) {
  EXPECT_TRUE(JsonValue::parse("42").is_int());
  EXPECT_FALSE(JsonValue::parse("42.0").is_int());
  EXPECT_TRUE(JsonValue::parse("42.0").is_number());
  // Integers convert through as_double for numeric consumers.
  EXPECT_DOUBLE_EQ(JsonValue::parse("42").as_double(), 42.0);
}

TEST(Json, ParsesNestedStructures) {
  const JsonValue value = JsonValue::parse(
      R"({"a": [1, 2, {"b": null}], "c": {"d": "x"}})");
  ASSERT_TRUE(value.is_object());
  const JsonValue* a = value.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_EQ(a->items()[1].as_int(), 2);
  EXPECT_TRUE(a->items()[2].find("b")->is_null());
  EXPECT_EQ(value.find("c")->find("d")->as_string(), "x");
  EXPECT_EQ(value.find("missing"), nullptr);
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(JsonValue::parse(R"("a\"b\\c\nd\t")").as_string(),
            "a\"b\\c\nd\t");
  EXPECT_EQ(JsonValue::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(JsonValue::string("a\"b\nc").dump(), R"("a\"b\nc")");
  // Control characters escape as \u00xx.
  EXPECT_EQ(JsonValue::string(std::string(1, '\x01')).dump(),
            "\"\\u0001\"");
  EXPECT_EQ(JsonValue::parse("\"\\u0041\"").as_string(), "A");
}

TEST(Json, DumpIsCompactAndOrdered) {
  JsonValue object = JsonValue::object();
  object.set("b", JsonValue::number(std::int64_t{1}));
  object.set("a", JsonValue::number(std::int64_t{2}));
  JsonValue array = JsonValue::array();
  array.push_back(JsonValue::boolean(true));
  array.push_back(JsonValue::null());
  object.set("list", std::move(array));
  // Insertion order, not sorted; no whitespace.
  EXPECT_EQ(object.dump(), R"({"b":1,"a":2,"list":[true,null]})");
}

TEST(Json, SetReplacesInPlace) {
  JsonValue object = JsonValue::object();
  object.set("a", JsonValue::number(std::int64_t{1}));
  object.set("b", JsonValue::number(std::int64_t{2}));
  object.set("a", JsonValue::number(std::int64_t{3}));
  EXPECT_EQ(object.dump(), R"({"a":3,"b":2})");
}

TEST(Json, DoublesDumpShortestRoundTrip) {
  EXPECT_EQ(JsonValue::number(11.11).dump(), "11.11");
  EXPECT_EQ(JsonValue::number(0.5).dump(), "0.5");
  // A double without a fractional part keeps a marker so it parses
  // back as a double.
  EXPECT_EQ(JsonValue::number(3.0).dump(), "3.0");
  EXPECT_FALSE(JsonValue::parse(JsonValue::number(3.0).dump()).is_int());
}

TEST(Json, RoundTripsItsOwnDump) {
  const char* text =
      R"({"k":[1,2.5,"s",true,null],"o":{"x":-3},"e":""})";
  const JsonValue value = JsonValue::parse(text);
  EXPECT_EQ(JsonValue::parse(value.dump()).dump(), value.dump());
  EXPECT_EQ(value.dump(), text);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse(""), support::JsonParseError);
  EXPECT_THROW(JsonValue::parse("{"), support::JsonParseError);
  EXPECT_THROW(JsonValue::parse("[1,]"), support::JsonParseError);
  EXPECT_THROW(JsonValue::parse("{\"a\" 1}"), support::JsonParseError);
  EXPECT_THROW(JsonValue::parse("tru"), support::JsonParseError);
  EXPECT_THROW(JsonValue::parse("1 2"), support::JsonParseError);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), support::JsonParseError);
  EXPECT_THROW(JsonValue::parse("nan"), support::JsonParseError);
  // Numbers need digits on both sides of '.' and in the exponent.
  EXPECT_THROW(JsonValue::parse(".5"), support::JsonParseError);
  EXPECT_THROW(JsonValue::parse("1."), support::JsonParseError);
  EXPECT_THROW(JsonValue::parse("1e"), support::JsonParseError);
  EXPECT_THROW(JsonValue::parse("-"), support::JsonParseError);
}

TEST(Json, BoundsNestingDepth) {
  // A hostile deeply-nested line must be a parse error, not a stack
  // overflow of the process (the serve loop parses untrusted input).
  const std::string hostile(100000, '[');
  EXPECT_THROW(JsonValue::parse(hostile), support::JsonParseError);
  const std::string mixed = std::string(5000, '[') + "{\"a\":" ;
  EXPECT_THROW(JsonValue::parse(mixed), support::JsonParseError);
  // Sane nesting still parses.
  std::string ok = "1";
  for (int i = 0; i < 100; ++i) {
    ok = "[" + ok + "]";
  }
  EXPECT_NO_THROW(JsonValue::parse(ok));
}

TEST(Json, IntegerOverflowFallsBackToDouble) {
  const JsonValue huge = JsonValue::parse("99999999999999999999");
  EXPECT_FALSE(huge.is_int());
  EXPECT_TRUE(huge.is_number());
  EXPECT_DOUBLE_EQ(huge.as_double(), 1e20);
  // Beyond double range is the one valid-looking number we reject.
  EXPECT_THROW(JsonValue::parse("1e999"), support::JsonParseError);
}

TEST(Json, TypeMismatchesThrow) {
  const JsonValue number = JsonValue::parse("1");
  EXPECT_THROW(number.as_string(), InvalidArgument);
  EXPECT_THROW(number.items(), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("2.5").as_int(), InvalidArgument);
  EXPECT_THROW(JsonValue::null().as_bool(), InvalidArgument);
}


// Reference writers: the snprintf/strtod forms dump() used before it
// moved to <charconv>. The append primitives must match them byte for
// byte, since responses and store records are compared as bytes.

std::string reference_double(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) {
      break;
    }
  }
  std::string text(buffer);
  if (text.find_first_of(".eE") == std::string::npos) {
    text += ".0";
  }
  return text;
}

std::string reference_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string appended_double(double value) {
  std::string out;
  support::json_append_double(out, value);
  return out;
}

TEST(JsonWriter, DoublesMatchTheShortestRoundTripSearchFromOneDigit) {
  const double edges[] = {0.0,
                          -0.0,
                          5e-324,
                          -5e-324,
                          2.2250738585072014e-308,
                          std::numeric_limits<double>::max(),
                          -std::numeric_limits<double>::max(),
                          1e21,
                          1e-7,
                          100000.0,
                          0.1,
                          1.0 / 3.0,
                          11.11,
                          3.0,
                          1e16,
                          123456789012345680.0,
                          std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()};
  for (const double value : edges) {
    EXPECT_EQ(appended_double(value), reference_double(value)) << value;
  }
  EXPECT_EQ(appended_double(-0.0), "-0.0");
  EXPECT_EQ(appended_double(1e21), "1e+21");
  EXPECT_EQ(appended_double(100000.0), "1e+05");
  EXPECT_EQ(appended_double(1.0 / 3.0), "0.3333333333333333");

  // Random finite bit patterns cover every exponent, subnormals and
  // the values whose nearest p-digit rendering does not read back.
  support::Rng rng(20260601);
  std::size_t checked = 0;
  while (checked < 100000) {
    const std::uint64_t bits = rng();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    if (!std::isfinite(value)) {
      continue;
    }
    ++checked;
    const std::string expected = reference_double(value);
    ASSERT_EQ(appended_double(value), expected) << "bits " << bits;
    ASSERT_EQ(JsonValue::number(value).dump(), expected) << "bits " << bits;
  }
}

TEST(JsonWriter, IntegersCoverTheInt64Range) {
  const std::int64_t values[] = {0,
                                 -1,
                                 7,
                                 -42,
                                 std::numeric_limits<std::int64_t>::max(),
                                 std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t value : values) {
    std::string out = "x";
    support::json_append_int(out, value);
    EXPECT_EQ(out, "x" + std::to_string(value));
    EXPECT_EQ(JsonValue::number(value).dump(), std::to_string(value));
  }
}

TEST(JsonWriter, StringsEscapeEveryAsciiByteLikeTheReference) {
  // Every byte 0x00-0x7F alone, between plain runs, and in one long
  // string, plus multi-byte UTF-8 (passed through verbatim), as both
  // a value and a key.
  std::vector<std::string> texts;
  std::string all;
  for (int byte = 0; byte < 0x80; ++byte) {
    const std::string one(1, static_cast<char>(byte));
    texts.push_back(one);
    texts.push_back("ab" + one + "cd" + one);
    all += one;
  }
  texts.push_back(all);
  texts.push_back("");
  texts.push_back("caf\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x8E\xB5 \"q\"\n");
  for (const std::string& text : texts) {
    const std::string quoted = "\"" + reference_escape(text) + "\"";
    std::string out;
    support::json_append_string(out, text);
    EXPECT_EQ(out, quoted);
    EXPECT_EQ(JsonValue::string(text).dump(), quoted);
    JsonValue object = JsonValue::object();
    object.set(text, JsonValue::string(text));
    EXPECT_EQ(object.dump(), "{" + quoted + ":" + quoted + "}");
    // And the parser reads every one of them back.
    const JsonValue parsed = JsonValue::parse(object.dump());
    ASSERT_EQ(parsed.members().size(), 1u);
    EXPECT_EQ(parsed.members()[0].first, text);
    EXPECT_EQ(parsed.members()[0].second.as_string(), text);
  }
  EXPECT_EQ(JsonValue::string(std::string(1, '\x1f')).dump(), "\"\\u001f\"");
  EXPECT_EQ(JsonValue::string("\x7f").dump(), "\"\x7f\"");
}

TEST(JsonParser, IntegersAtTheInt64Edges) {
  EXPECT_EQ(JsonValue::parse("9223372036854775807").as_int(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(JsonValue::parse("-9223372036854775808").as_int(),
            std::numeric_limits<std::int64_t>::min());
  // One past either edge falls back to a double.
  const JsonValue above = JsonValue::parse("9223372036854775808");
  EXPECT_FALSE(above.is_int());
  EXPECT_EQ(above.as_double(), 9223372036854775808.0);
  const JsonValue below = JsonValue::parse("-9223372036854775809");
  EXPECT_FALSE(below.is_int());
  EXPECT_EQ(below.as_double(), -9223372036854775808.0);
  // -0 is the integer 0; -0.0 stays a (negative-zero) double.
  const JsonValue minus_zero = JsonValue::parse("-0");
  ASSERT_TRUE(minus_zero.is_int());
  EXPECT_EQ(minus_zero.as_int(), 0);
  const JsonValue minus_zero_double = JsonValue::parse("-0.0");
  EXPECT_FALSE(minus_zero_double.is_int());
  EXPECT_TRUE(std::signbit(minus_zero_double.as_double()));
  // Integers inside containers and before delimiters end where they
  // should.
  EXPECT_EQ(JsonValue::parse("[12,-3]").dump(), "[12,-3]");
  EXPECT_EQ(JsonValue::parse("{\"a\":5}").find("a")->as_int(), 5);
}

std::string parse_error(std::string_view text) {
  try {
    JsonValue::parse(text);
  } catch (const support::JsonParseError& e) {
    return e.what();
  }
  return "no error";
}

TEST(JsonParser, ErrorMessagesAndOffsets) {
  EXPECT_EQ(parse_error("-x"),
            "JSON parse error at offset 1: invalid number: expected a digit");
  EXPECT_EQ(parse_error("[1.]"),
            "JSON parse error at offset 3: invalid number: expected a digit "
            "after '.'");
  EXPECT_EQ(parse_error("2e+"),
            "JSON parse error at offset 3: invalid number: expected a digit "
            "in the exponent");
  EXPECT_EQ(parse_error("[1e400]"),
            "JSON parse error at offset 6: number out of range");
  EXPECT_EQ(parse_error("1e-400"),
            "JSON parse error at offset 6: number out of range");
  EXPECT_EQ(parse_error("\"ab\ncd\""),
            "JSON parse error at offset 4: unescaped control character in "
            "string");
  EXPECT_EQ(parse_error("{\"key\":\"abc"),
            "JSON parse error at offset 11: unterminated string");
  EXPECT_EQ(parse_error("\"abc\\"),
            "JSON parse error at offset 5: unterminated escape");
  EXPECT_EQ(parse_error(std::string(300, '[')),
            "JSON parse error at offset 256: nesting deeper than 256 levels");
}

}  // namespace
}  // namespace dspaddr
