#include "common/json.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace ipfs::common {
namespace {

TEST(JsonWriter, EmptyObject) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.end_object();
  EXPECT_EQ(out.str(), "{}");
}

TEST(JsonWriter, ScalarFields) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.field("name", "go-ipfs");
  json.field("count", std::int64_t{42});
  json.field("ratio", 0.5);
  json.field("flag", true);
  json.key("nothing");
  json.null();
  json.end_object();
  EXPECT_EQ(out.str(),
            R"({"name":"go-ipfs","count":42,"ratio":0.5,"flag":true,"nothing":null})");
}

TEST(JsonWriter, NestedArrays) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.key("values");
  json.begin_array();
  json.value(std::int64_t{1});
  json.value(std::int64_t{2});
  json.begin_array();
  json.value(std::int64_t{3});
  json.end_array();
  json.end_array();
  json.end_object();
  EXPECT_EQ(out.str(), R"({"values":[1,2,[3]]})");
}

TEST(JsonWriter, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonWriter::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonWriter::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonWriter::escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonWriter::escape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonWriter::escape(std::string_view("\x01", 1)), "\\u0001");
}

/// The escaped form of one byte: the two-character escapes for '"', '\\',
/// \n, \r and \t, \u00xx (lowercase hex) for the other control bytes,
/// and every other byte, 0x7f and above included, unchanged.
std::string escaped_byte(unsigned byte) {
  switch (byte) {
    case '"': return "\\\"";
    case '\\': return "\\\\";
    case '\n': return "\\n";
    case '\r': return "\\r";
    case '\t': return "\\t";
    default: break;
  }
  if (byte < 0x20) {
    const char* hex = "0123456789abcdef";
    return std::string("\\u00") + hex[byte >> 4] + hex[byte & 0xf];
  }
  return std::string(1, static_cast<char>(byte));
}

TEST(JsonWriter, EveryByteEscapesAsPinned) {
  EXPECT_EQ(escaped_byte(0x08), "\\u0008");
  EXPECT_EQ(escaped_byte(0x1f), "\\u001f");
  for (unsigned byte = 0; byte < 256; ++byte) {
    const std::string text(1, static_cast<char>(byte));
    // Alone, between plain bytes, and through both writer paths (values
    // and keys), so the no-escape fast path and the escaping path agree.
    EXPECT_EQ(JsonWriter::escape(text), escaped_byte(byte)) << "byte " << byte;
    const std::string framed = "ab" + text + "cd";
    const std::string expected = "ab" + escaped_byte(byte) + "cd";
    std::ostringstream out;
    JsonWriter json(out);
    json.begin_object();
    json.field(framed, framed);
    json.end_object();
    EXPECT_EQ(out.str(), "{\"" + expected + "\":\"" + expected + "\"}") << "byte " << byte;
  }
}

TEST(JsonWriter, EscapedStringValue) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.field("path", "/ipfs/kad/1.0.0");
  json.end_object();
  EXPECT_EQ(out.str(), R"({"path":"/ipfs/kad/1.0.0"})");
}

TEST(JsonWriter, NonFiniteDoubleBecomesNull) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_array();
  json.value(std::numeric_limits<double>::infinity());
  json.value(std::numeric_limits<double>::quiet_NaN());
  json.end_array();
  EXPECT_EQ(out.str(), "[null,null]");
}

TEST(JsonWriter, PrettyPrintingIndents) {
  std::ostringstream out;
  JsonWriter json(out, /*pretty=*/true);
  json.begin_object();
  json.field("a", std::int64_t{1});
  json.end_object();
  EXPECT_EQ(out.str(), "{\n  \"a\": 1\n}");
}

TEST(JsonWriter, ArrayOfObjects) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_array();
  for (int i = 0; i < 2; ++i) {
    json.begin_object();
    json.field("i", std::int64_t{i});
    json.end_object();
  }
  json.end_array();
  EXPECT_EQ(out.str(), R"([{"i":0},{"i":1}])");
}

TEST(JsonWriter, DoubleRoundTripsExactly) {
  // The writer picks the shortest precision that parses back to the same
  // double; many-digit values must survive write -> parse unchanged.
  for (const double value : {0.93, 1980.0, 0.1234567890123456, 1.0 / 3.0}) {
    std::ostringstream out;
    JsonWriter json(out);
    json.begin_array();
    json.value(value);
    json.end_array();
    const auto parsed = JsonValue::parse(out.str());
    ASSERT_TRUE(parsed.has_value()) << out.str();
    EXPECT_EQ(parsed->as_array()[0].as_double(), value) << out.str();
  }
}

TEST(JsonValue, ParsesScalars) {
  EXPECT_TRUE(JsonValue::parse("null")->is_null());
  EXPECT_EQ(JsonValue::parse("true")->as_bool(), true);
  EXPECT_EQ(JsonValue::parse("false")->as_bool(), false);
  EXPECT_EQ(JsonValue::parse("42")->as_int64(), 42);
  EXPECT_EQ(JsonValue::parse("-7")->as_int64(), -7);
  EXPECT_DOUBLE_EQ(JsonValue::parse("2.5")->as_double(), 2.5);
  EXPECT_DOUBLE_EQ(JsonValue::parse("1e3")->as_double(), 1000.0);
  EXPECT_EQ(JsonValue::parse("\"hi\"")->as_string(), "hi");
}

TEST(JsonValue, IntegersKeepFullPrecision) {
  // 64-bit seeds must not drift through a double.
  const auto big = JsonValue::parse("18446744073709551615");
  ASSERT_TRUE(big.has_value());
  EXPECT_EQ(big->as_uint64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(big->as_int64(), std::nullopt);

  const auto negative = JsonValue::parse("-9223372036854775808");
  ASSERT_TRUE(negative.has_value());
  EXPECT_EQ(negative->as_int64(), std::numeric_limits<std::int64_t>::min());

  // Fractional forms are numbers but not integers.
  EXPECT_EQ(JsonValue::parse("2.0")->as_int64(), std::nullopt);
  EXPECT_FALSE(JsonValue::parse("2.0")->is_integer());
}

TEST(JsonValue, ParsesNestedStructures) {
  const auto doc = JsonValue::parse(
      R"({"name":"p4","nested":{"list":[1,2,3],"empty":{}},"ok":true})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->find("name")->as_string(), "p4");
  const JsonValue* nested = doc->find("nested");
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->find("list")->as_array().size(), 3u);
  EXPECT_EQ(nested->find("list")->as_array()[2].as_int64(), 3);
  EXPECT_TRUE(nested->find("empty")->as_object().empty());
  EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(JsonValue, PreservesMemberOrder) {
  const auto doc = JsonValue::parse(R"({"z":1,"a":2,"m":3})");
  ASSERT_TRUE(doc.has_value());
  const JsonValue::Object& members = doc->as_object();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(JsonValue, DecodesStringEscapes) {
  const auto doc = JsonValue::parse(R"("a\"b\\c\nd\teA")");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(), "a\"b\\c\nd\teA");
}

TEST(JsonValue, ErrorsCarryLineAndColumn) {
  const auto doc = JsonValue::parse("{\n  \"a\": bogus\n}");
  ASSERT_FALSE(doc.has_value());
  EXPECT_TRUE(doc.error().starts_with("2:")) << doc.error();
}

TEST(JsonValue, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "01a", "\"unterminated",
        "[1] trailing", "{\"a\":1,}", "nan", "+1", "- 1", "1.e3", "01", "-007"}) {
    EXPECT_FALSE(JsonValue::parse(bad).has_value()) << bad;
  }
}

TEST(JsonValue, WriterOutputParsesBack) {
  std::ostringstream out;
  JsonWriter json(out, /*pretty=*/true);
  json.begin_object();
  json.field("name", "round trip");
  json.field("count", std::uint64_t{20211203});
  json.key("values");
  json.begin_array();
  json.value(0.93);
  json.value(false);
  json.null();
  json.end_array();
  json.end_object();

  const auto doc = JsonValue::parse(out.str());
  ASSERT_TRUE(doc.has_value()) << out.str();
  EXPECT_EQ(doc->find("name")->as_string(), "round trip");
  EXPECT_EQ(doc->find("count")->as_uint64(), 20211203u);
  const JsonValue::Array& values = doc->find("values")->as_array();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[0].as_double(), 0.93);
  EXPECT_EQ(values[1].as_bool(), false);
  EXPECT_TRUE(values[2].is_null());
}

}  // namespace
}  // namespace ipfs::common
