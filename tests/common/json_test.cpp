#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <streambuf>
#include <string>

#include "common/rng.hpp"

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

TEST(JsonWriter, ControlCharactersAnywhereInAString) {
  EXPECT_EQ(JsonWriter::escape(std::string_view("\x01start", 6)), "\\u0001start");
  EXPECT_EQ(JsonWriter::escape(std::string_view("mid\x1f\x02" "dle", 8)),
            "mid\\u001f\\u0002dle");
  EXPECT_EQ(JsonWriter::escape(std::string_view("end\b\f", 5)), "end\\u0008\\u000c");
  EXPECT_EQ(JsonWriter::escape(std::string_view("\0", 1)), "\\u0000");
  EXPECT_EQ(JsonWriter::escape("\"\\"), "\\\"\\\\");
  EXPECT_EQ(JsonWriter::escape("plain \x7f text"), "plain \x7f text");
  EXPECT_EQ(JsonWriter::escape(""), "");

  std::ostringstream out;
  JsonWriter json(out);
  json.begin_array();
  json.value(std::string_view("\x01" "a\tb\x1f", 5));
  json.end_array();
  EXPECT_EQ(out.str(), R"(["\u0001a\tb\u001f"])");
}

TEST(JsonWriter, BytesReachTheStreamWhenTheOutermostValueCloses) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.key("a");
  json.begin_array();
  json.value(std::int64_t{1});
  json.end_array();
  EXPECT_EQ(out.str(), "") << "an inner close must not write";
  json.end_object();
  EXPECT_EQ(out.str(), R"({"a":[1]})");

  // Direct writes between documents keep their place.
  out << '\n';
  JsonWriter next(out);
  next.begin_array();
  next.value(true);
  out << "?";  // mid-document: lands before the still-buffered array
  next.end_array();
  out << '\n';
  EXPECT_EQ(out.str(), "{\"a\":[1]}\n?[true]\n");
}

TEST(JsonWriter, FlushAndDestructorWriteAnOpenDocument) {
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.begin_array();
    json.value(std::uint64_t{7});
    EXPECT_EQ(out.str(), "");
    json.flush();
    EXPECT_EQ(out.str(), "[7");
    json.value(std::int64_t{-8});
  }
  EXPECT_EQ(out.str(), "[7,-8");
}

TEST(JsonWriter, IntegerExtremes) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_array();
  json.value(std::numeric_limits<std::int64_t>::min());
  json.value(std::numeric_limits<std::int64_t>::max());
  json.value(std::numeric_limits<std::uint64_t>::max());
  json.value(std::int64_t{0});
  json.value(-1);
  json.end_array();
  EXPECT_EQ(out.str(),
            "[-9223372036854775808,9223372036854775807,18446744073709551615,0,-1]");
}

/// A document of several hundred KiB that touches every writer path:
/// nested scopes, escaped and plain strings, signed and unsigned integer
/// extremes, doubles, booleans and nulls.
void write_large_document(JsonWriter& json) {
  json.begin_object();
  json.field("name", "large \"document\"\twith\\escapes");
  json.key("rows");
  json.begin_array();
  for (std::int64_t i = 0; i < 2000; ++i) {
    json.begin_object();
    json.field("i", i);
    json.field("neg", -i * 1'000'003);
    json.field("big", std::numeric_limits<std::uint64_t>::max() -
                          static_cast<std::uint64_t>(i));
    json.field("min", std::numeric_limits<std::int64_t>::min() + i);
    json.field("ratio", static_cast<double>(i) / 7.0);
    json.field("even", i % 2 == 0);
    json.field("text",
               "row " + std::to_string(i) + (i % 3 == 0 ? "\x01\n\"q\"" : "/plain"));
    json.key("tags");
    json.begin_array();
    for (std::int64_t t = 0; t < i % 4; ++t) json.value("/ipfs/kad/1.0.0");
    if (i % 5 == 0) json.null();
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

TEST(JsonWriter, LargeDocumentBytesArePinned) {
  // Sizes and FNV-1a hashes of the token-at-a-time writer this buffered
  // one replaced: the buffer must not move a byte, compact or pretty.
  struct Golden {
    bool pretty;
    std::size_t size;
    std::uint64_t hash;
  };
  for (const Golden golden : {Golden{false, 364'008, 0xfb31c9766087ed47ULL},
                              Golden{true, 556'620, 0x481cea740765491dULL}}) {
    std::ostringstream out;
    JsonWriter json(out, golden.pretty);
    write_large_document(json);
    EXPECT_EQ(out.str().size(), golden.size) << "pretty=" << golden.pretty;
    EXPECT_EQ(hash64(out.str()), golden.hash) << "pretty=" << golden.pretty;
  }
}

TEST(JsonWriter, LongDocumentsReachTheStreamInBlocks) {
  // Well before the outermost value closes, a long document must already
  // be on the stream, in blocks of at least 64 KiB, never all held back.
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_array();
  const std::string text(1000, 'x');
  std::size_t last_size = 0;
  std::size_t writes = 0;
  for (int i = 0; i < 300; ++i) {
    json.value(text);
    const std::size_t size = out.str().size();
    if (size != last_size) {
      EXPECT_GE(size - last_size, std::size_t{64} << 10);
      ++writes;
      last_size = size;
    }
  }
  EXPECT_GE(writes, 4u);
  json.end_array();
  EXPECT_EQ(out.str().size(), 2 + 300 * (text.size() + 2) + 299);
}

/// A streambuf that refuses every byte, like a full disk.
class RefusingStreambuf final : public std::streambuf {
 protected:
  int overflow(int /*ch*/) override { return traits_type::eof(); }
  std::streamsize xsputn(const char* /*data*/, std::streamsize /*count*/) override {
    return 0;
  }
};

TEST(JsonWriter, AFailedStreamStaysFailed) {
  std::ostringstream already_failed;
  already_failed.setstate(std::ios_base::failbit);
  {
    JsonWriter json(already_failed);
    json.begin_object();
    json.field("a", std::int64_t{1});
    json.end_object();
  }
  EXPECT_TRUE(already_failed.fail());
  EXPECT_EQ(already_failed.str(), "");

  RefusingStreambuf refusing;
  std::ostream out(&refusing);
  JsonWriter json(out, /*pretty=*/true);
  json.begin_array();
  json.value("lost");
  json.end_array();
  EXPECT_TRUE(out.bad());
  json.begin_array();  // a later document does not clear the error
  json.end_array();
  json.flush();
  EXPECT_TRUE(out.bad());
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

TEST(JsonValue, ParseFirstStopsAtTheFirstDocument) {
  // A JsonExportSink file: the dataset document, then sample documents.
  const std::string text =
      "{\n  \"a\": \"}{ not a brace\",\n  \"b\": [1, 2]\n}\n{\n  \"second\": 1\n}\n";
  EXPECT_FALSE(JsonValue::parse(text).has_value());
  const auto first = JsonValue::parse_first(text);
  ASSERT_TRUE(first.has_value()) << first.error();
  ASSERT_EQ(first->as_object().size(), 2u);
  EXPECT_EQ(first->find("a")->as_string(), "}{ not a brace");
  EXPECT_EQ(first->find("b")->as_array().size(), 2u);
  EXPECT_EQ(first->find("second"), nullptr);
  // Whatever follows is never read, but the first document must be whole.
  EXPECT_TRUE(JsonValue::parse_first("[1] trailing").has_value());
  EXPECT_FALSE(JsonValue::parse_first("{\"a\": [1, 2}").has_value());
}

TEST(JsonValue, ParseFirstHandlesEscapedQuotes) {
  const auto first = JsonValue::parse_first("{\"a\": \"\\\"}\"}{\"b\": 2}");
  ASSERT_TRUE(first.has_value()) << first.error();
  ASSERT_EQ(first->as_object().size(), 1u);
  EXPECT_EQ(first->find("a")->as_string(), "\"}");
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
