// The flat JSON request decoder's string handling: every escape at the
// start, middle and end of an unescaped run, and each error text unchanged.
#include "io/jsonl.hpp"

#include <gtest/gtest.h>

#include <string>

namespace bisched {
namespace {

// Decodes {"k": "<raw>"} and returns the value (or "ERROR: <message>").
std::string decode(const std::string& raw) {
  std::string error;
  const auto object = parse_flat_json_object("{\"k\": \"" + raw + "\"}", &error);
  if (!object.has_value()) return "ERROR: " + error;
  return object->at("k");
}

TEST(JsonStrings, EveryEscapeAtEveryRunPosition) {
  const struct {
    const char* escape;
    std::string decoded;
  } escapes[] = {{"\\\"", "\""},  {"\\\\", "\\"},  {"\\/", "/"},   {"\\n", "\n"},
                 {"\\t", "\t"},   {"\\r", "\r"},   {"\\b", "\b"},   {"\\f", "\f"},
                 {"\\u0041", "A"}, {"\\u00e9", "\xe9"}, {"\\u001F", "\x1f"}};
  for (const auto& e : escapes) {
    const std::string esc = e.escape;
    EXPECT_EQ(decode(esc), e.decoded) << esc;
    EXPECT_EQ(decode(esc + "abc"), e.decoded + "abc") << esc;
    EXPECT_EQ(decode("abc" + esc), "abc" + e.decoded) << esc;
    EXPECT_EQ(decode("ab" + esc + "cd"), "ab" + e.decoded + "cd") << esc;
    EXPECT_EQ(decode(esc + esc), e.decoded + e.decoded) << esc;
  }
  EXPECT_EQ(decode(""), "");
  EXPECT_EQ(decode("plain run, no escapes"), "plain run, no escapes");
  // A long mixed body (the inline-instance shape) decodes exactly.
  std::string raw;
  std::string expected;
  for (int i = 0; i < 500; ++i) {
    raw += std::to_string(i) + " " + std::to_string(i + 1) + "\\n";
    expected += std::to_string(i) + " " + std::to_string(i + 1) + "\n";
  }
  EXPECT_EQ(decode(raw), expected);
}

TEST(JsonStrings, ErrorTextsAreUnchanged) {
  EXPECT_EQ(decode("abc\\q"), "ERROR: unsupported escape");
  EXPECT_EQ(decode("\\u12"), "ERROR: bad \\u escape");  // '"' is not a hex digit
  EXPECT_EQ(decode("\\u00g0"), "ERROR: bad \\u escape");
  EXPECT_EQ(decode("\\u0100"), "ERROR: \\u escape beyond latin-1 unsupported");
  std::string error;
  EXPECT_FALSE(parse_flat_json_object("{\"k\": \"abc", &error));
  EXPECT_EQ(error, "unterminated string");
  EXPECT_FALSE(parse_flat_json_object("{\"k\": \"abc\\", &error));
  EXPECT_EQ(error, "dangling escape");
  EXPECT_FALSE(parse_flat_json_object("{\"k\": \"\\u00", &error));
  EXPECT_EQ(error, "truncated \\u escape");
  EXPECT_FALSE(parse_flat_json_object("{\"k\": \"a\", \"k\": \"b\"}", &error));
  EXPECT_EQ(error, "duplicate key");
}

}  // namespace
}  // namespace bisched
