#include "synat/driver/json.h"

#include <gtest/gtest.h>

#include <string_view>
#include <utility>
#include <vector>

#include "synat/obs/export.h"

namespace synat::driver {
namespace {

/// The escaped body of `s`: the one JSON string escape, quotes stripped.
std::string json_escape(std::string_view s) {
  std::string out;
  obs::append_json_escaped(out, s);
  return out.substr(1, out.size() - 2);
}

TEST(JsonEscape, PassesPlainText) {
  EXPECT_EQ(json_escape("hello world"), "hello world");
}

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonWriter, EmptyObject) {
  JsonWriter w;
  w.begin_object().end_object();
  EXPECT_EQ(std::move(w).str(), "{}");
}

TEST(JsonWriter, NestedStructure) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("x");
  w.key("n").value(3);
  w.key("ok").value(true);
  w.key("items").begin_array();
  w.value(uint64_t{1});
  w.begin_object();
  w.key("inner").value("y");
  w.end_object();
  w.end_array();
  w.end_object();
  EXPECT_EQ(std::move(w).str(),
            "{\n"
            "  \"name\": \"x\",\n"
            "  \"n\": 3,\n"
            "  \"ok\": true,\n"
            "  \"items\": [\n"
            "    1,\n"
            "    {\n"
            "      \"inner\": \"y\"\n"
            "    }\n"
            "  ]\n"
            "}");
}

TEST(JsonWriter, EmptyArrayStaysOnOneLine) {
  JsonWriter w;
  w.begin_object();
  w.key("xs").begin_array().end_array();
  w.end_object();
  EXPECT_EQ(std::move(w).str(), "{\n  \"xs\": []\n}");
}

// A value written by a nested writer and spliced in gives the bytes of the
// value written in place: to_json renders procedure objects on the pool
// that way.
TEST(JsonWriter, SplicedValueEqualsTheValueWrittenInPlace) {
  auto item = [](JsonWriter& w, int n) {
    w.begin_object();
    w.key("n").value(n);
    w.key("xs").begin_array().value(true).end_array();
    w.end_object();
  };
  JsonWriter direct;
  direct.begin_object().key("items").begin_array();
  for (int n = 0; n < 3; ++n) item(direct, n);
  direct.end_array().end_object();

  JsonWriter nested;
  std::vector<std::pair<size_t, size_t>> pieces;
  for (int n = 0; n < 3; ++n) {
    const size_t begin = nested.size();
    item(nested.nest(2), n);
    pieces.emplace_back(begin, nested.size());
  }
  JsonWriter spliced;
  spliced.begin_object().key("items").begin_array();
  for (const auto& [begin, end] : pieces)
    spliced.splice(std::string_view(nested.str()).substr(begin, end - begin));
  spliced.end_array().end_object();
  EXPECT_EQ(std::move(spliced).str(), std::move(direct).str());
}

}  // namespace
}  // namespace synat::driver
