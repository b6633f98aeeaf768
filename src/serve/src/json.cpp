#include "synat/serve/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "synat/obs/export.h"

namespace synat::serve {

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind = Kind::Bool;
  v.boolean = b;
  return v;
}

JsonValue JsonValue::make_number(int64_t n) {
  JsonValue v;
  v.kind = Kind::Number;
  v.number = static_cast<double>(n);
  v.num_raw = std::to_string(n);
  return v;
}

JsonValue JsonValue::make_number(uint64_t n) {
  JsonValue v;
  v.kind = Kind::Number;
  v.number = static_cast<double>(n);
  v.num_raw = std::to_string(n);
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  v.kind = Kind::Number;
  v.number = d;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind = Kind::String;
  v.str = std::move(s);
  return v;
}

JsonValue JsonValue::make_array() {
  JsonValue v;
  v.kind = Kind::Array;
  return v;
}

JsonValue JsonValue::make_object() {
  JsonValue v;
  v.kind = Kind::Object;
  return v;
}

const JsonValue* JsonValue::get(std::string_view key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

JsonValue& JsonValue::add(std::string key, JsonValue v) {
  kind = Kind::Object;
  members.emplace_back(std::move(key), std::move(v));
  return *this;
}

JsonValue& JsonValue::push(JsonValue v) {
  kind = Kind::Array;
  items.push_back(std::move(v));
  return *this;
}

// ---------------------------------------------------------------------------
// Parser

namespace {

class Parser {
 public:
  Parser(std::string_view text, const JsonLimits& limits)
      : text_(text), limits_(limits) {}

  JsonParse run() {
    JsonParse out;
    skip_ws();
    if (!value(out.value)) {
      out.error = error_;
      return out;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after value");
      out.error = error_;
      return out;
    }
    out.ok = true;
    return out;
  }

 private:
  bool fail(std::string_view msg) {
    if (error_.empty())
      error_ = "offset " + std::to_string(pos_) + ": " + std::string(msg);
    return false;
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof()) {
      char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word)
      return fail("invalid literal");
    pos_ += word.size();
    return true;
  }

  bool value(JsonValue& out) {
    if (eof()) return fail("unexpected end of input");
    switch (peek()) {
      case '{': return object(out);
      case '[': return array(out);
      case '"': out.kind = JsonValue::Kind::String; return string(out.str);
      case 't':
        out = JsonValue::make_bool(true);
        return literal("true");
      case 'f':
        out = JsonValue::make_bool(false);
        return literal("false");
      case 'n':
        out = JsonValue::make_null();
        return literal("null");
      default: return number(out);
    }
  }

  bool object(JsonValue& out) {
    if (++depth_ > limits_.max_depth) return fail("nesting too deep");
    out.kind = JsonValue::Kind::Object;
    ++pos_;  // '{'
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      --depth_;
      return true;
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') return fail("expected object key");
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (eof() || peek() != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      JsonValue v;
      if (!value(v)) return false;
      out.members.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (eof()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        --depth_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array(JsonValue& out) {
    if (++depth_ > limits_.max_depth) return fail("nesting too deep");
    out.kind = JsonValue::Kind::Array;
    ++pos_;  // '['
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      --depth_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue v;
      if (!value(v)) return false;
      out.items.push_back(std::move(v));
      skip_ws();
      if (eof()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        --depth_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool hex4(uint32_t& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') out |= static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') out |= static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') out |= static_cast<uint32_t>(c - 'A' + 10);
      else return fail("invalid \\u escape");
    }
    return true;
  }

  void append_utf8(std::string& s, uint32_t cp) {
    if (cp < 0x80) {
      s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      s += static_cast<char>(0xC0 | (cp >> 6));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      s += static_cast<char>(0xE0 | (cp >> 12));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      s += static_cast<char>(0xF0 | (cp >> 18));
      s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool string(std::string& out) {
    ++pos_;  // opening '"'
    while (true) {
      if (eof()) return fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) return fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          uint32_t cp = 0;
          if (!hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00-\uDFFF.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u')
              return fail("unpaired surrogate");
            pos_ += 2;
            uint32_t lo = 0;
            if (!hex4(lo)) return false;
            if (lo < 0xDC00 || lo > 0xDFFF) return fail("unpaired surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: return fail("invalid escape");
      }
    }
  }

  bool number(JsonValue& out) {
    size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || peek() < '0' || peek() > '9') return fail("invalid number");
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || peek() < '0' || peek() > '9')
        return fail("invalid number: digits required after '.'");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || peek() < '0' || peek() > '9')
        return fail("invalid number: digits required in exponent");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    out.kind = JsonValue::Kind::Number;
    out.num_raw = std::string(text_.substr(start, pos_ - start));
    out.number = std::strtod(out.num_raw.c_str(), nullptr);
    if (!std::isfinite(out.number))
      return fail("number out of range");
    return true;
  }

  std::string_view text_;
  const JsonLimits& limits_;
  size_t pos_ = 0;
  size_t depth_ = 0;
  std::string error_;
};

}  // namespace

JsonParse parse_json(std::string_view text, const JsonLimits& limits) {
  if (text.size() > limits.max_bytes) {
    JsonParse out;
    out.error = "document exceeds " + std::to_string(limits.max_bytes) +
                " byte limit";
    return out;
  }
  return Parser(text, limits).run();
}

// ---------------------------------------------------------------------------
// Encoder

void encode_json(const JsonValue& v, std::string& out) {
  switch (v.kind) {
    case JsonValue::Kind::Null: out += "null"; break;
    case JsonValue::Kind::Bool: out += v.boolean ? "true" : "false"; break;
    case JsonValue::Kind::Number:
      if (!v.num_raw.empty()) {
        out += v.num_raw;
      } else {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v.number);
        out += buf;
      }
      break;
    case JsonValue::Kind::String: obs::append_json_escaped(out, v.str); break;
    case JsonValue::Kind::Array: {
      out += '[';
      bool first = true;
      for (const JsonValue& item : v.items) {
        if (!first) out += ',';
        first = false;
        encode_json(item, out);
      }
      out += ']';
      break;
    }
    case JsonValue::Kind::Object: {
      out += '{';
      bool first = true;
      for (const auto& [key, val] : v.members) {
        if (!first) out += ',';
        first = false;
        obs::append_json_escaped(out, key);
        out += ':';
        encode_json(val, out);
      }
      out += '}';
      break;
    }
  }
}

std::string encode_json(const JsonValue& v) {
  std::string out;
  encode_json(v, out);
  return out;
}

}  // namespace synat::serve
