#include "synat/driver/json.h"

#include "synat/obs/export.h"

namespace synat::driver {

void JsonWriter::comma_and_newline() {
  if (after_key_) {
    after_key_ = false;
    return;  // value follows "key": on the same line
  }
  if (has_item_[static_cast<size_t>(depth_)]) out_ += ',';
  if (depth_ > 0) out_ += '\n';
  indent();
  has_item_[static_cast<size_t>(depth_)] = true;
}

void JsonWriter::indent() {
  out_.append(static_cast<size_t>(depth_ * indent_width_), ' ');
}

JsonWriter& JsonWriter::begin_object() {
  comma_and_newline();
  out_ += '{';
  ++depth_;
  has_item_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  bool had = has_item_.back();
  has_item_.pop_back();
  --depth_;
  if (had) {
    out_ += '\n';
    indent();
  }
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma_and_newline();
  out_ += '[';
  ++depth_;
  has_item_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  bool had = has_item_.back();
  has_item_.pop_back();
  --depth_;
  if (had) {
    out_ += '\n';
    indent();
  }
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  comma_and_newline();
  obs::append_json_escaped(out_, k);
  out_ += ": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  comma_and_newline();
  obs::append_json_escaped(out_, v);
  return *this;
}

JsonWriter& JsonWriter::nest(int depth) {
  depth_ = depth;
  has_item_.assign(static_cast<size_t>(depth) + 1, false);
  after_key_ = true;  // no separator: the parent's writer splices one in
  return *this;
}

JsonWriter& JsonWriter::splice(std::string_view rendered) {
  comma_and_newline();
  out_ += rendered;
  return *this;
}

void JsonWriter::clear() {
  out_.clear();
  depth_ = 0;
  has_item_.assign(1, false);
  after_key_ = false;
}

JsonWriter& JsonWriter::value(bool v) {
  comma_and_newline();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(int64_t v) {
  comma_and_newline();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(uint64_t v) {
  comma_and_newline();
  out_ += std::to_string(v);
  return *this;
}

}  // namespace synat::driver
