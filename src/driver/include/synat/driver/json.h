// Minimal deterministic JSON emitter for the batch driver's reports.
//
// The writer is append-only and key order is exactly the call order, so two
// runs that produce the same logical report produce byte-identical documents
// (the determinism contract `synat batch --jobs N` is tested against).
// No DOM, no parsing: report shapes are known statically. Strings go
// through obs::append_json_escaped, the one JSON string escape.
//
// A value can also be rendered apart from its document and put in place
// later (to_json renders procedure objects on the pool that way): nest()
// writes one value as if it sat `depth` containers deep, and the
// document's writer splice()s it in, so both paths give the same bytes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace synat::driver {

/// Streaming writer with automatic comma insertion. Usage:
///
///   JsonWriter w;
///   w.begin_object();
///   w.key("name").value("nfq");
///   w.key("procs").begin_array();
///   ...
///   w.end_array();
///   w.end_object();
///   std::string doc = std::move(w).str();
class JsonWriter {
 public:
  explicit JsonWriter(int indent_width = 2) : indent_width_(indent_width) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view k);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(int64_t v);
  JsonWriter& value(uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<int64_t>(v)); }
  JsonWriter& value(unsigned v) { return value(static_cast<uint64_t>(v)); }

  /// Starts one value nested `depth` levels deep, as if `depth` containers
  /// were open around it: its first token continues the parent's line (no
  /// separator) and its contents are indented for that depth. The bytes
  /// are those a writer at that depth appends after the value's separator.
  /// Each call starts a new value after the ones already in the buffer.
  JsonWriter& nest(int depth);
  /// Writes the separator a value needs here, then appends `rendered`: a
  /// value written after nest() with this writer's current depth.
  JsonWriter& splice(std::string_view rendered);
  /// Empties the writer, keeping its buffer's capacity.
  void clear();

  size_t size() const { return out_.size(); }
  void reserve(size_t bytes) { out_.reserve(bytes); }
  std::string str() && { return std::move(out_); }
  const std::string& str() const& { return out_; }

 private:
  void comma_and_newline();
  void indent();

  std::string out_;
  int indent_width_;
  int depth_ = 0;
  /// Per-depth "a value has already been written at this level" flags.
  std::vector<bool> has_item_{false};
  bool after_key_ = false;
};

}  // namespace synat::driver
