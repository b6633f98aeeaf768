// Minimal deterministic JSON emitter for the batch driver's reports.
//
// The writer is append-only and key order is exactly the call order, so two
// runs that produce the same logical report produce byte-identical documents
// (the determinism contract `synat batch --jobs N` is tested against).
// No DOM, no parsing: report shapes are known statically. Strings go
// through obs::append_json_escaped, the one JSON string escape.
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
