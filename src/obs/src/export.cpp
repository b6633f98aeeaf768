#include "synat/obs/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>

namespace synat::obs {

void append_json_escaped(std::string& out, std::string_view s) {
  out += '"';
  size_t plain = 0;  // start of the run of bytes that need no escape
  for (size_t i = 0; i < s.size(); ++i) {
    const char ch = s[i];
    if (static_cast<unsigned char>(ch) >= 0x20 && ch != '"' && ch != '\\')
      continue;
    out.append(s.data() + plain, i - plain);
    plain = i + 1;
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(ch)));
        out += buf;
      }
    }
  }
  out.append(s.data() + plain, s.size() - plain);
  out += '"';
}

namespace {

// Nanoseconds rendered as microseconds with fixed 3-decimal precision:
// exact, locale-independent, and byte-stable (no floating point).
void append_us(std::string& out, uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03" PRIu64, ns / 1000,
                ns % 1000);
  out += buf;
}

void append_u64(std::string& out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

// Nanoseconds rendered as seconds with fixed 9-decimal precision: exact,
// locale-independent, and byte-stable — the unit Prometheus conventions
// expect for duration series.
void append_seconds(std::string& out, uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%09" PRIu64, ns / 1'000'000'000,
                ns % 1'000'000'000);
  out += buf;
}

}  // namespace

std::string to_chrome_trace(
    const std::vector<SpanRecord>& spans,
    const std::vector<std::pair<uint32_t, std::string>>& lanes,
    uint64_t spans_dropped) {
  uint64_t base = UINT64_MAX;
  for (const auto& s : spans) base = std::min(base, s.start_ns);
  if (base == UINT64_MAX) base = 0;

  std::string out;
  out.reserve(128 + spans.size() * 96);
  out += "{\"traceEvents\":[";
  bool first = true;
  auto lanes_sorted = lanes;
  std::sort(lanes_sorted.begin(), lanes_sorted.end());
  for (const auto& [lane, name] : lanes_sorted) {
    if (!first) out += ',';
    first = false;
    out += "{\"ph\":\"M\",\"pid\":";
    append_u64(out, lane);
    out += ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":";
    append_json_escaped(out, name);
    out += "}},{\"ph\":\"M\",\"pid\":";
    append_u64(out, lane);
    out += ",\"tid\":0,\"name\":\"process_sort_index\",\"args\":{\"sort_index\":";
    append_u64(out, lane);
    out += "}}";
  }
  for (const auto& s : spans) {
    if (!first) out += ',';
    first = false;
    const auto stage = static_cast<StageId>(s.stage);
    out += "{\"ph\":\"X\",\"name\":\"";
    out += stage_name(stage);
    out += "\",\"cat\":\"";
    out += stage_category(stage);
    out += "\",\"pid\":";
    append_u64(out, s.lane);
    out += ",\"tid\":";
    append_u64(out, s.tid);
    out += ",\"ts\":";
    append_us(out, s.start_ns - base);
    out += ",\"dur\":";
    append_us(out, s.dur_ns);
    out += '}';
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans_dropped\":";
  append_u64(out, spans_dropped);
  out += "}}\n";
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snap) {
  std::string out;
  // Counter names may carry Prometheus labels (`name{k="v"}`); the `_total`
  // suffix and the HELP/TYPE header apply to the base name only, and the
  // header is emitted once per base (labeled variants of one family are
  // adjacent: snapshots are name-sorted).
  std::string prev_base;
  for (const auto& c : snap.counters) {
    size_t brace = c.name.find('{');
    std::string base =
        brace == std::string::npos ? c.name : c.name.substr(0, brace);
    std::string labels =
        brace == std::string::npos ? std::string() : c.name.substr(brace);
    const std::string_view suffix = "_total";
    if (base.size() < suffix.size() ||
        base.compare(base.size() - suffix.size(), suffix.size(), suffix) != 0)
      base += suffix;
    if (base != prev_base) {
      out += "# HELP " + base + " synat counter";
      if (!c.deterministic) out += " (nondeterministic)";
      out += "\n# TYPE " + base + " counter\n";
      prev_base = base;
    }
    out += base + labels + ' ';
    append_u64(out, c.value);
    out += '\n';
  }
  for (const auto& g : snap.gauges) {
    out += "# HELP " + g.name + " synat gauge\n# TYPE " + g.name +
           " gauge\n" + g.name + ' ';
    append_u64(out, g.value);
    out += '\n';
  }
  for (const auto& h : snap.histograms) {
    out += "# HELP " + h.name +
           " synat duration histogram (seconds; sums nondeterministic)\n";
    out += "# TYPE " + h.name + " histogram\n";
    // Cumulative counts at the upper bound of every occupied bucket; the
    // bounds of empty buckets add no information.
    uint64_t cum = 0;
    for (const auto& [idx, n] : h.buckets) {
      cum += n;
      out += h.name + "_bucket{le=\"";
      append_seconds(out, Histogram::bucket_bound(idx));
      out += "\"} ";
      append_u64(out, cum);
      out += '\n';
    }
    out += h.name + "_bucket{le=\"+Inf\"} ";
    append_u64(out, cum);
    out += '\n' + h.name + "_sum ";
    append_seconds(out, h.sum_ns);
    out += '\n' + h.name + "_count ";
    append_u64(out, cum);
    out += '\n';
  }
  return out;
}

bool write_file(const std::string& path, const std::string& content,
                std::string* err) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    if (err) *err = "cannot open " + path + " for writing";
    return false;
  }
  f.write(content.data(), static_cast<std::streamsize>(content.size()));
  f.flush();
  if (!f) {
    if (err) *err = "short write to " + path;
    return false;
  }
  return true;
}

}  // namespace synat::obs
