#include "synat/obs/events.h"

#include <cinttypes>
#include <cstdio>

#include "synat/obs/export.h"
#include "synat/obs/metrics.h"
#include "synat/obs/obs.h"

namespace synat::obs {

namespace {

void append_u64(std::string& out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void append_field(std::string& out, const char* key, uint64_t v) {
  out += ",\"";
  out += key;
  out += "\":";
  append_u64(out, v);
}

void append_field(std::string& out, const char* key, bool v) {
  out += ",\"";
  out += key;
  out += "\":";
  out += v ? "true" : "false";
}

void append_field(std::string& out, const char* key, const std::string& v) {
  out += ",\"";
  out += key;
  out += "\":";
  append_json_escaped(out, v);
}

}  // namespace

std::string render_event(const Event& e) {
  std::string out;
  out.reserve(320);
  out += "{\"schema\":\"synat-event\",\"v\":1,\"seq\":";
  append_u64(out, e.seq);
  append_field(out, "ts_ns", e.ts_ns);
  append_field(out, "name", e.name);
  append_field(out, "fingerprint", e.fingerprint);
  append_field(out, "status", e.status);
  append_field(out, "atomic", e.atomic);
  out += ",\"exit_code\":";
  append_u64(out, static_cast<uint64_t>(e.exit_code < 0 ? 0 : e.exit_code));
  append_field(out, "procs", e.procs);
  append_field(out, "procs_not_atomic", e.procs_not_atomic);
  append_field(out, "variants", e.variants);
  append_field(out, "dur_ns", e.dur_ns);
  append_field(out, "parse_ns", e.parse_ns);
  append_field(out, "analyze_ns", e.analyze_ns);
  append_field(out, "report_ns", e.report_ns);
  append_field(out, "cache_hits", e.cache_hits);
  append_field(out, "cache_misses", e.cache_misses);
  append_field(out, "retries", e.retries);
  append_field(out, "deaths_crash", e.deaths_crash);
  append_field(out, "deaths_timeout", e.deaths_timeout);
  append_field(out, "deaths_oom", e.deaths_oom);
  append_field(out, "quarantined", e.quarantined);
  // JSON-RPC error codes are negative (-32003 and friends); render signed.
  out += ",\"error_code\":";
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%d", e.error_code);
  out += buf;
  append_field(out, "error_kind", e.error_kind);
  out += '}';
  return out;
}

EventLog::EventLog(EventLogOptions opts) : opts_(std::move(opts)) {
  f_ = std::fopen(opts_.path.c_str(), "wb");
  if (f_ == nullptr)
    std::fprintf(stderr, "synat: warning: cannot open event log %s\n",
                 opts_.path.c_str());
}

EventLog::~EventLog() {
  std::lock_guard<std::mutex> lock(mu_);
  if (f_ != nullptr) std::fclose(f_);
  f_ = nullptr;
}

void EventLog::rotate_locked() {
  std::fclose(f_);
  f_ = nullptr;
  std::string rotated = opts_.path + ".1";
  if (std::rename(opts_.path.c_str(), rotated.c_str()) != 0) {
    std::fprintf(stderr, "synat: warning: cannot rotate event log to %s\n",
                 rotated.c_str());
  }
  f_ = std::fopen(opts_.path.c_str(), "wb");
  bytes_ = 0;
}

void EventLog::append(Event e) {
  bool lost = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    e.seq = next_seq_++;
    if (virtual_clock()) {
      // Canonical mode: every schedule-dependent field collapses to a pure
      // function of the input order, making the whole log byte-comparable
      // across execution modes.
      e.ts_ns = e.seq;
      e.dur_ns = e.parse_ns = e.analyze_ns = e.report_ns = 0;
      e.cache_hits = e.cache_misses = 0;
    } else if (e.ts_ns == 0) {
      e.ts_ns = now_ns();  // completion time, unless the caller stamped one
    }
    std::string line = render_event(e);
    line += '\n';
    if (f_ != nullptr && opts_.max_bytes > 0 && bytes_ > 0 &&
        bytes_ + line.size() > opts_.max_bytes)
      rotate_locked();
    size_t written = 0;
    bool flushed = false;
    if (f_ != nullptr) {
      written = std::fwrite(line.data(), 1, line.size(), f_);
      // The log is the incident record: a completed request's line must
      // reach the file before a later failure can take the process down.
      flushed = std::fflush(f_) == 0;
    }
    bytes_ += written;
    if (written == line.size() && flushed) {
      ++lines_;
    } else {
      ++dropped_;
      lost = true;
    }
  }
  if (lost) {
    static Counter& drops =
        registry().counter("synat_events_dropped_total", false);
    drops.inc();
  }
}

uint64_t EventLog::lines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lines_;
}

uint64_t EventLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

}  // namespace synat::obs
