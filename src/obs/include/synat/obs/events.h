// Wide events (DESIGN.md §3i): one canonical structured JSON line per unit
// of work — per program in `synat batch`, per analysis RPC in `synat
// serve` — carrying the verdict, stage latencies, cache traffic, sandbox
// outcome, and error state in one flat record. The line is what an
// operator greps, tails, and feeds to dashboards; everything else in the
// observability layer aggregates, this narrates.
//
// Determinism contract: the renderer emits keys in one fixed order, and
// under SYNAT_OBS_VIRTUAL_CLOCK the log canonicalizes every
// schedule-dependent field (timestamps become the sequence number; stage
// latencies and cache traffic become zero). Events are appended from the
// assembled report in input order, never from worker completion order, so
// the event log for one input set is byte-identical across `--jobs 1`,
// `--jobs N`, `--isolate`, and a serve daemon fed the same requests —
// pinned by test and by the CI events job.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

namespace synat::obs {

/// One wide event. Every field is always rendered (possibly zero/empty) so
/// consumers can require a fixed shape (tools/events_schema.json).
struct Event {
  uint64_t seq = 0;      ///< assigned by EventLog::append
  uint64_t ts_ns = 0;    ///< completion time; == seq under the virtual clock
  std::string name;      ///< program/request name ("corpus:foo", a path)
  std::string fingerprint;  ///< program content fingerprint (hex), if known
  /// Verdict: ok | degraded | parse_error | load_error | internal_error,
  /// matching the report's program status; "error" for an RPC that was
  /// refused before analysis (overloaded, quarantined, shutting down).
  std::string status = "ok";
  bool atomic = false;      ///< every procedure proved atomic
  int exit_code = 0;        ///< per-program severity (report.h exit codes)
  uint64_t procs = 0;
  uint64_t procs_not_atomic = 0;
  uint64_t variants = 0;
  uint64_t dur_ns = 0;      ///< end-to-end latency of this unit of work
  uint64_t parse_ns = 0;    ///< per-program stage latencies (0 if unknown,
  uint64_t analyze_ns = 0;  ///<   e.g. under --isolate where stages run in
  uint64_t report_ns = 0;   ///<   the worker)
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t retries = 0;        ///< sandbox re-forks after a worker death
  uint64_t deaths_crash = 0;   ///< sandbox outcome tallies (0 in-process)
  uint64_t deaths_timeout = 0;
  uint64_t deaths_oom = 0;
  bool quarantined = false;  ///< request short-circuited by the breaker
  int error_code = 0;        ///< JSON-RPC error code for status "error"
  std::string error_kind;    ///< short error tag ("overloaded", "crash", ...)
};

/// Renders one event as a single JSON line (no trailing newline), keys in
/// the fixed schema order.
std::string render_event(const Event& e);

struct EventLogOptions {
  /// Sink file.
  std::string path;
  /// Size-based rotation: when the current file would exceed this, it is
  /// renamed to `path + ".1"` (replacing any previous rotation) and a
  /// fresh file is started. 0 disables rotation.
  uint64_t max_bytes = 64ull << 20;
};

/// Append-only wide-event sink. Thread-safe; one instance per batch run or
/// daemon. append() assigns the sequence number, applies virtual-clock
/// canonicalization, renders, and writes. Every line is either written
/// whole and flushed before append() returns (lines()) or dropped
/// (dropped(), and the synat_events_dropped_total counter): a failed or
/// short write or flush, or a file that could not be opened. The flush
/// makes the log the incident record: a daemon that dies has already
/// written the line of every request it completed.
class EventLog {
 public:
  explicit EventLog(EventLogOptions opts);
  ~EventLog();

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Canonicalizes (under the virtual clock), renders, and writes `e`.
  void append(Event e);

  /// Lines written whole to the file.
  uint64_t lines() const;
  /// Lines the file did not take whole.
  uint64_t dropped() const;
  const std::string& path() const { return opts_.path; }

 private:
  void rotate_locked();

  EventLogOptions opts_;
  mutable std::mutex mu_;
  std::FILE* f_ = nullptr;
  uint64_t bytes_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t lines_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace synat::obs
