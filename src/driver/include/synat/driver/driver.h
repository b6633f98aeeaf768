// Batch analysis driver: runs the full pipeline (sema → CFG/liveness →
// purity/matching/local-conditions → variant enumeration → mover
// assignment → type propagation → block partitioning) over many programs
// on a fixed-size thread pool. A driver handed a ResultCache memoizes
// per-procedure results in it, content-addressed; serve is the caller that
// hands one over, so a batch keeps no state between runs.
//
// Concurrency model: one task per program. The task parses its own Program
// (no AST is shared between program tasks: variant generation appends to
// the Program it analyzes), builds the program's conflict universe once,
// takes every procedure's cache address from that universe, classifies
// only the cache misses against it, and publishes the finished program to
// the ReportSink in one call. Inside the task, the pool's idle workers
// help with the read-only parts: the universe's analyses and contexts, and
// the classification and rendering of the misses, each landing by index.
// Output assembly is index-addressed throughout, which makes the rendered
// documents byte-identical for any --jobs value.
//
// Timing has one clock: parse, analyze and report are obs spans (DESIGN.md
// §3e), so their histograms live in the obs registry and reach the report
// through the run's registry delta (Metrics::telemetry, `--timings`). The
// same spans charge each program's wall-time split for the wide events.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "synat/atomicity/infer.h"
#include "synat/driver/cache.h"
#include "synat/driver/report.h"

namespace synat {
class ThreadPool;
}

namespace synat::obs {
class EventLog;
}

namespace synat::driver {

/// One program to analyze.
struct ProgramInput {
  std::string name;    ///< display name (file path or corpus:<name>)
  std::string source;  ///< SYNL source text
  atomicity::InferOptions opts;
  /// When non-empty, the input could not be read; the driver reports the
  /// program as ProgramStatus::LoadError (with this message) without
  /// scheduling any work, and the rest of the batch proceeds.
  std::string load_error;
};

struct DriverOptions {
  /// Worker threads; 1 runs inline on the calling thread, 0 uses one
  /// worker per hardware thread.
  unsigned jobs = 1;
  /// Wall-clock deadline per program in milliseconds; 0 disables it. It
  /// arms the program's ExecBudget, which trips at the first check after
  /// the deadline passes. Every procedure the deadline stops is reported as
  /// degraded ("deadline"), the batch proceeds. Deadline trips depend on
  /// machine speed, so results are only byte-deterministic when no program
  /// trips (or the deadline is 0).
  uint64_t deadline_ms = 0;
  /// Escalate instead of degrading: recovered parse errors fail the
  /// program (ParseError) and budget/deadline trips are internal errors.
  bool strict = false;
  /// Run every program in a sandboxed one-shot worker process, through the
  /// fork-worker supervisor of worker.h (DESIGN.md §3d). A worker death of
  /// any kind — SIGSEGV, OOM kill, stall — is contained as that one
  /// program's ProgramStatus::Degraded verdict. Workers are plain forks,
  /// so call run() with no other threads alive. `jobs` caps concurrent
  /// workers; the driver's cache is not consulted (workers are separate
  /// address spaces).
  bool isolate = false;
  /// Address-space cap per worker in MiB (RLIMIT_AS); 0 = unlimited.
  /// Only meaningful with `isolate`.
  unsigned max_rss_mb = 0;
  /// Re-dispatches of a program whose worker died before retrying turns
  /// into a Degraded verdict (backoff doubling from 50 ms, capped at 1.6 s).
  unsigned retries = 1;
  /// Wide-event sink (DESIGN.md §3i): when set, run() appends one event
  /// per program, in input order, after the report is assembled. Not owned.
  /// Enabling events also enables per-program stage wall times. (Stage
  /// histograms are the obs registry's, recorded under obs::kMetricsFlag.)
  obs::EventLog* events = nullptr;
};

/// Fingerprint of the analysis options that affect results; part of every
/// cache key.
uint64_t options_fingerprint(const atomicity::InferOptions& opts);

class BatchDriver {
 public:
  /// The driver memoizes per-procedure reports in `cache` if and only if it
  /// is non-null; the cache is not owned and stays warm across runs.
  explicit BatchDriver(DriverOptions opts, ResultCache* cache = nullptr);

  BatchDriver(const BatchDriver&) = delete;
  BatchDriver& operator=(const BatchDriver&) = delete;

  /// Analyzes every input and returns the aggregated report. Safe to call
  /// repeatedly; the cache persists across calls.
  BatchReport run(const std::vector<ProgramInput>& inputs);

 private:
  /// Cache lookups made by one run() — the shared cache's own counters
  /// also count concurrent runs (serve requests) against it.
  struct CacheTally {
    std::atomic<size_t> hits{0};
    std::atomic<size_t> misses{0};
  };

  /// Analyzes one program on the calling thread, with the idle workers of
  /// `pool` (the batch's own) helping inside the program.
  void run_program_task(const ProgramInput& input, size_t index,
                        ReportSink& sink, CacheTally& tally, ThreadPool& pool);
  /// Per-program stage wall times are taken only for the wide events.
  bool timed() const { return opts_.events != nullptr; }
  /// Where a stage span adds its duration: `ns` when timed(), else nowhere.
  uint64_t* charge(uint64_t& ns) const { return timed() ? &ns : nullptr; }

  DriverOptions opts_;
  ResultCache* cache_;  ///< null: no memoization
};

}  // namespace synat::driver
