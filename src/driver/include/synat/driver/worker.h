// The fork-worker supervisor (DESIGN.md §3d): runs analysis inputs in
// sandboxed, one-shot worker processes, at most N at a time, from one poll
// loop on the calling thread. `batch --isolate` hands it every pending
// input; `serve --sandbox` hands it one input from a pool thread. What an
// outcome means — report slots, counters, wide events — stays with the
// caller.
//
// A worker is forked with its input and attempt already bound, and talks
// back over one pipe (frames per support/frame.h):
//   Heartbeat  (empty payload, every ~50 ms)
//   Telemetry  [spans + registry delta]          \  trusted only when a
//   Provenance [derivation records]               > decodable Result
//   CacheDelta [new cache entries]               /  follows
//   Result     [codec-encoded ProgramReport]
// A worker that dies before its Result — crash, OOM kill, CPU-limit kill,
// corrupt frame, or heartbeat silence past the stall deadline — is retried
// with a capped exponential backoff (DriverOptions::retries), then given up
// with a degraded reason ("crashed: <cause>"). Nothing else is affected.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "synat/driver/cache.h"
#include "synat/driver/driver.h"
#include "synat/driver/report.h"
#include "synat/obs/trace.h"

namespace synat::driver {

/// What one input's workers produced, over every attempt.
struct WorkerOutcome {
  bool ok = false;
  ProgramReport report;  ///< the decoded Result, provenance attached; when ok
  std::string reason;    ///< degraded reason when !ok ("crashed: ...")
  /// Spans the successful worker recorded; the caller picks their lane.
  std::vector<obs::SpanRecord> spans;
  unsigned retries = 0;         ///< re-forks performed after a death
  unsigned deaths_crash = 0;    ///< segfault, bad frame, unclassified exit
  unsigned deaths_timeout = 0;  ///< heartbeat stall or RLIMIT_CPU (SIGXCPU)
  unsigned deaths_oom = 0;      ///< bad_alloc exit or abort under an rss cap
  uint64_t cache_hits = 0;      ///< from the worker's cache delta
  uint64_t cache_misses = 0;

  unsigned deaths() const { return deaths_crash + deaths_timeout + deaths_oom; }
};

/// Runs every input in forked one-shot workers, at most `jobs` at a time,
/// under opts.deadline_ms / opts.max_rss_mb / opts.retries, and calls
/// `done(k, outcome)` on this thread as input k finishes. Each worker
/// analyzes its input with an in-process sub-driver (jobs 1, no isolation),
/// so a report is byte-identical to the in-process path's.
///
/// When `cache` is non-null the worker analyzes against its copy-on-write
/// image of it and ships back the entries it added (CacheDelta), which are
/// folded into `cache` so later forks stay warm. A worker's registry delta
/// merges into this process's registry, except synat_programs_total: the
/// caller counts the programs it hands out.
///
/// The supervisor only reads from worker pipes, so it never raises SIGPIPE
/// and leaves the signal's disposition alone. It may run on a pool thread of
/// a threaded process: glibc reinitializes its malloc locks across fork, and
/// the residual hazard — a child inheriting some other mutex mid-hold —
/// shows as a child that never heartbeats, which the stall detector reaps
/// and retries like any other hang (DESIGN.md §3h).
void run_workers(const std::vector<const ProgramInput*>& inputs,
                 const DriverOptions& opts, unsigned jobs, ResultCache* cache,
                 const std::function<void(size_t, WorkerOutcome)>& done);

/// Milliseconds to wait before re-forking an input whose attempt `attempt`
/// (1-based) died: 50 ms doubling per attempt, capped at 1.6 s.
uint64_t retry_backoff_ms(unsigned attempt);

}  // namespace synat::driver
