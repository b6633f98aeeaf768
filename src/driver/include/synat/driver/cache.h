// Content-addressed memoization cache for per-procedure analysis results.
//
// The address is an FNV-1a hash over everything a procedure's verdict can
// depend on. A procedure cannot be keyed by its own text alone: its
// atomicity depends on the conflicting accesses of every other procedure's
// variants (paper step 4, the cross-thread conflict universe). The driver
// therefore addresses entries by (analysis option fingerprint, the
// procedure's own printed body + source layout, the program's interference
// universe hash) — see atomicity::ProgramFingerprint; the driver takes the
// universe hash from the conflict universe it builds for the program
// anyway. The universe hash covers only the projection of other procedures
// that step 4 can actually read (alias classes, lock sets, region
// structure), so editing one procedure re-analyzes that procedure and, at
// worst, procedures whose interference it changed — the keying behind
// `synat serve`'s incremental re-analysis. When a program cannot be
// fingerprinted precisely (broken procedures, provenance runs) the driver
// falls back to the coarse key (pretty-printed whole program, option
// fingerprint, procedure name). Both forms are canonical content
// addresses: the printer is a fixpoint under re-parsing, so formatting
// differences in the input do not cause spurious misses.
//
// Sharded to keep lock hold times negligible next to an analysis run.
// Entries are immutable shared_ptrs, so hits alias the cached report.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "synat/driver/report.h"

namespace synat::driver {

/// Version of the cache snapshot format (magic "SYNATCC<v>"); a snapshot
/// with any other version rejects whole.
inline constexpr uint64_t kCacheSchemaVersion = 5;

class ResultCache {
 public:
  std::shared_ptr<const ProcReport> lookup(uint64_t key);

  /// First writer wins; returns the resident entry (the argument, or the
  /// earlier one if a concurrent task already published the same key).
  std::shared_ptr<const ProcReport> insert(
      uint64_t key, std::shared_ptr<const ProcReport> report);

  void clear();
  size_t size() const;

  /// Delta capture for the sandboxed serve path (worker.h). A forked
  /// request worker inherits the daemon's cache as a copy-on-write image;
  /// inserts it performs exist only in the child. start_capture() makes
  /// every subsequent insert also append (key, report) to an internal log,
  /// which take_capture() drains — the worker ships the log back over a
  /// CacheDelta frame so the supervisor can re-insert the entries into the
  /// live cache and keep later forks warm. Not used concurrently with
  /// multi-threaded inserts (the capturing sub-driver runs jobs=1).
  void start_capture();
  std::vector<std::pair<uint64_t, std::shared_ptr<const ProcReport>>>
  take_capture();

  /// Persistence for warm starts across processes (`synat serve
  /// --cache-file`). The format is a versioned binary snapshot with a
  /// CRC32 checksum per entry. Corruption is never an error — the cache is
  /// an accelerator, not a source of truth:
  ///  - a missing file or an unreadable header loads as an empty cache
  ///    (load returns false);
  ///  - a version/magic mismatch rejects the whole snapshot (cold start);
  ///  - an entry whose checksum or encoding does not verify is skipped,
  ///    keeping every other entry (truncation keeps the intact prefix).
  /// Every rejected snapshot or entry increments rejected().
  /// save() writes to `path + ".tmp"` and renames over `path`, so a crash
  /// (or SIGKILL — the serve daemon snapshots periodically) mid-write never
  /// clobbers the previous good snapshot with a truncated one.
  bool save(const std::string& path) const;
  bool load(const std::string& path);

  /// Lifetime counters (not reset by clear()); they include every run
  /// sharing this cache — a run's own lookups are in its Metrics.
  size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  size_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Snapshots or snapshot entries rejected as corrupt/stale during load().
  size_t rejected() const { return rejected_.load(std::memory_order_relaxed); }

 private:
  static constexpr size_t kShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, std::shared_ptr<const ProcReport>> map;
  };
  Shard& shard(uint64_t key) { return shards_[key % kShards]; }

  Shard shards_[kShards];
  std::atomic<size_t> hits_{0};
  std::atomic<size_t> misses_{0};
  std::atomic<size_t> rejected_{0};

  std::mutex capture_mu_;
  bool capturing_ = false;
  std::vector<std::pair<uint64_t, std::shared_ptr<const ProcReport>>> capture_;
};

}  // namespace synat::driver
