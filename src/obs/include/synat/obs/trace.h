// Low-overhead span tracer: fixed-capacity per-thread ring buffers of
// completed spans, drained into one deterministic, lane-sorted list at
// export time.
//
// Concurrency model: each thread appends to its own ring with no
// synchronization on the hot path (registration of a new thread's ring and
// the drain itself take the registry mutex). Rings of exited threads are
// retained until the next drain, so a ThreadPool torn down before export
// loses nothing. When a ring is full the oldest span is overwritten and
// the drop is counted — tracing must never turn a batch run into an
// allocation storm.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "synat/obs/obs.h"

namespace synat::obs {

/// One completed span. `lane` 0 is the current process; merged worker
/// telemetry is injected under per-worker lanes (see Tracer::inject).
struct SpanRecord {
  uint32_t stage = 0;  ///< StageId
  uint32_t lane = 0;
  uint32_t tid = 0;    ///< small sequential per-process thread ordinal
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
};

class Tracer {
 public:
  /// Spans a single ring holds before wrapping; per thread.
  static constexpr size_t kRingCapacity = 1 << 15;

  static Tracer& instance();

  /// Appends a completed span to the calling thread's ring. Callers gate on
  /// obs::flags() themselves (see SpanScope); record() assumes tracing is
  /// wanted.
  void record(StageId stage, uint64_t start_ns, uint64_t dur_ns);

  /// Injects already-collected spans (decoded worker telemetry) under
  /// `lane`; their tids are preserved as the worker's own thread ordinals.
  void inject(uint32_t lane, const std::vector<SpanRecord>& spans);

  /// Human-readable lane name ("worker corpus:nfq_prime") for exporters.
  void set_lane_name(uint32_t lane, std::string name);
  std::vector<std::pair<uint32_t, std::string>> lane_names() const;

  /// Moves every recorded span (all threads, all lanes) out of the tracer,
  /// sorted by (lane, tid, start, stage, dur) so the result — and any
  /// document rendered from it — is deterministic for a deterministic
  /// schedule. Rings of exited threads are pruned.
  std::vector<SpanRecord> drain();

  /// Spans overwritten because a ring was full (lifetime count).
  uint64_t dropped() const;

  /// Adds the drops of dropped() not yet added to
  /// synat_trace_spans_dropped_total and returns that counter. Workers'
  /// registry deltas merge their own drops into the same counter, so the
  /// result counts every span this process and its workers lost, once.
  uint64_t count_dropped();

  /// Drops every buffered span and lane name; used by forked workers to
  /// shed the spans copied from the parent, and by tests.
  void reset();

 private:
  struct Ring {
    std::vector<SpanRecord> spans;  ///< capacity kRingCapacity, append order
    size_t next = 0;                ///< overwrite cursor once full
    uint32_t tid = 0;
    bool retired = false;  ///< owning thread exited
  };
  struct ThreadSlot;  // thread_local registrar

  Ring& local_ring();

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<Ring>> rings_;
  std::vector<SpanRecord> injected_;
  std::vector<std::pair<uint32_t, std::string>> lanes_;
  uint32_t next_tid_ = 0;
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> counted_{0};  ///< the part of dropped_ counted
};

/// RAII span covering one pipeline or driver stage. Construction reads the
/// flag word once; when no flag is set and no `add_ns` is given, neither
/// constructor nor destructor touches a clock or any shared state. A
/// non-null `add_ns` also receives the span's duration, flags or not: the
/// driver's per-program stage tallies read the span's own clock.
class SpanScope {
 public:
  explicit SpanScope(StageId stage, uint64_t* add_ns = nullptr)
      : stage_(stage), flags_(obs::flags()), add_ns_(add_ns),
        start_(flags_ != 0 || add_ns != nullptr ? now_ns() : 0) {}
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  StageId stage_;
  uint32_t flags_;
  uint64_t* add_ns_;
  uint64_t start_;
};

}  // namespace synat::obs
