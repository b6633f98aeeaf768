// Process-wide metrics registry: counters, gauges, and duration histograms
// of one kind (Histogram), behind one exportable surface: one sample type
// per metric kind, one snapshot/delta/merge path, one telemetry encoding
// (driver/codec.h) and one Prometheus rendering (export.h).
//
// Hot-path cost is one relaxed atomic RMW per event. Metric objects are
// created once (under the registry mutex) and never move or die, so call
// sites cache a reference in a function-local static. Every metric is
// tagged deterministic or not: deterministic values are pure functions of
// the inputs and options for a given execution mode (procedure counts,
// cache hits, worker dispatches), nondeterministic ones depend on wall-clock
// scheduling (heartbeats, deadline trips, ring-buffer drops). Only the
// deterministic set is rendered into the JSON report, which keeps the
// byte-determinism contract of `synat batch --jobs N` intact.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "synat/obs/obs.h"

namespace synat::obs {

class Counter {
 public:
  void inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  /// In-place zeroing (Registry::reset) — cached references stay valid.
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

class Gauge {
 public:
  void set(uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Duration histogram: log2 buckets subdivided 32 ways (values below 32ns
/// are exact; above, the top 5 bits after the leading one select the
/// sub-bucket), giving ~3% relative quantile error across the full uint64
/// nanosecond range in 1920 fixed buckets. Fixed bucket indices keep every
/// exporter and the worker-telemetry merge trivially well defined, and the
/// quantiles are the p50/p95/p99 of the serve status RPC. Quantiles of
/// wall-clock durations are nondeterministic and never enter the report.
class Histogram {
 public:
  static constexpr uint32_t kSubBits = 5;
  static constexpr uint32_t kSub = 1u << kSubBits;  // 32 sub-buckets
  static constexpr uint32_t kBuckets = kSub + (64 - kSubBits) * kSub;  // 1920

  static uint32_t bucket_index(uint64_t ns) {
    if (ns < kSub) return static_cast<uint32_t>(ns);
    uint32_t h = 63 - static_cast<uint32_t>(__builtin_clzll(ns));
    uint32_t sub = static_cast<uint32_t>(ns >> (h - kSubBits)) & (kSub - 1);
    return ((h - kSubBits + 1) << kSubBits) | sub;
  }

  /// Inclusive upper bound (ns) of bucket `idx` — the value quantiles
  /// report, so a quantile is exact to within one sub-bucket's width.
  static uint64_t bucket_bound(uint32_t idx) {
    if (idx < kSub) return idx;
    uint32_t h = (idx >> kSubBits) + kSubBits - 1;
    uint64_t sub = idx & (kSub - 1);
    return (uint64_t{1} << h) + ((sub + 1) << (h - kSubBits)) - 1;
  }

  void observe(uint64_t ns) {
    buckets_[bucket_index(ns)].fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum_ns() const { return sum_ns_.load(std::memory_order_relaxed); }
  uint64_t bucket(uint32_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Value (ns) at quantile q in [0,1]: the bound of the first bucket whose
  /// cumulative count reaches q * count. 0 when empty.
  uint64_t quantile_ns(double q) const;

  void add_bucket(uint32_t idx, uint64_t n) {
    if (idx >= kBuckets || n == 0) return;
    buckets_[idx].fetch_add(n, std::memory_order_relaxed);
    count_.fetch_add(n, std::memory_order_relaxed);
  }
  void add_sum(uint64_t sum_ns) {
    sum_ns_.fetch_add(sum_ns, std::memory_order_relaxed);
  }
  /// In-place zeroing (Registry::reset) — cached references stay valid.
  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_ns_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> sum_ns_{0};
  std::atomic<uint64_t> count_{0};
};

// Point-in-time samples; the unit of export, wire transfer, and merging.
struct CounterSample {
  std::string name;
  uint64_t value = 0;
  bool deterministic = true;
};
struct GaugeSample {
  std::string name;
  uint64_t value = 0;
};
/// Sparse sample of a Histogram: only occupied buckets, index-sorted.
struct HistogramSample {
  std::string name;
  std::vector<std::pair<uint32_t, uint64_t>> buckets;  ///< (index, count)
  uint64_t sum_ns = 0;
  uint64_t count() const {
    uint64_t n = 0;
    for (const auto& b : buckets) n += b.second;
    return n;
  }
};

/// A full registry snapshot (all vectors sorted by name) or, equally, a
/// delta between two snapshots — the difference is only how it was made.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// this − base, per metric name (names missing from base count from 0).
  /// Gauges are carried over as-is: a gauge is a level, not an increment.
  MetricsSnapshot delta_from(const MetricsSnapshot& base) const;
};

class Registry {
 public:
  static Registry& instance();

  /// Get-or-create by name. The deterministic flag is fixed at creation;
  /// later calls with a different flag keep the original.
  Counter& counter(std::string_view name, bool deterministic = true);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// The per-stage duration histogram
  /// ("synat_pipeline_parse_duration_seconds",
  /// "synat_driver_dispatch_duration_seconds", ...; observed in ns,
  /// exported in seconds). Array-indexed: hot path.
  Histogram& stage_histogram(StageId s) { return *stage_hist_[static_cast<size_t>(s)]; }

  MetricsSnapshot snapshot() const;
  /// Adds a delta (decoded worker telemetry) into this registry's
  /// counters and histograms; gauges are not merged.
  void merge(const MetricsSnapshot& delta);
  /// Zeroes every registered metric (forked workers shed inherited counts;
  /// tests isolate themselves). Registered names survive.
  void reset();

 private:
  Registry();

  struct CounterEntry {
    Counter c;
    bool deterministic = true;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<CounterEntry>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  Histogram* stage_hist_[kNumStages] = {};
};

inline Registry& registry() { return Registry::instance(); }

/// Name of stage `s`'s histogram: "synat_<category>_<stage>_duration_seconds".
std::string stage_histogram_name(StageId s);

}  // namespace synat::obs
