#include "synat/obs/metrics.h"

#include <algorithm>

namespace synat::obs {

Registry& Registry::instance() {
  static Registry* r = new Registry();  // leaked: usable during teardown
  return *r;
}

Registry::Registry() {
  // Eagerly register the well-known metric set so every run exports the
  // same names regardless of which code paths fired; the JSON counters
  // section and cross-mode comparisons then never see present-vs-absent
  // differences.
  static constexpr struct {
    const char* name;
    bool deterministic;
  } kCounters[] = {
      {"synat_programs_total", true},
      {"synat_procs_analyzed_total", true},
      {"synat_variants_generated_total", true},
      // Conflict-analysis work (infer.cpp): alias-index candidates, the
      // candidates may_alias rejects, and exclusion-theorem checks.
      {"synat_alias_candidates_total", true},
      {"synat_alias_rejected_total", true},
      {"synat_exclusion_checks_total", true},
      {"synat_parse_recovered_total", true},
      {"synat_degraded_total", true},
      {"synat_cache_hits_total", true},
      {"synat_cache_misses_total", true},
      {"synat_cache_rejected_total", true},
      {"synat_cache_inserts_total", true},
      {"synat_worker_dispatches_total", true},
      {"synat_worker_results_total", true},
      {"synat_worker_retries_total", true},
      {"synat_worker_crashes_total", true},
      {"synat_watchdog_arms_total", true},
      {"synat_watchdog_trips_total", false},
      {"synat_worker_heartbeats_total", false},
      {"synat_trace_spans_dropped_total", false},
      {"synat_events_dropped_total", false},
      // Serve counters are non-deterministic by design: their values depend
      // on client arrival order, so they are exported live (Prometheus /
      // status RPC) but never enter the report's deterministic counters
      // section.
      {"synat_serve_requests_total", false},
      {"synat_serve_invalid_total", false},
      {"synat_serve_rejected_total", false},
      {"synat_serve_cache_hits_total", false},
      {"synat_serve_cache_misses_total", false},
      {"synat_serve_procedures_reanalyzed_total", false},
      {"synat_serve_worker_crashes_total", false},
      {"synat_serve_worker_timeouts_total", false},
      {"synat_serve_worker_oom_kills_total", false},
      {"synat_serve_worker_retries_total", false},
  };
  for (const auto& c : kCounters) counter(c.name, c.deterministic);
  gauge("synat_jobs");
  gauge("synat_serve_in_flight");
  for (size_t i = 0; i < kNumStages; ++i)
    stage_hist_[i] = &histogram(stage_histogram_name(static_cast<StageId>(i)));
  // Latency sources: per-RPC latency in serve (the status RPC's
  // p50/p95/p99), per-program latency in the batch driver.
  histogram("synat_serve_rpc_request_latency_seconds");
  histogram("synat_driver_program_latency_seconds");
}

std::string stage_histogram_name(StageId s) {
  std::string name = "synat_";
  name += stage_category(s);
  name += '_';
  name += stage_name(s);
  name += "_duration_seconds";
  return name;
}

uint64_t Histogram::quantile_ns(double q) const {
  uint64_t total = count();
  if (total == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(total));
  if (target == 0) target = 1;
  uint64_t cum = 0;
  for (uint32_t i = 0; i < kBuckets; ++i) {
    cum += bucket(i);
    if (cum >= target) return bucket_bound(i);
  }
  return bucket_bound(kBuckets - 1);
}

Counter& Registry::counter(std::string_view name, bool deterministic) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    auto entry = std::make_unique<CounterEntry>();
    entry->deterministic = deterministic;
    it = counters_.emplace(std::string(name), std::move(entry)).first;
  }
  return it->second->c;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  return *it->second;
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, entry] : counters_)
    snap.counters.push_back({name, entry->c.value(), entry->deterministic});
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_)
    snap.gauges.push_back({name, g->value()});
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSample& s = snap.histograms.emplace_back();
    s.name = name;
    s.sum_ns = h->sum_ns();
    // Most histograms are empty in a run without --metrics-out/--trace-out,
    // and run() snapshots twice per call: skip their 1920 buckets.
    if (h->count() == 0) continue;
    for (uint32_t i = 0; i < Histogram::kBuckets; ++i)
      if (uint64_t n = h->bucket(i); n != 0) s.buckets.emplace_back(i, n);
  }
  // std::map iteration is already name-sorted; the ordering contract of
  // MetricsSnapshot is kept explicit here for delta_from and exporters.
  return snap;
}

void Registry::merge(const MetricsSnapshot& delta) {
  for (const auto& c : delta.counters)
    if (c.value != 0) counter(c.name, c.deterministic).inc(c.value);
  for (const auto& s : delta.histograms) {
    Histogram& h = histogram(s.name);
    for (const auto& [idx, n] : s.buckets) h.add_bucket(idx, n);
    h.add_sum(s.sum_ns);
  }
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : counters_) {
    (void)name;
    entry->c.reset();
  }
  for (auto& [name, g] : gauges_) {
    (void)name;
    g->set(0);
  }
  for (auto& [name, h] : histograms_) {
    (void)name;
    h->reset();
  }
}

MetricsSnapshot MetricsSnapshot::delta_from(const MetricsSnapshot& base) const {
  MetricsSnapshot out;
  out.gauges = gauges;
  auto base_counter = [&](const std::string& name) -> uint64_t {
    auto it = std::lower_bound(
        base.counters.begin(), base.counters.end(), name,
        [](const CounterSample& c, const std::string& n) { return c.name < n; });
    return (it != base.counters.end() && it->name == name) ? it->value : 0;
  };
  out.counters.reserve(counters.size());
  for (const auto& c : counters) {
    uint64_t b = base_counter(c.name);
    out.counters.push_back({c.name, c.value >= b ? c.value - b : 0,
                            c.deterministic});
  }
  static const HistogramSample kEmpty;
  auto base_hist = [&](const std::string& name) -> const HistogramSample& {
    auto it = std::lower_bound(base.histograms.begin(), base.histograms.end(),
                               name,
                               [](const HistogramSample& h, const std::string& n) {
                                 return h.name < n;
                               });
    return (it != base.histograms.end() && it->name == name) ? *it : kEmpty;
  };
  out.histograms.reserve(histograms.size());
  for (const auto& h : histograms) {
    HistogramSample& d = out.histograms.emplace_back();
    d.name = h.name;
    const HistogramSample& b = base_hist(h.name);
    auto bi = b.buckets.begin();
    for (const auto& [idx, n] : h.buckets) {
      while (bi != b.buckets.end() && bi->first < idx) ++bi;
      const uint64_t bn =
          bi != b.buckets.end() && bi->first == idx ? bi->second : 0;
      if (n > bn) d.buckets.emplace_back(idx, n - bn);
    }
    d.sum_ns = h.sum_ns >= b.sum_ns ? h.sum_ns - b.sum_ns : 0;
  }
  return out;
}

}  // namespace synat::obs
