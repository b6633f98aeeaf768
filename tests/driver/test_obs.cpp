// Tests for the observability layer (DESIGN.md §3e): span tracer ring
// semantics, metrics registry snapshot/delta/merge algebra, the Chrome
// trace / Prometheus exporters, the Telemetry frame codec, and the
// cross-mode determinism contract (identical deterministic counters under
// --jobs 1, --jobs 4, and --isolate).
#include "synat/obs/export.h"
#include "synat/obs/metrics.h"
#include "synat/obs/obs.h"
#include "synat/obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "synat/corpus/corpus.h"
#include "synat/driver/codec.h"
#include "synat/driver/driver.h"

namespace synat {
namespace {

using obs::MetricsSnapshot;
using obs::SpanRecord;
using Buckets = std::vector<std::pair<uint32_t, uint64_t>>;

/// Every obs test leaves the process-global flags, tracer, and registry
/// the way it found them (off and empty); the registry's *values* are
/// zeroed but its registered names and metric addresses survive reset().
struct ObsTest : ::testing::Test {
  void SetUp() override {
    obs::set_flags(0);
    obs::Tracer::instance().reset();
  }
  void TearDown() override {
    obs::set_flags(0);
    obs::Tracer::instance().reset();
    obs::registry().reset();
  }
};

const obs::CounterSample* find_counter(const MetricsSnapshot& s,
                                       std::string_view name) {
  for (const obs::CounterSample& c : s.counters)
    if (c.name == name) return &c;
  return nullptr;
}

const obs::HistogramSample* find_hist(const MetricsSnapshot& s,
                                      std::string_view name) {
  for (const obs::HistogramSample& h : s.histograms)
    if (h.name == name) return &h;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Tracer

TEST_F(ObsTest, SpanScopeIsInertWhenDisabled) {
  uint64_t before = obs::registry().stage_histogram(obs::StageId::Parse).count();
  { obs::SpanScope span(obs::StageId::Parse); }
  EXPECT_TRUE(obs::Tracer::instance().drain().empty());
  EXPECT_EQ(obs::registry().stage_histogram(obs::StageId::Parse).count(),
            before);
}

TEST_F(ObsTest, TraceFlagRecordsOneSpanPerScope) {
  obs::set_flags(obs::kTraceFlag);
  { obs::SpanScope span(obs::StageId::Purity); }
  { obs::SpanScope span(obs::StageId::Blocks); }
  std::vector<SpanRecord> spans = obs::Tracer::instance().drain();
  ASSERT_EQ(spans.size(), 2u);
  // Same thread, sorted by start time: Purity opened first.
  EXPECT_EQ(spans[0].stage, static_cast<uint32_t>(obs::StageId::Purity));
  EXPECT_EQ(spans[1].stage, static_cast<uint32_t>(obs::StageId::Blocks));
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_EQ(spans[0].lane, 0u);
}

TEST_F(ObsTest, MetricsFlagFeedsStageHistogramWithoutTracing) {
  obs::set_flags(obs::kMetricsFlag);
  uint64_t before = obs::registry().stage_histogram(obs::StageId::Infer).count();
  { obs::SpanScope span(obs::StageId::Infer); }
  EXPECT_EQ(obs::registry().stage_histogram(obs::StageId::Infer).count(),
            before + 1);
  EXPECT_TRUE(obs::Tracer::instance().drain().empty());
}

TEST_F(ObsTest, DrainMovesSpansOutExactlyOnce) {
  obs::set_flags(obs::kTraceFlag);
  { obs::SpanScope span(obs::StageId::Parse); }
  EXPECT_EQ(obs::Tracer::instance().drain().size(), 1u);
  EXPECT_TRUE(obs::Tracer::instance().drain().empty());
}

TEST_F(ObsTest, InjectedSpansSortUnderTheirLane) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.inject(2, {{/*stage=*/0, /*lane=*/0, /*tid=*/1, 500, 10}});
  tracer.inject(1, {{/*stage=*/1, /*lane=*/0, /*tid=*/0, 900, 10},
                    {/*stage=*/2, /*lane=*/0, /*tid=*/0, 100, 10}});
  std::vector<SpanRecord> spans = tracer.drain();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].lane, 1u);
  EXPECT_EQ(spans[0].start_ns, 100u);  // within a lane+tid, by start
  EXPECT_EQ(spans[1].lane, 1u);
  EXPECT_EQ(spans[1].start_ns, 900u);
  EXPECT_EQ(spans[2].lane, 2u);
  EXPECT_EQ(spans[2].tid, 1u) << "inject preserves worker thread ordinals";
}

TEST_F(ObsTest, LaneNamesSurviveUntilReset) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_lane_name(0, "supervisor");
  tracer.set_lane_name(3, "worker corpus:nfq_prime");
  auto lanes = tracer.lane_names();
  ASSERT_EQ(lanes.size(), 2u);
  tracer.reset();
  EXPECT_TRUE(tracer.lane_names().empty());
}

// ---------------------------------------------------------------------------
// Registry

TEST_F(ObsTest, SnapshotIsSortedByName) {
  obs::registry().counter("synat_test_zzz_total").inc();
  obs::registry().counter("synat_test_aaa_total").inc();
  MetricsSnapshot s = obs::registry().snapshot();
  EXPECT_TRUE(std::is_sorted(
      s.counters.begin(), s.counters.end(),
      [](const auto& a, const auto& b) { return a.name < b.name; }));
  EXPECT_TRUE(std::is_sorted(
      s.histograms.begin(), s.histograms.end(),
      [](const auto& a, const auto& b) { return a.name < b.name; }));
}

TEST_F(ObsTest, DeltaSubtractsPerName) {
  obs::Counter& c = obs::registry().counter("synat_test_delta_total");
  c.inc(5);
  MetricsSnapshot base = obs::registry().snapshot();
  c.inc(3);
  MetricsSnapshot delta = obs::registry().snapshot().delta_from(base);
  const obs::CounterSample* s = find_counter(delta, "synat_test_delta_total");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->value, 3u);
}

TEST_F(ObsTest, MergeAddsCountersAndHistogramsButNotGauges) {
  MetricsSnapshot delta;
  delta.counters.push_back({"synat_test_merge_total", 7, true});
  obs::HistogramSample h;
  h.name = "synat_test_merge_duration_ns";
  h.buckets = {{0, 2}, {8, 1}};
  h.sum_ns = 123;
  delta.histograms.push_back(h);
  delta.gauges.push_back({"synat_jobs", 99});

  obs::registry().merge(delta);
  EXPECT_EQ(obs::registry().counter("synat_test_merge_total").value(), 7u);
  obs::Histogram& hist =
      obs::registry().histogram("synat_test_merge_duration_ns");
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_EQ(hist.sum_ns(), 123u);
  EXPECT_NE(obs::registry().gauge("synat_jobs").value(), 99u)
      << "a gauge is a level, not an increment; merge must skip it";
}

TEST_F(ObsTest, ResetZeroesValuesButKeepsAddresses) {
  obs::Counter& c = obs::registry().counter("synat_test_reset_total");
  c.inc(4);
  obs::registry().reset();
  EXPECT_EQ(c.value(), 0u) << "cached reference must still be live";
  c.inc();
  EXPECT_EQ(obs::registry().counter("synat_test_reset_total").value(), 1u);
  EXPECT_EQ(&c, &obs::registry().counter("synat_test_reset_total"));
}

TEST_F(ObsTest, DeterministicFlagIsFixedAtCreation) {
  obs::registry().counter("synat_test_det_total", false);
  obs::registry().counter("synat_test_det_total", true);  // ignored
  MetricsSnapshot s = obs::registry().snapshot();
  const obs::CounterSample* c = find_counter(s, "synat_test_det_total");
  ASSERT_NE(c, nullptr);
  EXPECT_FALSE(c->deterministic);
}

TEST_F(ObsTest, DeltaOfIdenticalSnapshotsIsAllZero) {
  obs::registry().counter("synat_test_idem_total").inc(9);
  obs::Histogram& h = obs::registry().histogram("synat_test_idem_duration_seconds");
  h.observe(123);
  MetricsSnapshot snap = obs::registry().snapshot();
  MetricsSnapshot delta = snap.delta_from(snap);
  // Every name survives (consumers can rely on the shape), every value is 0.
  ASSERT_EQ(delta.counters.size(), snap.counters.size());
  for (const obs::CounterSample& c : delta.counters) EXPECT_EQ(c.value, 0u);
  ASSERT_EQ(delta.histograms.size(), snap.histograms.size());
  for (const obs::HistogramSample& hs : delta.histograms) {
    EXPECT_EQ(hs.count(), 0u) << hs.name;
    EXPECT_EQ(hs.sum_ns, 0u) << hs.name;
  }
}

TEST_F(ObsTest, ResetBetweenSnapshotsClampsInsteadOfUnderflowing) {
  obs::Counter& c = obs::registry().counter("synat_test_clamp_total");
  c.inc(5);
  MetricsSnapshot base = obs::registry().snapshot();
  obs::registry().reset();  // a forked worker shedding inherited counts
  c.inc(2);
  MetricsSnapshot delta = obs::registry().snapshot().delta_from(base);
  const obs::CounterSample* s = find_counter(delta, "synat_test_clamp_total");
  ASSERT_NE(s, nullptr);
  // 2 − 5 would underflow to ~2^64; the delta clamps to zero so one reset
  // never fabricates astronomically large counter increments downstream.
  EXPECT_EQ(s->value, 0u);
}

TEST_F(ObsTest, MergeOfDisjointHistogramSetsCreatesWithoutDisturbing) {
  obs::Histogram& mine =
      obs::registry().histogram("synat_test_disjoint_a_duration_seconds");
  mine.observe(50);
  MetricsSnapshot delta;
  obs::HistogramSample h;
  h.name = "synat_test_disjoint_b_duration_seconds";
  h.buckets = {{3, 4}};
  h.sum_ns = 999;
  delta.histograms.push_back(h);
  obs::registry().merge(delta);
  // The unknown name is created with exactly the delta's contents; the
  // pre-existing disjoint histogram is untouched.
  obs::Histogram& theirs =
      obs::registry().histogram("synat_test_disjoint_b_duration_seconds");
  EXPECT_EQ(theirs.count(), 4u);
  EXPECT_EQ(theirs.sum_ns(), 999u);
  EXPECT_EQ(mine.count(), 1u);
  EXPECT_EQ(mine.sum_ns(), 50u);
}

TEST_F(ObsTest, MergeOfEmptyDeltaIsANoOp) {
  obs::registry().counter("synat_test_noop_total").inc(3);
  MetricsSnapshot before = obs::registry().snapshot();
  obs::registry().merge(MetricsSnapshot{});
  MetricsSnapshot after = obs::registry().snapshot();
  EXPECT_EQ(before.counters.size(), after.counters.size());
  EXPECT_EQ(find_counter(after, "synat_test_noop_total")->value, 3u);
  // Zero-valued counters in a delta must not register phantom names either.
  MetricsSnapshot zeros;
  zeros.counters.push_back({"synat_test_phantom_total", 0, true});
  obs::registry().merge(zeros);
  EXPECT_EQ(find_counter(obs::registry().snapshot(),
                         "synat_test_phantom_total"),
            nullptr);
}

TEST_F(ObsTest, LabeledCounterFamiliesShareOnePrometheusHeader) {
  MetricsSnapshot s;
  // Name-sorted, as Registry::snapshot() guarantees: labeled variants of
  // one family are adjacent.
  s.counters.push_back({"synat_test_rule{rule=\"reduce\"}", 2, true});
  s.counters.push_back({"synat_test_rule{rule=\"window\"}", 5, true});
  std::string prom = obs::to_prometheus(s);
  // The `_total` suffix lands on the base name, before the labels, and the
  // HELP/TYPE header appears once for the family.
  EXPECT_NE(prom.find("synat_test_rule_total{rule=\"reduce\"} 2"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("synat_test_rule_total{rule=\"window\"} 5"),
            std::string::npos);
  size_t first = prom.find("# TYPE synat_test_rule_total counter");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(prom.find("# TYPE synat_test_rule_total counter", first + 1),
            std::string::npos)
      << "one TYPE header per family, not per labeled variant";
}

TEST_F(ObsTest, StageHistogramNamesEncodeCategory) {
  MetricsSnapshot s = obs::registry().snapshot();
  EXPECT_NE(find_hist(s, "synat_pipeline_parse_duration_seconds"), nullptr);
  EXPECT_NE(find_hist(s, "synat_driver_dispatch_duration_seconds"), nullptr);
}

// ---------------------------------------------------------------------------
// Exporters

std::vector<SpanRecord> sample_spans(uint64_t base_ns) {
  return {
      {static_cast<uint32_t>(obs::StageId::Parse), 0, 0, base_ns, 1500},
      {static_cast<uint32_t>(obs::StageId::Infer), 0, 0, base_ns + 2000, 500},
      {static_cast<uint32_t>(obs::StageId::Analyze), 1, 0, base_ns + 100, 3000},
  };
}

TEST_F(ObsTest, ChromeTraceHasMetadataAndCompleteEvents) {
  std::string json = obs::to_chrome_trace(
      sample_spans(10'000), {{0, "supervisor"}, {1, "worker x"}});
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"supervisor\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"parse\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"pipeline\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"driver\""), std::string::npos);
  // Re-based: the earliest span starts at ts 0.000 µs; 1500ns dur = 1.500.
  EXPECT_NE(json.find("\"ts\":0.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1.500"), std::string::npos);
}

TEST_F(ObsTest, ChromeTraceIsInvariantUnderClockBaseShift) {
  auto lanes = std::vector<std::pair<uint32_t, std::string>>{{0, "main"}};
  EXPECT_EQ(obs::to_chrome_trace(sample_spans(5'000), lanes),
            obs::to_chrome_trace(sample_spans(987'654'321), lanes))
      << "timestamps must be re-based to the earliest span";
}

// A thread's ring keeps its newest kRingCapacity spans and counts the
// ones it overwrites; the exported trace carries that count, so a trace
// that lost spans says so.
TEST_F(ObsTest, TruncatedTraceSaysSo) {
  obs::Tracer& tracer = obs::Tracer::instance();
  for (size_t i = 0; i < obs::Tracer::kRingCapacity + 10; ++i)
    tracer.record(obs::StageId::Parse, 1000 * i, 500);
  const std::vector<SpanRecord> spans = tracer.drain();
  EXPECT_EQ(spans.size(), obs::Tracer::kRingCapacity);
  const std::string json =
      obs::to_chrome_trace(spans, tracer.lane_names(), tracer.dropped());
  const std::string field = "\"otherData\":{\"spans_dropped\":";
  const size_t at = json.find(field);
  ASSERT_NE(at, std::string::npos) << json.substr(json.size() - 200);
  EXPECT_GE(std::stoull(json.substr(at + field.size())), 10u);
  // A complete trace reports none.
  EXPECT_NE(obs::to_chrome_trace(sample_spans(0), {}).find(field + "0}"),
            std::string::npos);
}

// A trace counts its workers' drops beside its own, each once: a worker's
// registry delta carries its drops into the counter, and count_dropped()
// adds only the own drops it has not added yet.
TEST_F(ObsTest, CountDroppedAddsOwnDropsOnceBesideWorkers) {
  obs::registry().reset();
  obs::Tracer& tracer = obs::Tracer::instance();
  for (size_t i = 0; i < obs::Tracer::kRingCapacity + 10; ++i)
    tracer.record(obs::StageId::Parse, 1000 * i, 500);
  EXPECT_EQ(tracer.count_dropped(), 10u);
  MetricsSnapshot worker;
  worker.counters.push_back({"synat_trace_spans_dropped_total", 25, false});
  obs::registry().merge(worker);
  EXPECT_EQ(tracer.count_dropped(), 35u);
  tracer.record(obs::StageId::Parse, 0, 500);
  EXPECT_EQ(tracer.count_dropped(), 36u);
  EXPECT_EQ(tracer.count_dropped(), 36u);
}

TEST_F(ObsTest, PrometheusExposesCountersGaugesHistograms) {
  MetricsSnapshot s;
  s.counters.push_back({"synat_cache_hits_total", 12, true});
  s.counters.push_back({"synat_watchdog_trips_total", 1, false});
  s.gauges.push_back({"synat_jobs", 4});
  obs::HistogramSample h;
  h.name = "synat_pipeline_parse_duration_seconds";
  // Three 3ns samples (exact below 32ns) and one of 1.5s, whose bucket
  // bound is 1.509949439s (2^30 + 13 * 2^25 - 1 ns).
  h.buckets = {{3, 3}, {obs::Histogram::bucket_index(1'500'000'000), 1}};
  h.sum_ns = 42;
  s.histograms.push_back(h);
  obs::HistogramSample empty;
  empty.name = "synat_serve_rpc_request_latency_seconds";
  s.histograms.push_back(empty);

  std::string prom = obs::to_prometheus(s);
  EXPECT_NE(prom.find("# TYPE synat_cache_hits_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("synat_cache_hits_total 12"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE synat_jobs gauge"), std::string::npos);
  EXPECT_NE(prom.find("synat_jobs 4"), std::string::npos);
  // Nondeterministic counters are flagged in HELP so comparators skip them.
  size_t help = prom.find("# HELP synat_watchdog_trips_total");
  ASSERT_NE(help, std::string::npos);
  EXPECT_NE(prom.find("(nondeterministic)", help), std::string::npos);
  // Every histogram family renders one way: cumulative buckets at the
  // bounds (in seconds) of the occupied buckets only, then +Inf, the sum
  // as exact seconds, and the count.
  EXPECT_NE(prom.find("synat_pipeline_parse_duration_seconds_bucket"
                      "{le=\"0.000000003\"} 3\n"
                      "synat_pipeline_parse_duration_seconds_bucket"
                      "{le=\"1.509949439\"} 4\n"
                      "synat_pipeline_parse_duration_seconds_bucket"
                      "{le=\"+Inf\"} 4\n"
                      "synat_pipeline_parse_duration_seconds_sum "
                      "0.000000042\n"
                      "synat_pipeline_parse_duration_seconds_count 4\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE synat_serve_rpc_request_latency_seconds "
                      "histogram\n"
                      "synat_serve_rpc_request_latency_seconds_bucket"
                      "{le=\"+Inf\"} 0\n"
                      "synat_serve_rpc_request_latency_seconds_sum "
                      "0.000000000\n"
                      "synat_serve_rpc_request_latency_seconds_count 0\n"),
            std::string::npos)
      << prom;
  EXPECT_EQ(prom.find("summary"), std::string::npos) << prom;
}

// ---------------------------------------------------------------------------
// Telemetry codec (SYNF frame type 4 payload)

MetricsSnapshot sample_delta() {
  MetricsSnapshot d;
  d.counters.push_back({"synat_procs_analyzed_total", 3, true});
  d.counters.push_back({"synat_worker_heartbeats_total", 2, false});
  obs::HistogramSample h;
  h.name = "synat_pipeline_infer_duration_ns";
  h.buckets = {{2, 5}};
  h.sum_ns = 777;
  d.histograms.push_back(h);
  return d;
}

TEST_F(ObsTest, TelemetryRoundTripsSpansAndMetrics) {
  std::vector<SpanRecord> spans = sample_spans(1'000);
  std::string wire;
  driver::codec::put_telemetry(wire, spans, sample_delta());

  driver::codec::Reader in(wire);
  std::vector<SpanRecord> spans2;
  MetricsSnapshot delta2;
  ASSERT_TRUE(driver::codec::get_telemetry(in, spans2, delta2));
  EXPECT_TRUE(in.at_end());
  ASSERT_EQ(spans2.size(), spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans2[i].stage, spans[i].stage);
    EXPECT_EQ(spans2[i].tid, spans[i].tid);
    EXPECT_EQ(spans2[i].start_ns, spans[i].start_ns);
    EXPECT_EQ(spans2[i].dur_ns, spans[i].dur_ns);
    EXPECT_EQ(spans2[i].lane, 0u) << "lane is assigned by the supervisor";
  }
  ASSERT_EQ(delta2.counters.size(), 2u);
  EXPECT_EQ(delta2.counters[0].name, "synat_procs_analyzed_total");
  EXPECT_EQ(delta2.counters[0].value, 3u);
  EXPECT_TRUE(delta2.counters[0].deterministic);
  EXPECT_FALSE(delta2.counters[1].deterministic);
  ASSERT_EQ(delta2.histograms.size(), 1u);
  EXPECT_EQ(delta2.histograms[0].buckets, (Buckets{{2, 5}}));
  EXPECT_EQ(delta2.histograms[0].sum_ns, 777u);
}

TEST_F(ObsTest, TelemetryRejectsTruncation) {
  std::string wire;
  driver::codec::put_telemetry(wire, sample_spans(1'000), sample_delta());
  // Every proper prefix must fail decode, never crash or mis-parse.
  for (size_t cut = 0; cut < wire.size(); cut += 7) {
    driver::codec::Reader in(std::string_view(wire).substr(0, cut));
    std::vector<SpanRecord> spans;
    MetricsSnapshot delta;
    EXPECT_FALSE(driver::codec::get_telemetry(in, spans, delta))
        << "prefix of " << cut << " bytes decoded";
  }
}

TEST_F(ObsTest, TelemetryRejectsOversizedSpanCount) {
  std::string wire;
  driver::codec::put_u64(wire, driver::codec::kMaxTelemetrySpans + 1);
  driver::codec::Reader in(wire);
  std::vector<SpanRecord> spans;
  MetricsSnapshot delta;
  EXPECT_FALSE(driver::codec::get_telemetry(in, spans, delta));
}

TEST_F(ObsTest, TelemetryRejectsUnknownStageAndBadBucketCount) {
  std::string wire;
  driver::codec::put_u64(wire, 1);  // one span
  driver::codec::put_u32(wire, static_cast<uint32_t>(obs::kNumStages));
  driver::codec::put_u32(wire, 0);
  driver::codec::put_u64(wire, 0);
  driver::codec::put_u64(wire, 0);
  {
    driver::codec::Reader in(wire);
    std::vector<SpanRecord> spans;
    MetricsSnapshot delta;
    EXPECT_FALSE(driver::codec::get_telemetry(in, spans, delta));
  }
  // One histogram whose bucket indices are out of range, or not sorted.
  for (const Buckets& bad :
       {Buckets{{obs::Histogram::kBuckets, 1}}, Buckets{{9, 1}, {4, 1}}}) {
    wire.clear();
    driver::codec::put_u64(wire, 0);  // no spans
    driver::codec::put_u64(wire, 0);  // no counters
    driver::codec::put_u64(wire, 1);  // one histogram
    driver::codec::put_str(wire, "synat_pipeline_parse_duration_seconds");
    driver::codec::put_u64(wire, 0);  // sum
    driver::codec::put_u64(wire, bad.size());
    for (const auto& [idx, n] : bad) {
      driver::codec::put_u32(wire, idx);
      driver::codec::put_u64(wire, n);
    }
    driver::codec::Reader in(wire);
    std::vector<SpanRecord> spans;
    MetricsSnapshot delta;
    EXPECT_FALSE(driver::codec::get_telemetry(in, spans, delta));
  }
}

// ---------------------------------------------------------------------------
// Cross-mode determinism: the ISSUE's contract that deterministic counters
// are identical under --jobs 1, --jobs N, and --isolate. Worker-dispatch
// bookkeeping (synat_worker_*) legitimately differs between the in-process
// and isolated drivers and is excluded, exactly as the CI comparator does.

std::vector<driver::ProgramInput> small_corpus() {
  std::vector<driver::ProgramInput> inputs;
  for (const char* name : {"nfq_prime", "semaphore_down", "michael_malloc"}) {
    const corpus::Entry& e = corpus::get(name);
    driver::ProgramInput in;
    in.name = "corpus:" + std::string(e.name);
    in.source = std::string(e.source);
    for (auto c : e.counted_cas) in.opts.counted_cas.emplace_back(c);
    inputs.push_back(std::move(in));
  }
  return inputs;
}

std::vector<obs::CounterSample> comparable_counters(const MetricsSnapshot& s) {
  std::vector<obs::CounterSample> out;
  for (const obs::CounterSample& c : s.counters)
    if (c.deterministic && c.name.rfind("synat_worker_", 0) != 0)
      out.push_back(c);
  return out;
}

MetricsSnapshot run_mode(unsigned jobs, bool isolate) {
  driver::DriverOptions opts;
  opts.jobs = jobs;
  opts.isolate = isolate;
  driver::BatchDriver drv(opts);
  driver::BatchReport r = drv.run(small_corpus());
  return r.metrics.telemetry;
}

TEST_F(ObsTest, DeterministicCountersAgreeAcrossJobsAndIsolate) {
  std::vector<obs::CounterSample> serial = comparable_counters(run_mode(1, false));
  std::vector<obs::CounterSample> parallel = comparable_counters(run_mode(4, false));
  std::vector<obs::CounterSample> isolated = comparable_counters(run_mode(2, true));

  ASSERT_FALSE(serial.empty());
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(serial.size(), isolated.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].name, parallel[i].name);
    EXPECT_EQ(serial[i].value, parallel[i].value)
        << serial[i].name << " differs between --jobs 1 and --jobs 4";
    EXPECT_EQ(serial[i].name, isolated[i].name);
    EXPECT_EQ(serial[i].value, isolated[i].value)
        << serial[i].name << " differs between --jobs 1 and --isolate";
  }
  // The run actually analyzed something; this is not a vacuous comparison.
  const obs::CounterSample* procs = nullptr;
  for (const obs::CounterSample& c : serial)
    if (c.name == "synat_procs_analyzed_total") procs = &c;
  ASSERT_NE(procs, nullptr);
  EXPECT_GT(procs->value, 0u);
}

TEST_F(ObsTest, PipelineStageCountsAgreeBetweenInProcessAndIsolate) {
  obs::set_flags(obs::kMetricsFlag);
  MetricsSnapshot serial = run_mode(1, false);
  MetricsSnapshot isolated = run_mode(2, true);
  obs::set_flags(0);

  // Only pipeline-category histograms are mode-invariant (the isolated run
  // adds its supervisor's driver stages, such as dispatch).
  for (const obs::HistogramSample& h : serial.histograms) {
    if (h.name.rfind("synat_pipeline_", 0) != 0) continue;
    const obs::HistogramSample* other = find_hist(isolated, h.name);
    ASSERT_NE(other, nullptr) << h.name;
    EXPECT_EQ(h.count(), other->count()) << h.name;
  }
  const obs::HistogramSample* parse =
      find_hist(serial, "synat_pipeline_parse_duration_seconds");
  ASSERT_NE(parse, nullptr);
  EXPECT_GT(parse->count(), 0u);
}

}  // namespace
}  // namespace synat
