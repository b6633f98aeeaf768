// Integration tests for the batch driver: the determinism and cache
// guarantees the CLI and benches rely on, checked over the whole corpus.
#include "synat/driver/driver.h"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>

#include "gen.h"
#include "synat/corpus/corpus.h"
#include "synat/obs/events.h"
#include "synat/obs/obs.h"

namespace synat::driver {
namespace {

std::vector<ProgramInput> corpus_inputs() {
  std::vector<ProgramInput> inputs;
  for (const corpus::Entry& e : corpus::all()) {
    ProgramInput in;
    in.name = "corpus:" + std::string(e.name);
    in.source = std::string(e.source);
    for (auto c : e.counted_cas) in.opts.counted_cas.emplace_back(c);
    inputs.push_back(std::move(in));
  }
  return inputs;
}

std::string run_json(DriverOptions opts, ResultCache* cache = nullptr) {
  BatchDriver drv(opts, cache);
  return to_json(drv.run(corpus_inputs()));
}

TEST(BatchDriver, JsonDeterministicAcrossJobCounts) {
  DriverOptions serial;
  std::string baseline = run_json(serial);
  for (unsigned jobs : {2u, 8u}) {
    DriverOptions opts;
    opts.jobs = jobs;
    EXPECT_EQ(run_json(opts), baseline) << "--jobs " << jobs;
  }
}

// The work-count gate: one conflict universe per program. Every program is
// parsed once and every reported variant generated once, at any job count
// and with the cache cold. Counts, not wall time, so CI can gate on them.
TEST(BatchDriver, OneParseAndOneVariantGenerationPerProgram) {
  struct Mode {
    unsigned jobs;
    bool cache;
  };
  obs::set_flags(obs::kMetricsFlag);
  for (Mode mode : {Mode{1, false}, Mode{4, false}, Mode{4, true}}) {
    DriverOptions opts;
    opts.jobs = mode.jobs;
    ResultCache cold;
    BatchDriver drv(opts, mode.cache ? &cold : nullptr);
    BatchReport r = drv.run(corpus_inputs());
    uint64_t parses = 0, generated = 0;
    for (const obs::HistogramSample& h : r.metrics.telemetry.histograms)
      if (h.name == "synat_pipeline_parse_duration_seconds") parses = h.count();
    for (const obs::CounterSample& c : r.metrics.telemetry.counters)
      if (c.name == "synat_variants_generated_total") generated = c.value;
    std::string what = "jobs " + std::to_string(mode.jobs) +
                       (mode.cache ? ", cold cache" : ", no cache");
    EXPECT_EQ(parses, corpus::all().size()) << what;
    EXPECT_EQ(generated, r.metrics.variants) << what;
    EXPECT_EQ(r.metrics.variants, 61u) << what;
  }
  obs::set_flags(0);
}

// Everything up to the metrics block; the cache_hits/cache_misses counters
// legitimately differ between a cold and a warm run.
std::string analysis_part(const std::string& json) {
  size_t cut = json.find("\"metrics\"");
  EXPECT_NE(cut, std::string::npos);
  return json.substr(0, cut);
}

TEST(BatchDriver, WarmCacheRunIsByteIdenticalAndAllHits) {
  DriverOptions opts;
  ResultCache cache;
  std::string cold = run_json(opts, &cache);
  size_t cold_hits = cache.hits();
  std::string warm = run_json(opts, &cache);
  EXPECT_EQ(analysis_part(warm), analysis_part(cold));
  size_t warm_hits = cache.hits() - cold_hits;
  EXPECT_EQ(warm_hits, cache.misses());  // every cold miss is a warm hit
  EXPECT_GT(warm_hits, 0u);

  DriverOptions plain;
  // Caching never changes verdicts.
  EXPECT_EQ(analysis_part(run_json(plain)), analysis_part(cold));
}

TEST(BatchDriver, CachePersistedAcrossProcessesViaSnapshot) {
  std::string path = testing::TempDir() + "synat_driver_test.synatcache";
  DriverOptions opts;
  {
    ResultCache cache;
    run_json(opts, &cache);
    ASSERT_TRUE(cache.save(path));
  }
  ResultCache reloaded;
  ASSERT_TRUE(reloaded.load(path));
  run_json(opts, &reloaded);
  EXPECT_EQ(reloaded.misses(), 0u);  // snapshot served every procedure
  std::remove(path.c_str());
}

// One large program: a seed-1 generated program with the generator's
// counted CAS set, as perfbench analyzes it. With spare workers the pool
// builds its universe and classifies its procedures in parallel.
ProgramInput generated_input(
    size_t procs, perfbench::AliasMode mode = perfbench::AliasMode::Disjoint) {
  perfbench::GenOptions o;
  o.procs = procs;
  o.seed = 1;
  o.mode = mode;
  perfbench::GenProgram gen(o);
  ProgramInput in;
  in.name = "gen:" + std::to_string(procs);
  in.source = gen.render();
  for (const std::string& c : gen.counted()) in.opts.counted_cas.push_back(c);
  return in;
}

uint64_t telemetry_counter(const BatchReport& r, const std::string& name) {
  for (const obs::CounterSample& c : r.metrics.telemetry.counters)
    if (c.name == name) return c.value;
  ADD_FAILURE() << "no counter " << name;
  return 0;
}

TEST(BatchDriver, LargeProgramIdenticalAcrossJobCounts) {
  const ProgramInput base = generated_input(160);
  for (bool provenance : {false, true}) {
    ProgramInput in = base;
    in.opts.provenance = provenance;
    RenderOptions ropts;
    ropts.provenance = provenance;
    // Per job count: uncached, then a cold and a warm cached run.
    std::vector<std::string> docs[2];
    for (unsigned jobs : {1u, 4u}) {
      DriverOptions opts;
      opts.jobs = jobs;
      std::vector<std::string>& out = docs[jobs == 1 ? 0 : 1];
      out.push_back(to_json(BatchDriver(opts).run({in}), ropts));
      ResultCache cache;
      BatchDriver cached(opts, &cache);
      out.push_back(to_json(cached.run({in}), ropts));
      out.push_back(to_json(cached.run({in}), ropts));
      EXPECT_EQ(cache.misses(), 160u) << "jobs " << jobs;
    }
    for (size_t k = 0; k < docs[0].size(); ++k)
      EXPECT_EQ(docs[0][k], docs[1][k])
          << "run " << k << (provenance ? ", provenance" : "");
  }
}

TEST(BatchDriver, LargeProgramDegradesTheSameProceduresAcrossJobCounts) {
  ProgramInput in = generated_input(160);
  in.opts.variant_opts.max_variants = 1;
  std::vector<std::string> degraded[2];
  std::string docs[2];
  for (unsigned jobs : {1u, 4u}) {
    DriverOptions opts;
    opts.jobs = jobs;
    BatchReport r = BatchDriver(opts).run({in});
    for (const auto& p : r.programs.at(0).procs)
      if (p->degraded) degraded[jobs == 1 ? 0 : 1].push_back(p->name);
    docs[jobs == 1 ? 0 : 1] = to_json(r);
  }
  EXPECT_FALSE(degraded[0].empty());
  EXPECT_EQ(degraded[0], degraded[1]);
  EXPECT_EQ(docs[0], docs[1]);
}

TEST(BatchDriver, LargeProgramWorkCountsEqualAcrossJobCounts) {
  const ProgramInput in = generated_input(160);
  const char* names[] = {
      "synat_alias_candidates_total", "synat_exclusion_checks_total",
      "synat_variants_generated_total", "synat_procs_analyzed_total"};
  std::vector<uint64_t> counts[2];
  for (unsigned jobs : {1u, 4u}) {
    DriverOptions opts;
    opts.jobs = jobs;
    BatchReport r = BatchDriver(opts).run({in});
    for (const char* name : names)
      counts[jobs == 1 ? 0 : 1].push_back(telemetry_counter(r, name));
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(counts[0][3], 160u);  // every procedure classified once
}

// The wide event's stage latencies are wall time on the program's own
// thread, even when pool helpers classify and render its procedures. Real
// clock: the virtual clock would zero them. In shared alias mode,
// classification is most of the work, so summing the helpers' call times
// instead would exceed the wall time of the whole run.
TEST(BatchDriver, ProgramLatencyIsWallTimeWithHelpers) {
  if (obs::virtual_clock()) GTEST_SKIP() << "virtual clock zeroes latencies";
  const std::string path = testing::TempDir() + "synat_latency_events.jsonl";
  std::remove(path.c_str());
  uint64_t wall_ns = 0;
  {
    obs::EventLogOptions eopts;
    eopts.path = path;
    obs::EventLog events(eopts);
    DriverOptions opts;
    opts.jobs = 4;
    opts.events = &events;
    BatchDriver drv(opts);
    const std::vector<ProgramInput> inputs = {
        generated_input(1280, perfbench::AliasMode::Shared)};
    const auto start = std::chrono::steady_clock::now();
    drv.run(inputs);
    wall_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const size_t at = line.find("\"dur_ns\":");
  ASSERT_NE(at, std::string::npos) << line;
  uint64_t dur_ns = 0;
  std::istringstream(line.substr(at + 9)) >> dur_ns;
  EXPECT_GT(dur_ns, 0u);
  EXPECT_LE(dur_ns, wall_ns);
  std::remove(path.c_str());
}

TEST(BatchDriver, OptionFingerprintSeparatesConfigurations) {
  atomicity::InferOptions a;
  atomicity::InferOptions b = a;
  b.use_window_rule = !b.use_window_rule;
  EXPECT_NE(options_fingerprint(a), options_fingerprint(b));
  atomicity::InferOptions c = a;
  c.counted_cas = {"c", "b"};
  atomicity::InferOptions d = a;
  d.counted_cas = {"b", "c", "b"};  // order/duplicates don't matter
  EXPECT_EQ(options_fingerprint(c), options_fingerprint(d));
  EXPECT_NE(options_fingerprint(a), options_fingerprint(c));
}

TEST(BatchDriver, ParseErrorReportedPerProgram) {
  std::vector<ProgramInput> inputs;
  inputs.push_back({"bad.synl", "proc P( {", {}, {}});
  ProgramInput good;
  good.name = "good.synl";
  good.source = std::string(corpus::get("nfq_prime").source);
  inputs.push_back(std::move(good));

  BatchDriver drv(DriverOptions{});
  BatchReport report = drv.run(inputs);
  ASSERT_EQ(report.programs.size(), 2u);
  EXPECT_EQ(report.programs[0].status, ProgramStatus::ParseError);
  EXPECT_TRUE(report.programs[0].procs.empty());
  EXPECT_FALSE(report.programs[0].diagnostics.empty());
  EXPECT_EQ(report.programs[1].status, ProgramStatus::Ok);
  EXPECT_EQ(report.metrics.parse_errors, 1u);
  EXPECT_EQ(report.exit_code(), 3);
}

TEST(BatchDriver, ExitCodeConvention) {
  {
    ProgramInput good;
    good.name = "good";
    good.source = std::string(corpus::get("nfq_prime").source);
    BatchDriver drv(DriverOptions{});
    BatchReport r = drv.run({good});
    EXPECT_EQ(r.exit_code(), 0);
  }
  {
    ProgramInput racy;
    racy.name = "racy";
    racy.source = std::string(corpus::get("racy_counter").source);
    BatchDriver drv(DriverOptions{});
    BatchReport r = drv.run({racy});
    EXPECT_GT(r.procs_not_atomic(), 0u);
    EXPECT_EQ(r.exit_code(), 1);
  }
}

TEST(BatchDriver, SarifListsRulesAndNonAtomicResults) {
  BatchDriver drv(DriverOptions{});
  BatchReport report = drv.run(corpus_inputs());
  std::string sarif = to_sarif(report);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("SYNAT001"), std::string::npos);  // non-atomic proc
  EXPECT_NE(sarif.find("SYNAT002"), std::string::npos);  // parse error rule
  EXPECT_NE(sarif.find("\"results\""), std::string::npos);
  EXPECT_NE(sarif.find("racy_counter"), std::string::npos);
}

TEST(BatchDriver, MetricsCountCorpus) {
  BatchDriver drv(DriverOptions{});
  BatchReport report = drv.run(corpus_inputs());
  EXPECT_EQ(report.metrics.programs, corpus::all().size());
  EXPECT_GT(report.metrics.procedures, report.metrics.programs);
  EXPECT_GE(report.metrics.variants, report.metrics.procedures);
  EXPECT_EQ(report.metrics.parse_errors, 0u);
  EXPECT_EQ(report.metrics.internal_errors, 0u);
}

// --timings renders the stage histograms of the run's registry delta,
// which the metrics flag fills (the CLI sets it for --timings).
TEST(BatchDriver, TimingsRenderOnlyWhenRequested) {
  obs::set_flags(obs::kMetricsFlag);
  BatchDriver drv(DriverOptions{});
  BatchReport report = drv.run(corpus_inputs());
  obs::set_flags(0);
  uint64_t parses = 0;
  for (const obs::HistogramSample& h : report.metrics.telemetry.histograms)
    if (h.name == obs::stage_histogram_name(obs::StageId::Parse))
      parses = h.count();
  EXPECT_EQ(parses, corpus::all().size());
  std::string plain = to_json(report);
  EXPECT_EQ(plain.find("\"stages\""), std::string::npos);
  RenderOptions ropts;
  ropts.timings = true;
  std::string timed = to_json(report, ropts);
  EXPECT_NE(timed.find("\"stages\""), std::string::npos);
}

// --- Failure containment (DESIGN.md §3c) ----------------------------------

// One procedure fails to parse, one is fine. Recovery must keep the
// program's status Ok, analyze Good, and degrade only Bad.
constexpr const char* kMixedSource = R"(
  global int X;
  proc Bad() { X := := 1; }
  proc Good() { X := X + 1; }
)";

// Deq of nfq_prime has two exceptional variants, so max_variants = 1 trips
// its budget while AddNode and UpdateTail (one variant each) stay healthy.
ProgramInput nfq_prime_input(size_t max_variants = 0) {
  ProgramInput in;
  in.name = "corpus:nfq_prime";
  in.source = std::string(corpus::get("nfq_prime").source);
  for (auto c : corpus::get("nfq_prime").counted_cas)
    in.opts.counted_cas.emplace_back(c);
  in.opts.variant_opts.max_variants = max_variants;
  return in;
}

TEST(BatchDriver, RecoveredParseErrorDegradesOnlyBrokenProc) {
  ProgramInput in;
  in.name = "mixed.synl";
  in.source = kMixedSource;
  BatchDriver drv(DriverOptions{});
  BatchReport r = drv.run({in});
  ASSERT_EQ(r.programs.size(), 1u);
  EXPECT_EQ(r.programs[0].status, ProgramStatus::Ok);
  EXPECT_FALSE(r.programs[0].diagnostics.empty());  // the contained errors
  ASSERT_EQ(r.programs[0].procs.size(), 2u);
  const ProcReport& bad = *r.programs[0].procs[0];
  EXPECT_EQ(bad.name, "Bad");
  EXPECT_TRUE(bad.degraded);
  EXPECT_EQ(bad.degrade_kind, "parse");
  EXPECT_EQ(bad.atomicity, "unknown");
  const ProcReport& good = *r.programs[0].procs[1];
  EXPECT_EQ(good.name, "Good");
  EXPECT_FALSE(good.degraded);
  EXPECT_FALSE(good.atomicity.empty());
  EXPECT_NE(good.atomicity, "unknown");
  EXPECT_EQ(r.metrics.degraded, 1u);
  EXPECT_EQ(r.metrics.parse_errors, 0u);
  EXPECT_EQ(r.exit_code(), 1);
}

TEST(BatchDriver, VariantBudgetDegradesOnlyExplodingProc) {
  BatchDriver drv(DriverOptions{});
  BatchReport r = drv.run({nfq_prime_input(/*max_variants=*/1)});
  ASSERT_EQ(r.programs.size(), 1u);
  EXPECT_EQ(r.programs[0].status, ProgramStatus::Ok);
  size_t degraded = 0;
  for (const auto& p : r.programs[0].procs) {
    if (p->name == "Deq") {
      EXPECT_TRUE(p->degraded);
      EXPECT_EQ(p->degrade_kind, "max-variants");
      EXPECT_EQ(p->atomicity, "unknown");
      ++degraded;
    } else {
      EXPECT_FALSE(p->degraded) << p->name;
    }
  }
  EXPECT_EQ(degraded, 1u);
  EXPECT_EQ(r.metrics.degraded, 1u);
  EXPECT_EQ(r.exit_code(), 1);
}

// The same trip under the cache: Deq stays in the universe as its clone,
// degrades alone and is never cached, so a second run on the same cache
// hits exactly the healthy procedures and degrades Deq again.
TEST(BatchDriver, VariantBudgetTripIsNeverCached) {
  DriverOptions opts;
  ResultCache cache;
  for (size_t run = 0; run < 2; ++run) {
    BatchDriver drv(opts, &cache);
    BatchReport r = drv.run({nfq_prime_input(/*max_variants=*/1)});
    ASSERT_EQ(r.programs.size(), 1u);
    EXPECT_EQ(r.programs[0].status, ProgramStatus::Ok);
    ASSERT_EQ(r.programs[0].procs.size(), 3u);
    for (const auto& p : r.programs[0].procs) {
      EXPECT_EQ(p->degraded, p->name == "Deq") << p->name << " run " << run;
      EXPECT_EQ(p->degrade_kind, p->degraded ? "max-variants" : "") << p->name;
    }
    EXPECT_EQ(r.metrics.degraded, 1u);
    EXPECT_EQ(r.metrics.cache_hits, run == 0 ? 0u : 2u) << "run " << run;
    EXPECT_EQ(r.metrics.cache_misses, run == 0 ? 3u : 1u) << "run " << run;
  }
  EXPECT_EQ(cache.size(), 2u) << "the degraded Deq must never be cached";
}

TEST(BatchDriver, JobsZeroClampsToHardwareConcurrency) {
  DriverOptions opts;
  opts.jobs = 0;
  BatchDriver drv(opts);
  BatchReport r = drv.run({nfq_prime_input()});
  EXPECT_GE(r.metrics.jobs, 1u);
  EXPECT_EQ(r.exit_code(), 0);
}

TEST(BatchDriver, UnreadableInputIsLoadErrorAndBatchContinues) {
  ProgramInput missing;
  missing.name = "no/such/file.synl";
  missing.load_error = "cannot open input 'no/such/file.synl'";
  std::vector<ProgramInput> inputs;
  inputs.push_back(std::move(missing));
  inputs.push_back(nfq_prime_input());
  BatchDriver drv(DriverOptions{});
  BatchReport r = drv.run(inputs);
  ASSERT_EQ(r.programs.size(), 2u);
  EXPECT_EQ(r.programs[0].status, ProgramStatus::LoadError);
  ASSERT_FALSE(r.programs[0].diagnostics.empty());
  EXPECT_NE(r.programs[0].diagnostics[0].message.find("cannot open"),
            std::string::npos);
  EXPECT_EQ(r.programs[1].status, ProgramStatus::Ok);  // batch kept going
  EXPECT_EQ(r.metrics.load_errors, 1u);
  EXPECT_EQ(r.exit_code(), 3);
}

TEST(BatchDriver, StrictModeEscalatesRecoverableFailures) {
  DriverOptions strict;
  strict.strict = true;
  {
    ProgramInput in;
    in.name = "mixed.synl";
    in.source = kMixedSource;
    BatchDriver drv(strict);
    BatchReport r = drv.run({in});
    EXPECT_EQ(r.programs[0].status, ProgramStatus::ParseError);
    EXPECT_EQ(r.exit_code(), 3);
  }
  {
    BatchDriver drv(strict);
    BatchReport r = drv.run({nfq_prime_input(/*max_variants=*/1)});
    EXPECT_EQ(r.programs[0].status, ProgramStatus::InternalError);
    EXPECT_EQ(r.exit_code(), 4);
  }
}

// Under --strict a budget trip becomes an internal error that cites the
// tripping procedure's line, also when it is the program's only procedure.
TEST(BatchDriver, StrictBudgetTripCitesTheProcedureLine) {
  ProgramInput in;
  in.name = "one.synl";
  in.source =
      "global int X;\n"
      "proc int P() {\n"
      "  loop {\n"
      "    local t := LL(X) in {\n"
      "      if (t == 0) { return 0; }\n"
      "      if (SC(X, t - 1)) { return t; }\n"
      "    }\n"
      "  }\n"
      "}\n";
  in.opts.variant_opts.max_variants = 1;  // P has two exceptional variants
  DriverOptions strict;
  strict.strict = true;
  BatchDriver drv(strict);
  BatchReport r = drv.run({in});
  ASSERT_EQ(r.programs.size(), 1u);
  EXPECT_EQ(r.programs[0].status, ProgramStatus::InternalError);
  EXPECT_FALSE(r.programs[0].fingerprint.empty());
  ASSERT_EQ(r.programs[0].diagnostics.size(), 1u);
  EXPECT_EQ(r.programs[0].diagnostics[0].line, 2u);
  EXPECT_NE(r.programs[0].diagnostics[0].message.find("'P'"),
            std::string::npos);
}

TEST(BatchDriver, DeadlineDegradesInsteadOfHanging) {
  // An unreachable deadline that is already armed must not change results;
  // jobs > 1 reads the armed budget from pool helpers.
  DriverOptions opts;
  opts.deadline_ms = 600000;
  opts.jobs = 2;
  BatchDriver guarded(opts);
  BatchDriver plain(DriverOptions{});
  EXPECT_EQ(to_json(guarded.run({nfq_prime_input()})),
            to_json(plain.run({nfq_prime_input()})));
}

// A deadline that passes mid-program: the run completes, the procedures the
// trip stops are degraded ("deadline"), and every other procedure keeps the
// verdict of a run without a deadline. At jobs 4 the pool's helpers check
// the budget too. --strict turns the trip into the program's internal
// error.
TEST(BatchDriver, DeadlineTripDegradesOnlyTheProceduresItStops) {
  const ProgramInput in = generated_input(640);
  const BatchReport unbounded = BatchDriver(DriverOptions{}).run({in});
  const auto& want = unbounded.programs.at(0).procs;
  for (unsigned jobs : {1u, 4u}) {
    DriverOptions opts;
    opts.jobs = jobs;
    opts.deadline_ms = 1;
    const BatchReport r = BatchDriver(opts).run({in});
    ASSERT_EQ(r.programs.size(), 1u);
    const ProgramReport& prog = r.programs[0];
    EXPECT_EQ(prog.status, ProgramStatus::Ok) << "jobs " << jobs;
    ASSERT_EQ(prog.procs.size(), want.size());
    size_t degraded = 0;
    for (size_t p = 0; p < want.size(); ++p) {
      const ProcReport& got = *prog.procs[p];
      EXPECT_EQ(got.name, want[p]->name);
      if (got.degraded) {
        EXPECT_EQ(got.degrade_kind, "deadline") << got.name;
        ++degraded;
      } else {
        EXPECT_EQ(got.atomic, want[p]->atomic) << got.name;
        EXPECT_EQ(got.atomicity, want[p]->atomicity) << got.name;
      }
    }
    EXPECT_GT(degraded, 0u) << "jobs " << jobs;
    EXPECT_EQ(r.exit_code(), 1) << "jobs " << jobs;
    EXPECT_EQ(telemetry_counter(r, "synat_watchdog_arms_total"), 1u);
    EXPECT_EQ(telemetry_counter(r, "synat_watchdog_trips_total"), 1u);

    opts.strict = true;
    const BatchReport strict = BatchDriver(opts).run({in});
    EXPECT_EQ(strict.programs.at(0).status, ProgramStatus::InternalError)
        << "jobs " << jobs;
  }
}

// The acceptance scenario: a batch over (a) a syntactically broken file
// with a healthy procedure, (b) a variant-budget-exceeding program, (c) a
// healthy program served from a corrupted cache snapshot. The batch must
// complete with exit 1, analyze the healthy program identically to a clean
// run, and list all three degradations.
TEST(BatchDriver, DegradedBatchAnalyzesHealthySubsetIdentically) {
  std::string path = testing::TempDir() + "synat_degraded.synatcache";
  std::vector<ProgramInput> inputs;
  ProgramInput mixed;
  mixed.name = "mixed.synl";
  mixed.source = kMixedSource;
  inputs.push_back(std::move(mixed));
  inputs.push_back(nfq_prime_input(/*max_variants=*/1));  // budget buster
  inputs.push_back(nfq_prime_input());                    // healthy

  // Clean run (no cache) for the healthy-subset comparison.
  BatchDriver clean(DriverOptions{});
  BatchReport clean_report = clean.run(inputs);

  // Build a snapshot of the healthy program's entries, then corrupt it.
  DriverOptions cached;
  {
    ResultCache warm;
    BatchDriver drv(cached, &warm);
    drv.run(inputs);
    ASSERT_TRUE(warm.save(path));
  }
  {
    // Flip a byte inside the first entry's payload (24-byte header, then
    // 8 key + 8 length) so its CRC no longer verifies.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(42);
    char c = static_cast<char>(f.get());
    f.seekp(42);
    f.put(static_cast<char>(c ^ 0x40));
  }

  ResultCache damaged;
  damaged.load(path);
  EXPECT_GT(damaged.rejected(), 0u);
  BatchDriver drv(cached, &damaged);
  BatchReport r = drv.run(inputs);
  EXPECT_EQ(r.exit_code(), 1);
  EXPECT_EQ(r.metrics.degraded, 2u);  // Bad (parse) + Deq (max-variants)
  EXPECT_GT(r.metrics.cache_rejected, 0u);

  // Every healthy procedure matches the clean run bit for bit: compare the
  // per-program reports in isolation (the full documents legitimately
  // differ in the metrics and degraded-cache sections).
  for (size_t i = 0; i < inputs.size(); ++i) {
    BatchReport lhs, rhs;
    lhs.programs.push_back(clean_report.programs[i]);
    rhs.programs.push_back(r.programs[i]);
    EXPECT_EQ(to_json(lhs), to_json(rhs)) << inputs[i].name;
  }

  // The degraded section of the JSON document names all three kinds.
  std::string json = to_json(r);
  EXPECT_NE(json.find("\"degraded\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"parse\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"max-variants\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"cache\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace synat::driver
