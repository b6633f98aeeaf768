// Tests for process-isolated batch execution (DESIGN.md §3d): byte-identity
// with the in-process path, failure parity, and — under
// -DSYNAT_FAULT_INJECTION=ON — crash/stall/OOM containment and retry.
#include <gtest/gtest.h>

#include <cstdlib>

#include "synat/corpus/corpus.h"
#include "synat/driver/driver.h"
#include "synat/driver/worker.h"
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

std::string run_json(DriverOptions opts, std::vector<ProgramInput> inputs) {
  BatchDriver drv(opts);
  return to_json(drv.run(inputs));
}

TEST(Isolate, MatchesInProcessRunByteForByte) {
  std::string in_process = run_json(DriverOptions{}, corpus_inputs());
  DriverOptions iso;
  iso.isolate = true;
  iso.jobs = 4;
  EXPECT_EQ(run_json(iso, corpus_inputs()), in_process);
}

// A process that ran a pooled batch keeps the shared pool's workers
// parked, and its --isolate workers fork beside them (DESIGN.md §3d gives
// the rule that makes this safe): the documents still match.
TEST(Isolate, ForksBesideTheSharedPoolsParkedWorkers) {
  DriverOptions pooled;
  pooled.jobs = 4;
  std::string in_process = run_json(pooled, corpus_inputs());
  DriverOptions iso;
  iso.isolate = true;
  iso.jobs = 4;
  EXPECT_EQ(run_json(iso, corpus_inputs()), in_process);
}

TEST(Isolate, ParseAndLoadErrorsMatchInProcessRun) {
  std::vector<ProgramInput> inputs;
  inputs.push_back({"bad.synl", "proc P( {", {}, {}});
  ProgramInput missing;
  missing.name = "missing.synl";
  missing.load_error = "cannot open input 'missing.synl'";
  inputs.push_back(std::move(missing));
  ProgramInput good;
  good.name = "corpus:nfq_prime";
  good.source = std::string(corpus::get("nfq_prime").source);
  for (auto c : corpus::get("nfq_prime").counted_cas)
    good.opts.counted_cas.emplace_back(c);
  inputs.push_back(std::move(good));

  std::string in_process = run_json(DriverOptions{}, inputs);
  DriverOptions iso;
  iso.isolate = true;
  iso.jobs = 2;
  EXPECT_EQ(run_json(iso, inputs), in_process);
}

/// The `samples` of stage `stage` in `r` rendered with --timings.
uint64_t timings_samples(const BatchReport& r, const std::string& stage) {
  RenderOptions ropts;
  ropts.timings = true;
  const std::string doc = to_json(r, ropts);
  size_t at = doc.find("\"" + stage + "\": {", doc.find("\"stages\""));
  at = doc.find("\"samples\": ", at);
  EXPECT_NE(at, std::string::npos) << doc;
  return at == std::string::npos ? 0 : std::stoull(doc.substr(at + 11));
}

// --timings covers the workers' stages: their registry deltas merge into
// the run's, so the samples match an in-process run's.
TEST(Isolate, TimingsCountTheWorkersStages) {
  obs::set_flags(obs::kMetricsFlag);
  BatchReport in_process = BatchDriver(DriverOptions{}).run(corpus_inputs());
  DriverOptions iso;
  iso.isolate = true;
  iso.jobs = 4;
  BatchReport isolated = BatchDriver(iso).run(corpus_inputs());
  obs::set_flags(0);
  for (const char* stage : {"parse", "analyze", "report"}) {
    const uint64_t samples = timings_samples(in_process, stage);
    EXPECT_GT(samples, 0u) << stage;
    EXPECT_EQ(timings_samples(isolated, stage), samples) << stage;
  }
}

TEST(Isolate, RetryBackoffDoublesUpToACap) {
  EXPECT_EQ(retry_backoff_ms(1), 50u);
  EXPECT_EQ(retry_backoff_ms(2), 100u);
  EXPECT_EQ(retry_backoff_ms(7), 1600u);
  EXPECT_EQ(retry_backoff_ms(101), 1600u);
}

#if defined(SYNAT_FAULT_INJECTION)

/// Scoped SYNAT_FAULT environment; workers inherit it through fork().
struct FaultEnv {
  explicit FaultEnv(const char* spec) { setenv("SYNAT_FAULT", spec, 1); }
  ~FaultEnv() { unsetenv("SYNAT_FAULT"); }
};

std::vector<ProgramInput> victim_and_bystander() {
  std::vector<ProgramInput> inputs;
  // Single global stores are atomic ("A"), so a fault-free run exits 0 and
  // every nonzero exit in these tests is attributable to the injected fault.
  ProgramInput victim;
  victim.name = "victim";
  victim.source = "global int X; proc Crash() { X := 1; }";
  inputs.push_back(std::move(victim));
  ProgramInput bystander;
  bystander.name = "bystander";
  bystander.source = "global int Y; proc Fine() { Y := 2; }";
  inputs.push_back(std::move(bystander));
  return inputs;
}

TEST(IsolateFault, CrashIsContainedAsDegradedProgram) {
  FaultEnv fault("crash:victim");
  DriverOptions iso;
  iso.isolate = true;
  iso.retries = 0;
  BatchDriver drv(iso);
  BatchReport r = drv.run(victim_and_bystander());
  ASSERT_EQ(r.programs.size(), 2u);
  EXPECT_EQ(r.programs[0].status, ProgramStatus::Degraded);
  EXPECT_TRUE(r.programs[0].procs.empty());
  ASSERT_FALSE(r.programs[0].diagnostics.empty());
  EXPECT_NE(r.programs[0].diagnostics[0].message.find("crashed"),
            std::string::npos);
  EXPECT_NE(r.programs[0].diagnostics[0].message.find("SIGSEGV"),
            std::string::npos);
  EXPECT_EQ(r.programs[1].status, ProgramStatus::Ok);
  EXPECT_EQ(r.metrics.crashed, 1u);
  EXPECT_EQ(r.exit_code(), 1);
}

TEST(IsolateFault, CrashedProgramRendersAsSynat006) {
  FaultEnv fault("crash:victim");
  DriverOptions iso;
  iso.isolate = true;
  iso.retries = 0;
  BatchDriver drv(iso);
  BatchReport r = drv.run(victim_and_bystander());
  std::string sarif = to_sarif(r);
  EXPECT_NE(sarif.find("SYNAT006"), std::string::npos);
  std::string json = to_json(r);
  EXPECT_NE(json.find("\"status\": \"degraded\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"crash\""), std::string::npos);
}

TEST(IsolateFault, RetryAfterTransientCrashSucceeds) {
  // @1 arms the fault only on the first dispatch attempt; the retry runs
  // clean and the program must come back healthy.
  FaultEnv fault("crash:victim@1");
  DriverOptions iso;
  iso.isolate = true;
  iso.retries = 1;
  BatchDriver drv(iso);
  BatchReport r = drv.run(victim_and_bystander());
  EXPECT_EQ(r.programs[0].status, ProgramStatus::Ok);
  EXPECT_EQ(r.metrics.crashed, 0u);
  EXPECT_EQ(r.exit_code(), 0);
}

TEST(IsolateFault, RetriesExhaustedStillDegrades) {
  FaultEnv fault("crash:victim");  // armed on every attempt
  DriverOptions iso;
  iso.isolate = true;
  iso.retries = 2;
  BatchDriver drv(iso);
  BatchReport r = drv.run(victim_and_bystander());
  EXPECT_EQ(r.programs[0].status, ProgramStatus::Degraded);
  EXPECT_EQ(r.programs[1].status, ProgramStatus::Ok);
}

TEST(IsolateFault, StallIsReapedByTheHeartbeatDetector) {
  // SIGSTOP freezes the whole worker including its heartbeat thread; the
  // supervisor must notice the silence and SIGKILL it. deadline_ms keeps
  // the stall window short (deadline + grace).
  FaultEnv fault("hang:victim");
  DriverOptions iso;
  iso.isolate = true;
  iso.retries = 0;
  iso.deadline_ms = 200;
  BatchDriver drv(iso);
  BatchReport r = drv.run(victim_and_bystander());
  EXPECT_EQ(r.programs[0].status, ProgramStatus::Degraded);
  ASSERT_FALSE(r.programs[0].diagnostics.empty());
  EXPECT_NE(r.programs[0].diagnostics[0].message.find("stalled"),
            std::string::npos);
  EXPECT_EQ(r.programs[1].status, ProgramStatus::Ok);
}

#if !defined(SYNAT_TEST_ASAN_ISOLATE)
#if defined(__SANITIZE_ADDRESS__)
#define SYNAT_TEST_ASAN_ISOLATE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SYNAT_TEST_ASAN_ISOLATE 1
#endif
#endif
#endif

#if !defined(SYNAT_TEST_ASAN_ISOLATE)
TEST(IsolateFault, OomKilledWorkerIsContained) {
  // RLIMIT_AS is incompatible with ASan shadow memory; plain builds only.
  FaultEnv fault("oom:victim");
  DriverOptions iso;
  iso.isolate = true;
  iso.retries = 0;
  iso.max_rss_mb = 256;
  BatchDriver drv(iso);
  BatchReport r = drv.run(victim_and_bystander());
  EXPECT_EQ(r.programs[0].status, ProgramStatus::Degraded);
  EXPECT_EQ(r.programs[1].status, ProgramStatus::Ok);
  EXPECT_EQ(r.metrics.crashed, 1u);
}
#endif

#endif  // SYNAT_FAULT_INJECTION

}  // namespace
}  // namespace synat::driver
