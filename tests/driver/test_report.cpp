// Tests for the exit-code precedence order, Degraded-program rendering
// (JSON schema v3 / SARIF SYNAT006), and how ReportSink assembles published
// and failed programs.
#include "synat/driver/report.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

namespace synat::driver {
namespace {

// ---------------------------------------------------------------------------
// Exit-code precedence (the documented convention, as one table)

struct ExitCodeCase {
  int code;
  int severity;
  const char* meaning;
};

// The documented order: 0 ok < 1 not-atomic/degraded < 2 usage <
// 3 parse/load < 4 internal; anything else is treated as worse than all.
constexpr ExitCodeCase kExitCodes[] = {
    {0, 0, "ok"},
    {1, 1, "not atomic / degraded"},
    {2, 2, "usage"},
    {3, 3, "parse/load error"},
    {4, 4, "internal error"},
    {5, 5, "unknown"},
    {42, 5, "unknown"},
    {-1, 5, "unknown"},
    {127, 5, "unknown"},
};

TEST(ExitCodes, SeverityTableIsTheDocumentedOrder) {
  for (const auto& c : kExitCodes)
    EXPECT_EQ(exit_code_severity(c.code), c.severity) << c.meaning;
}

TEST(ExitCodes, CombineTakesTheWorseOfEveryPair) {
  for (int a = 0; a <= 4; ++a) {
    for (int b = 0; b <= 4; ++b) {
      EXPECT_EQ(combine_exit_codes(a, b), std::max(a, b))
          << "combine(" << a << ", " << b << ")";
      EXPECT_EQ(combine_exit_codes(a, b), combine_exit_codes(b, a))
          << "combine must be symmetric for " << a << ", " << b;
    }
  }
}

TEST(ExitCodes, UnknownCodesOutrankEveryDocumentedCode) {
  for (int known = 0; known <= 4; ++known) {
    EXPECT_EQ(combine_exit_codes(known, 42), 42);
    EXPECT_EQ(combine_exit_codes(-1, known), -1);
  }
}

TEST(ExitCodes, CombineIsIdempotentAndHasZeroAsIdentity) {
  for (const auto& c : kExitCodes) {
    EXPECT_EQ(combine_exit_codes(c.code, c.code), c.code);
    EXPECT_EQ(combine_exit_codes(0, c.code), c.code);
  }
}

TEST(ExitCodes, BatchReportHonoursThePrecedence) {
  BatchReport r;
  EXPECT_EQ(r.exit_code(), 0);
  r.metrics.crashed = 1;
  EXPECT_EQ(r.exit_code(), 1);
  r.metrics.parse_errors = 1;
  EXPECT_EQ(r.exit_code(), 3) << "parse errors outrank crashed workers";
  r.metrics.internal_errors = 1;
  EXPECT_EQ(r.exit_code(), 4) << "internal errors outrank everything";
}

TEST(ExitCodes, DegradedProceduresAloneEscalateToOne) {
  BatchReport r;
  r.metrics.degraded = 2;
  EXPECT_EQ(r.exit_code(), 1);
}

// ---------------------------------------------------------------------------
// Degraded-program rendering

BatchReport crashed_batch() {
  ReportSink sink(2);
  auto proc = std::make_shared<ProcReport>();
  proc->name = "Enq";
  proc->line = 3;
  proc->atomic = true;
  proc->atomicity = "A";
  ProgramReport healthy;
  healthy.name = "healthy";
  healthy.fingerprint = "00000000deadbeef";
  healthy.procs.push_back(proc);
  sink.publish_program(0, std::move(healthy));
  sink.fail_program(1, "crashy", ProgramStatus::Degraded,
                    {{"error", 0, 0, "crashed: SIGSEGV (signal 11)"}});
  return sink.finish(Metrics{}, /*jobs=*/1);
}

TEST(DegradedRendering, FinishCountsCrashedPrograms) {
  BatchReport r = crashed_batch();
  EXPECT_EQ(r.metrics.crashed, 1u);
  EXPECT_EQ(r.exit_code(), 1);
  // The published program keeps its name and procedures beside the crash.
  EXPECT_EQ(r.programs[0].name, "healthy");
  EXPECT_EQ(r.metrics.procedures, 1u);
}

TEST(DegradedRendering, JsonCarriesStatusAndDegradedArrayEntry) {
  std::string json = to_json(crashed_batch());
  EXPECT_NE(json.find("\"status\": \"degraded\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"crash\""), std::string::npos);
  EXPECT_NE(json.find("crashed: SIGSEGV (signal 11)"), std::string::npos);
  EXPECT_NE(json.find("\"crashed_programs\": 1"), std::string::npos);
}

TEST(DegradedRendering, SarifUsesRuleSynat006) {
  std::string sarif = to_sarif(crashed_batch());
  EXPECT_NE(sarif.find("SYNAT006"), std::string::npos);
  // The healthy program must not be tagged with the crash rule twice.
  size_t first = sarif.find("\"ruleId\": \"SYNAT006\"");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(sarif.find("\"ruleId\": \"SYNAT006\"", first + 1),
            std::string::npos);
}

TEST(DegradedRendering, TextSummaryMentionsCrashes) {
  std::string text = to_text(crashed_batch());
  EXPECT_NE(text.find("crashed"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Schema v4: the opt-in deterministic counters section

TEST(SchemaV4, JsonReportsVersionFive) {
  std::string json = to_json(crashed_batch());
  EXPECT_NE(json.find("\"version\": 5"), std::string::npos);
}

TEST(SchemaV4, CountersSectionIsOptInAndDeterministicOnly) {
  Metrics m;
  m.telemetry.counters.push_back({"synat_procs_analyzed_total", 45, true});
  m.telemetry.counters.push_back({"synat_watchdog_trips_total", 2, false});
  ReportSink sink(0);
  BatchReport r = sink.finish(m, /*jobs=*/1);

  std::string plain = to_json(r);
  EXPECT_EQ(plain.find("\"counters\""), std::string::npos)
      << "default output must stay byte-identical to pre-v4 runs modulo "
         "the version bump";

  RenderOptions opts;
  opts.counters = true;
  std::string with = to_json(r, opts);
  EXPECT_NE(with.find("\"counters\""), std::string::npos);
  EXPECT_NE(with.find("\"synat_procs_analyzed_total\": 45"),
            std::string::npos);
  EXPECT_EQ(with.find("synat_watchdog_trips_total"), std::string::npos)
      << "nondeterministic counters must never enter the report";
}

TEST(SchemaV4, FinishCarriesTelemetryIntoTheReport) {
  Metrics m;
  m.telemetry.counters.push_back({"synat_cache_hits_total", 9, true});
  ReportSink sink(0);
  BatchReport r = sink.finish(m, 1);
  ASSERT_EQ(r.metrics.telemetry.counters.size(), 1u);
  EXPECT_EQ(r.metrics.telemetry.counters[0].value, 9u);
}

// ---------------------------------------------------------------------------
// Failed programs

TEST(SinkCompletion, WorstStatusWinsOnRepeatedFailure) {
  ReportSink sink(2);
  sink.fail_program(0, "p", ProgramStatus::Degraded, {});
  sink.fail_program(0, "p", ProgramStatus::InternalError, {});
  sink.fail_program(0, "p", ProgramStatus::Degraded, {});
  // A program that fails once keeps that status and its diagnostic.
  sink.fail_program(1, "bad", ProgramStatus::ParseError,
                    {{"error", 1, 1, "expected ')'"}});
  BatchReport r = sink.finish(Metrics{}, 1);
  EXPECT_EQ(r.programs[0].status, ProgramStatus::InternalError);
  EXPECT_EQ(r.programs[1].name, "bad");
  EXPECT_EQ(r.programs[1].status, ProgramStatus::ParseError);
  ASSERT_EQ(r.programs[1].diagnostics.size(), 1u);
  EXPECT_EQ(r.programs[1].diagnostics[0].message, "expected ')'");
  EXPECT_EQ(r.metrics.parse_errors, 1u);
}

}  // namespace
}  // namespace synat::driver
