// Wide-event log tests (DESIGN.md §3i): the renderer's fixed key order,
// EventLog sequencing, recorder mirroring, size-based rotation, dropped
// lines, and the completion-time stamp. The cross-mode byte-identity
// contract (identical logs under --jobs 1 / --jobs N / --isolate with the
// virtual clock) is pinned at the CLI level by the cli_events_identity
// ctest and the CI events job, because the virtual clock is a
// process-wide, checked-once environment switch.
#include "synat/obs/events.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "synat/obs/obs.h"
#include "synat/obs/recorder.h"

namespace synat {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string tmp_path(const char* tag) {
  return "/tmp/synat_events_" + std::string(tag) + "_" +
         std::to_string(getpid()) + ".jsonl";
}

TEST(Events, RenderedLineHasTheFixedKeyOrder) {
  obs::Event e;
  e.seq = 7;
  e.ts_ns = 7;
  e.name = "corpus:nfq";
  e.fingerprint = "ba19dc849407c4b3";
  e.status = "degraded";
  e.atomic = false;
  e.exit_code = 1;
  e.procs = 2;
  e.procs_not_atomic = 1;
  e.variants = 3;
  e.dur_ns = 1000;
  e.parse_ns = 100;
  e.analyze_ns = 800;
  e.report_ns = 100;
  e.cache_hits = 4;
  e.cache_misses = 5;
  e.retries = 1;
  e.deaths_crash = 1;
  e.quarantined = true;
  e.error_code = -32004;
  e.error_kind = "quarantined";
  // The exact byte pin: tools/events_schema.json, the validator, and log
  // pipelines all depend on this order never shifting.
  EXPECT_EQ(
      obs::render_event(e),
      "{\"schema\":\"synat-event\",\"v\":1,\"seq\":7,\"ts_ns\":7,"
      "\"name\":\"corpus:nfq\",\"fingerprint\":\"ba19dc849407c4b3\","
      "\"status\":\"degraded\",\"atomic\":false,\"exit_code\":1,"
      "\"procs\":2,\"procs_not_atomic\":1,\"variants\":3,\"dur_ns\":1000,"
      "\"parse_ns\":100,\"analyze_ns\":800,\"report_ns\":100,"
      "\"cache_hits\":4,\"cache_misses\":5,\"retries\":1,"
      "\"deaths_crash\":1,\"deaths_timeout\":0,\"deaths_oom\":0,"
      "\"quarantined\":true,\"error_code\":-32004,"
      "\"error_kind\":\"quarantined\"}");
}

TEST(Events, RendererEscapesHostileStrings) {
  obs::Event e;
  e.name = "a\"b\\c\nd";
  std::string line = obs::render_event(e);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"name\":\"a\\\"b\\\\c\\nd\""), std::string::npos)
      << line;
}

TEST(Events, AppendAssignsSequenceAndStampsCompletionTime) {
  std::string path = tmp_path("seq");
  {
    obs::EventLogOptions opts;
    opts.path = path;
    obs::EventLog log(opts);
    obs::Event a;
    a.name = "first";
    obs::Event b;
    b.name = "second";
    log.append(std::move(a));
    log.append(std::move(b));
    EXPECT_EQ(log.lines(), 2u);
  }
  std::string text = slurp(path);
  EXPECT_NE(text.find("\"seq\":0,"), std::string::npos);
  EXPECT_NE(text.find("\"seq\":1,"), std::string::npos);
  if (!obs::virtual_clock()) {
    // Outside canonical mode a zero ts is replaced by the completion time.
    EXPECT_EQ(text.find("\"ts_ns\":0,"), std::string::npos) << text;
  }
  std::remove(path.c_str());
}

TEST(Events, SizeBasedRotationKeepsTheLastTwoFiles) {
  std::string path = tmp_path("rot");
  std::string rotated = path + ".1";
  {
    obs::EventLogOptions opts;
    opts.path = path;
    opts.max_bytes = 600;  // ~2 rendered lines per file
    obs::EventLog log(opts);
    for (int i = 0; i < 6; ++i) {
      obs::Event e;
      e.name = "program_" + std::to_string(i);
      log.append(std::move(e));
    }
    EXPECT_EQ(log.lines(), 6u);
  }
  std::string current = slurp(path);
  std::string previous = slurp(rotated);
  EXPECT_FALSE(current.empty());
  EXPECT_FALSE(previous.empty());
  // The newest line is always in the live file; rotation renamed the rest
  // away at most one generation deep.
  EXPECT_NE(current.find("program_5"), std::string::npos);
  EXPECT_EQ(current.find("program_0"), std::string::npos);
  std::remove(path.c_str());
  std::remove(rotated.c_str());
}

TEST(Events, LinesTheFileCannotTakeAreDroppedNotLogged) {
  obs::EventLogOptions opts;
  opts.path = tmp_path("missing_dir") + "/events.jsonl";  // cannot be opened
  obs::EventLog log(opts);
  log.append(obs::Event{});
  log.append(obs::Event{});
  EXPECT_EQ(log.lines(), 0u);
  EXPECT_EQ(log.dropped(), 2u);
}

TEST(Events, RingOnlyLogMirrorsIntoTheRecorder) {
  obs::recorder().reset();
  uint64_t before = obs::recorder().captured();
  obs::EventLogOptions opts;  // empty path: no disk, ring only
  obs::EventLog log(opts);
  obs::Event e;
  e.name = "ring_only";
  log.append(std::move(e));
  EXPECT_EQ(obs::recorder().captured(), before + 1);
  EXPECT_EQ(log.lines(), 1u);
}

}  // namespace
}  // namespace synat
