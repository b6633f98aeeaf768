// Wide-event log tests (DESIGN.md §3i): the renderer's fixed key order,
// EventLog sequencing, dropped lines, and the
// completion-time stamp. The cross-mode byte-identity contract (identical
// logs under --jobs 1 / --jobs N / --isolate with the virtual clock) is
// pinned at the CLI level by the cli_events_identity ctest and the CI
// events job, because the virtual clock is a process-wide, checked-once
// environment switch.
#include "synat/obs/events.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "synat/obs/obs.h"

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
  e.error_code = -32003;
  e.error_kind = "overloaded";
  // The exact byte pin: tools/events_schema.json, the validator, and log
  // pipelines all depend on this order never shifting.
  EXPECT_EQ(
      obs::render_event(e),
      "{\"schema\":\"synat-event\",\"v\":2,\"seq\":7,\"ts_ns\":7,"
      "\"name\":\"corpus:nfq\",\"fingerprint\":\"ba19dc849407c4b3\","
      "\"status\":\"degraded\",\"atomic\":false,\"exit_code\":1,"
      "\"procs\":2,\"procs_not_atomic\":1,\"variants\":3,\"dur_ns\":1000,"
      "\"parse_ns\":100,\"analyze_ns\":800,\"report_ns\":100,"
      "\"cache_hits\":4,\"cache_misses\":5,\"retries\":1,"
      "\"deaths_crash\":1,\"deaths_timeout\":0,\"deaths_oom\":0,"
      "\"error_code\":-32003,\"error_kind\":\"overloaded\"}");
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
    obs::EventLog log(path);
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

TEST(Events, LinesTheFileCannotTakeAreDroppedNotLogged) {
  // A path that cannot be opened.
  obs::EventLog log(tmp_path("missing_dir") + "/events.jsonl");
  log.append(obs::Event{});
  log.append(obs::Event{});
  EXPECT_EQ(log.lines(), 0u);
  EXPECT_EQ(log.dropped(), 2u);
}

}  // namespace
}  // namespace synat
