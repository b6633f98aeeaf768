// Flight-recorder tests (DESIGN.md §3i): ring bounds and wrap-around,
// incident dumps through a pre-opened fd, dumps racing writers that wrap
// the ring (never a torn frame), and the real fatal-signal path —
// a forked child arms support/crash.h, fills the ring, and dies on SIGSEGV;
// the parent asserts the postmortem file holds the header and the last-N
// events while the wait status still reports the original signal.
#include "synat/obs/recorder.h"

#include <gtest/gtest.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "synat/serve/json.h"
#include "synat/support/crash.h"

namespace synat {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string tmp_path(const char* tag) {
  return "/tmp/synat_recorder_" + std::string(tag) + "_" +
         std::to_string(getpid()) + ".pm";
}

struct RecorderTest : ::testing::Test {
  void SetUp() override { obs::recorder().reset(); }
  void TearDown() override {
    obs::recorder().set_postmortem_fd(-1);
    obs::recorder().reset();
  }
};

TEST_F(RecorderTest, DumpWithoutAnArmedFdIsRefused) {
  obs::recorder().note("orphan line");
  EXPECT_FALSE(obs::recorder().dump_incident("test"));
}

TEST_F(RecorderTest, DumpWritesHeaderAndFramesOldestFirst) {
  std::string path = tmp_path("basic");
  int fd = open(path.c_str(), O_CREAT | O_WRONLY | O_CLOEXEC, 0644);
  ASSERT_GE(fd, 0);
  obs::recorder().set_postmortem_fd(fd);
  obs::recorder().note("{\"rec\":\"x\",\"i\":1}");
  obs::recorder().note_event("worker_death", "signal 11");
  obs::recorder().note_span(0, 100, 50);
  ASSERT_TRUE(obs::recorder().dump_incident("worker_death"));
  std::string text = slurp(path);
  size_t header = text.find(
      "{\"rec\":\"postmortem\",\"schema\":\"synat-postmortem\",\"v\":1,"
      "\"reason\":\"worker_death\",\"signal\":0,\"frames\":3}");
  EXPECT_EQ(header, 0u) << text;
  size_t first = text.find("\"i\":1");
  size_t second = text.find("\"what\":\"worker_death\"");
  size_t third = text.find("\"rec\":\"span\"");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  ASSERT_NE(third, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_LT(second, third);
  close(fd);
  obs::recorder().set_postmortem_fd(-1);
  std::remove(path.c_str());
}

TEST_F(RecorderTest, RingWrapKeepsOnlyTheLastNFrames) {
  std::string path = tmp_path("wrap");
  int fd = open(path.c_str(), O_CREAT | O_WRONLY | O_CLOEXEC, 0644);
  ASSERT_GE(fd, 0);
  obs::recorder().set_postmortem_fd(fd);
  const size_t total = obs::Recorder::kFrames + 40;
  for (size_t i = 0; i < total; ++i)
    obs::recorder().note("{\"rec\":\"n\",\"i\":" + std::to_string(i) + "}");
  EXPECT_EQ(obs::recorder().captured(), total);
  ASSERT_TRUE(obs::recorder().dump_incident("wrap"));
  std::string text = slurp(path);
  // The 40 oldest frames were overwritten; the newest survives; the header
  // reports a full ring.
  EXPECT_EQ(text.find("\"i\":39}"), std::string::npos);
  EXPECT_NE(text.find("\"i\":40}"), std::string::npos);
  EXPECT_NE(text.find("\"i\":" + std::to_string(total - 1) + "}"),
            std::string::npos);
  EXPECT_NE(text.find("\"frames\":256}"), std::string::npos) << text.substr(0, 200);
  close(fd);
  obs::recorder().set_postmortem_fd(-1);
  std::remove(path.c_str());
}

TEST_F(RecorderTest, OverlongFramesAreTruncatedNotDropped) {
  std::string path = tmp_path("trunc");
  int fd = open(path.c_str(), O_CREAT | O_WRONLY | O_CLOEXEC, 0644);
  ASSERT_GE(fd, 0);
  obs::recorder().set_postmortem_fd(fd);
  obs::recorder().note("BEGIN" + std::string(2 * obs::Recorder::kFrameBytes, 'x'));
  ASSERT_TRUE(obs::recorder().dump_incident("trunc"));
  std::string text = slurp(path);
  EXPECT_NE(text.find("BEGIN"), std::string::npos);
  EXPECT_LE(text.size(), obs::Recorder::kFrameBytes + 256);
  close(fd);
  obs::recorder().set_postmortem_fd(-1);
  std::remove(path.c_str());
}

// A note's detail can be client text (serve passes the RPC `name`): it is
// escaped, and an overlong one is cut before the object closes and never
// inside a UTF-8 sequence, so every dumped line still parses as one JSON
// object.
TEST_F(RecorderTest, HostileNoteDetailsStayOneJsonObject) {
  std::string path = tmp_path("hostile");
  int fd = open(path.c_str(), O_CREAT | O_WRONLY | O_CLOEXEC, 0644);
  ASSERT_GE(fd, 0);
  obs::recorder().set_postmortem_fd(fd);
  const std::string head = "client \"name\"\\x\nsecond\x01";
  std::string text;
  for (int i = 0; i < 300; ++i) text += "\xc3\xa9";  // 600 bytes of "é"
  const std::string detail = head + text;
  obs::recorder().note_event("quarantine_trip", detail.c_str());
  ASSERT_TRUE(obs::recorder().dump_incident("quarantine_trip"));
  std::istringstream dump(slurp(path));
  std::vector<serve::JsonValue> objects;
  for (std::string line; std::getline(dump, line);) {
    serve::JsonParse p = serve::parse_json(line);
    EXPECT_TRUE(p.ok && p.value.is_object()) << line;
    objects.push_back(std::move(p.value));
  }
  ASSERT_EQ(objects.size(), 2u);  // the header and the note
  const serve::JsonValue* got = objects[1].get("detail");
  ASSERT_NE(got, nullptr);
  ASSERT_EQ(got->str.compare(0, head.size(), head), 0) << got->str;
  const std::string rest = got->str.substr(head.size());
  EXPECT_GT(rest.size(), 0u);
  EXPECT_LT(rest.size(), text.size());
  EXPECT_EQ(rest.size() % 2, 0u) << "cut inside a UTF-8 sequence";
  EXPECT_EQ(rest, text.substr(0, rest.size()));
  close(fd);
  obs::recorder().set_postmortem_fd(-1);
  std::remove(path.c_str());
}

// Line `i` of writer `w`: its own identity plus a padding whose length and
// letter both vary, so a frame mixing two lines cannot pass for either.
std::string concurrent_line(unsigned w, unsigned i) {
  const char letter = static_cast<char>('a' + (w * 7 + i) % 26);
  return "{\"w\":" + std::to_string(w) + ",\"i\":" + std::to_string(i) +
         ",\"pad\":\"" + std::string((i * 37 + w * 101) % 400, letter) +
         "\"}";
}

TEST_F(RecorderTest, ConcurrentNotesAndDumps) {
  std::string path = tmp_path("concurrent");
  int fd = open(path.c_str(), O_CREAT | O_WRONLY | O_CLOEXEC, 0644);
  ASSERT_GE(fd, 0);
  obs::recorder().set_postmortem_fd(fd);
  // Every writer wraps the ring many times, and keeps writing until the
  // dumps below have raced it often enough.
  constexpr unsigned kWriters = 3;
  constexpr unsigned kMinLines = 2000;
  constexpr size_t kMinDumps = 50;
  std::atomic<size_t> dumps{0};
  std::atomic<unsigned> writing{kWriters};
  std::vector<std::thread> writers;
  for (unsigned w = 0; w < kWriters; ++w) {
    writers.emplace_back([w, &dumps, &writing] {
      for (unsigned i = 0; i < kMinLines || dumps.load() < kMinDumps; ++i)
        obs::recorder().note(concurrent_line(w, i));
      writing.fetch_sub(1);
    });
  }

  size_t frames = 0;
  std::vector<std::string> torn;
  bool last = false;
  while (!last) {
    last = writing.load() == 0;  // one more dump after every writer is done
    if (!obs::recorder().dump_incident("concurrent")) break;
    dumps.fetch_add(1);
    std::istringstream text(slurp(path));
    std::string line;
    std::getline(text, line);  // the header
    while (std::getline(text, line)) {
      unsigned w = 0, i = 0;
      if (std::sscanf(line.c_str(), "{\"w\":%u,\"i\":%u,", &w, &i) != 2 ||
          w >= kWriters || line != concurrent_line(w, i))
        torn.push_back(line);
      ++frames;
    }
  }
  for (std::thread& t : writers) t.join();
  EXPECT_GE(dumps.load(), kMinDumps);
  EXPECT_GE(frames, obs::Recorder::kFrames);
  EXPECT_TRUE(torn.empty()) << torn.size() << " torn frames of " << frames
                            << ", first: " << torn.front();
  close(fd);
  obs::recorder().set_postmortem_fd(-1);
  std::remove(path.c_str());
}

// The end-to-end fatal path: the child process arms the crash handlers the
// way `synat serve --postmortem` does, records activity, then segfaults.
// Async-signal-safety is what's under test — the dump runs inside the
// SIGSEGV handler.
TEST_F(RecorderTest, FatalSignalDumpsTheLastEventsAndReRaises) {
  std::string path = tmp_path("fatal");
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    int fd = open(path.c_str(), O_CREAT | O_WRONLY | O_CLOEXEC, 0644);
    if (fd < 0) _exit(10);
    obs::Recorder& rec = obs::Recorder::instance();
    rec.set_postmortem_fd(fd);
    support::crash::arm([](int sig) {
      obs::Recorder::instance().dump_incident("fatal_signal", sig);
    });
    for (int i = 0; i < 300; ++i)
      rec.note("{\"rec\":\"n\",\"i\":" + std::to_string(i) + "}");
    raise(SIGSEGV);
    _exit(11);  // unreachable: the handler re-raises with default disposition
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  // The supervisor still sees the truth: death by SIGSEGV, not a clean exit.
  ASSERT_TRUE(WIFSIGNALED(status)) << status;
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);
  std::string text = slurp(path);
  EXPECT_NE(text.find("\"reason\":\"fatal_signal\",\"signal\":11"),
            std::string::npos)
      << text.substr(0, 200);
  // Last-N semantics survive the signal context: the newest frame is there,
  // the overwritten oldest is not.
  EXPECT_NE(text.find("\"i\":299}"), std::string::npos);
  EXPECT_EQ(text.find("\"i\":0}"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace synat
