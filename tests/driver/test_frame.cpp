// Tests for the supervisor/worker plumbing (DESIGN.md §3d): the pipe frame
// codec, the shared binary report codec, and the subprocess helpers.
#include <gtest/gtest.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <cstring>

#include "synat/driver/codec.h"
#include "synat/support/frame.h"
#include "synat/support/subprocess.h"

namespace synat::support {
namespace {

using driver::ProcReport;
using driver::ProgramReport;
using driver::ProgramStatus;

/// Pipe pair whose read end mirrors the supervisor's O_NONBLOCK setup is
/// not needed for these tests: a blocking read end plus known frame counts
/// keeps them deterministic.
struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(pipe(fds), 0); }
  ~Pipe() {
    if (fds[0] >= 0) close(fds[0]);
    if (fds[1] >= 0) close(fds[1]);
  }
  int rd() const { return fds[0]; }
  int wr() const { return fds[1]; }
};

/// Reads frames until one is complete (the pipe already holds the bytes).
FrameReader::Next read_one(FrameReader& reader, int fd, FrameType& type,
                           std::string& payload) {
  for (;;) {
    FrameReader::Next n = reader.next(type, payload);
    if (n != FrameReader::Next::Need) return n;
    FrameReader::Fill f = reader.fill(fd);
    if (f != FrameReader::Fill::Data) return FrameReader::Next::Need;
  }
}

TEST(FrameCodec, RoundTripsOneFrame) {
  Pipe p;
  ASSERT_TRUE(write_frame(p.wr(), FrameType::Result, "hello supervisor"));
  FrameReader reader;
  FrameType type{};
  std::string payload;
  ASSERT_EQ(read_one(reader, p.rd(), type, payload),
            FrameReader::Next::Frame);
  EXPECT_EQ(type, FrameType::Result);
  EXPECT_EQ(payload, "hello supervisor");
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameCodec, RoundTripsEmptyHeartbeat) {
  Pipe p;
  ASSERT_TRUE(write_frame(p.wr(), FrameType::Heartbeat, {}));
  FrameReader reader;
  FrameType type{};
  std::string payload = "stale";
  ASSERT_EQ(read_one(reader, p.rd(), type, payload),
            FrameReader::Next::Frame);
  EXPECT_EQ(type, FrameType::Heartbeat);
  EXPECT_TRUE(payload.empty());
}

TEST(FrameCodec, ExtractsBackToBackFrames) {
  Pipe p;
  ASSERT_TRUE(write_frame(p.wr(), FrameType::Heartbeat, {}));
  ASSERT_TRUE(write_frame(p.wr(), FrameType::Result, "payload"));
  FrameReader reader;
  ASSERT_EQ(reader.fill(p.rd()), FrameReader::Fill::Data);
  FrameType type{};
  std::string payload;
  ASSERT_EQ(reader.next(type, payload), FrameReader::Next::Frame);
  EXPECT_EQ(type, FrameType::Heartbeat);
  ASSERT_EQ(reader.next(type, payload), FrameReader::Next::Frame);
  EXPECT_EQ(type, FrameType::Result);
  EXPECT_EQ(payload, "payload");
  EXPECT_EQ(reader.next(type, payload), FrameReader::Next::Need);
}

TEST(FrameCodec, PartialHeaderNeedsMoreBytes) {
  Pipe p;
  // Half a header: magic only.
  ASSERT_EQ(write(p.wr(), "SYNF", 4), 4);
  FrameReader reader;
  ASSERT_EQ(reader.fill(p.rd()), FrameReader::Fill::Data);
  FrameType type{};
  std::string payload;
  EXPECT_EQ(reader.next(type, payload), FrameReader::Next::Need);
}

TEST(FrameCodec, CrcMismatchIsCorrupt) {
  Pipe raw;
  ASSERT_TRUE(write_frame(raw.wr(), FrameType::Result, "sensitive bits"));
  char buf[256];
  ssize_t n = read(raw.rd(), buf, sizeof buf);
  ASSERT_GT(n, 16);
  buf[20] ^= 0x01;  // flip one payload bit behind the checksum
  Pipe p;
  ASSERT_EQ(write(p.wr(), buf, static_cast<size_t>(n)), n);
  FrameReader reader;
  ASSERT_EQ(reader.fill(p.rd()), FrameReader::Fill::Data);
  FrameType type{};
  std::string payload;
  EXPECT_EQ(reader.next(type, payload), FrameReader::Next::Corrupt);
}

TEST(FrameCodec, BadMagicIsCorrupt) {
  Pipe p;
  const char junk[20] = "XXXXnot a frame at ";
  ASSERT_EQ(write(p.wr(), junk, sizeof junk),
            static_cast<ssize_t>(sizeof junk));
  FrameReader reader;
  ASSERT_EQ(reader.fill(p.rd()), FrameReader::Fill::Data);
  FrameType type{};
  std::string payload;
  EXPECT_EQ(reader.next(type, payload), FrameReader::Next::Corrupt);
}

TEST(FrameCodec, EofAfterPeerCloses) {
  Pipe p;
  close(p.fds[1]);
  p.fds[1] = -1;
  FrameReader reader;
  EXPECT_EQ(reader.fill(p.rd()), FrameReader::Fill::Eof);
}

// ---------------------------------------------------------------------------
// Shared report codec

ProcReport sample_proc() {
  ProcReport r;
  r.name = "Deq";
  r.line = 12;
  r.atomic = false;
  r.atomicity = "compound";
  r.bailed_out = true;
  r.key = 0x1234abcd5678ef00ull;
  r.variants.push_back({"Deq'2",
                        "compound",
                        {{14, "R", "x := Head"}, {15, "N", "CAS2(...)"}},
                        {{"A", 3}, {"N", 1}}});
  return r;
}

TEST(ReportCodec, ProcReportRoundTrips) {
  ProcReport in = sample_proc();
  in.degraded = true;
  in.degrade_kind = "deadline";
  in.degrade_reason = "budget exceeded in mover classification";
  std::string bytes;
  driver::codec::put_proc_report(bytes, in);
  driver::codec::Reader r(bytes);
  ProcReport out;
  ASSERT_TRUE(driver::codec::get_proc_report(r, out));
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(out.name, in.name);
  EXPECT_EQ(out.line, in.line);
  EXPECT_EQ(out.atomic, in.atomic);
  EXPECT_EQ(out.atomicity, in.atomicity);
  EXPECT_EQ(out.bailed_out, in.bailed_out);
  EXPECT_EQ(out.key, in.key);
  EXPECT_EQ(out.degraded, in.degraded);
  EXPECT_EQ(out.degrade_kind, in.degrade_kind);
  EXPECT_EQ(out.degrade_reason, in.degrade_reason);
  ASSERT_EQ(out.variants.size(), 1u);
  EXPECT_EQ(out.variants[0].tag, "Deq'2");
  ASSERT_EQ(out.variants[0].lines.size(), 2u);
  EXPECT_EQ(out.variants[0].lines[1].text, "CAS2(...)");
  ASSERT_EQ(out.variants[0].blocks.size(), 2u);
  EXPECT_EQ(out.variants[0].blocks[0].units, 3u);
}

TEST(ReportCodec, ProgramReportRoundTripsWithNullProcSlot) {
  ProgramReport in;
  in.name = "corpus:nfq_prime";
  in.fingerprint = "00ff00ff00ff00ff";
  in.status = ProgramStatus::Ok;
  in.diagnostics.push_back({"warning", 3, 7, "recovered"});
  in.procs.push_back(std::make_shared<ProcReport>(sample_proc()));
  in.procs.push_back(nullptr);
  std::string bytes;
  driver::codec::put_program_report(bytes, in);
  driver::codec::Reader r(bytes);
  ProgramReport out;
  ASSERT_TRUE(driver::codec::get_program_report(r, out));
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(out.name, in.name);
  EXPECT_EQ(out.fingerprint, in.fingerprint);
  EXPECT_EQ(out.status, ProgramStatus::Ok);
  ASSERT_EQ(out.diagnostics.size(), 1u);
  EXPECT_EQ(out.diagnostics[0].message, "recovered");
  ASSERT_EQ(out.procs.size(), 2u);
  ASSERT_NE(out.procs[0], nullptr);
  EXPECT_EQ(out.procs[0]->name, "Deq");
  EXPECT_EQ(out.procs[1], nullptr);
}

TEST(ReportCodec, TruncatedPayloadFailsToDecode) {
  ProgramReport in;
  in.name = "p";
  in.procs.push_back(std::make_shared<ProcReport>(sample_proc()));
  std::string bytes;
  driver::codec::put_program_report(bytes, in);
  for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{3}}) {
    driver::codec::Reader r(std::string_view(bytes).substr(0, cut));
    ProgramReport out;
    EXPECT_FALSE(driver::codec::get_program_report(r, out)) << "cut=" << cut;
  }
}

TEST(ReportCodec, AbsurdCollectionCountIsRejectedNotAllocated) {
  // A bare u64 "variant count" of 2^40 must fail the cap check instead of
  // driving resize(2^40).
  std::string bytes;
  driver::codec::put_str(bytes, "name");
  driver::codec::put_u64(bytes, 1);      // line
  driver::codec::put_u64(bytes, 0);      // atomic
  driver::codec::put_str(bytes, "A");    // atomicity
  driver::codec::put_u64(bytes, 0);      // no_variants
  driver::codec::put_u64(bytes, 0);      // bailed_out
  driver::codec::put_u64(bytes, 42);     // key
  driver::codec::put_u64(bytes, 0);      // degraded
  driver::codec::put_str(bytes, "");     // degrade_kind
  driver::codec::put_str(bytes, "");     // degrade_reason
  driver::codec::put_u64(bytes, uint64_t{1} << 40);  // variant count
  driver::codec::Reader r(bytes);
  ProcReport out;
  EXPECT_FALSE(driver::codec::get_proc_report(r, out));
}

// ---------------------------------------------------------------------------
// Subprocess helpers

TEST(Subprocess, EchoChildRoundTripsAFrame) {
  Child c = spawn_child(
      [](int in, int out) {
        FrameReader reader;
        FrameType type{};
        std::string payload;
        if (read_one(reader, in, type, payload) != FrameReader::Next::Frame)
          return 9;
        if (!write_frame(out, FrameType::Result, payload)) return 10;
        return 0;
      },
      ChildLimits{});
  ASSERT_TRUE(c.valid());
  ASSERT_TRUE(write_frame(c.to_child, FrameType::Provenance, "ping"));
  FrameReader reader;
  FrameType type{};
  std::string payload;
  // from_child is O_NONBLOCK; spin fill until the child's bytes arrive.
  for (;;) {
    FrameReader::Next n = reader.next(type, payload);
    if (n == FrameReader::Next::Frame) break;
    ASSERT_EQ(n, FrameReader::Next::Need);
    FrameReader::Fill f = reader.fill(c.from_child);
    ASSERT_NE(f, FrameReader::Fill::Failed);
    ASSERT_NE(f, FrameReader::Fill::Eof);
  }
  EXPECT_EQ(type, FrameType::Result);
  EXPECT_EQ(payload, "ping");
  int status = wait_child(c.pid);
  EXPECT_TRUE(exited_cleanly(status));
  close(c.to_child);
  close(c.from_child);
}

TEST(Subprocess, NonZeroExitIsReportedAndDescribed) {
  Child c = spawn_child([](int, int) { return 7; }, ChildLimits{});
  ASSERT_TRUE(c.valid());
  int status = wait_child(c.pid);
  EXPECT_FALSE(exited_cleanly(status));
  EXPECT_EQ(describe_wait_status(status), "exit 7");
  close(c.to_child);
  close(c.from_child);
}

TEST(Subprocess, SignalDeathIsDescribedByName) {
  Child c = spawn_child(
      [](int, int) {
        raise(SIGKILL);
        return 0;
      },
      ChildLimits{});
  ASSERT_TRUE(c.valid());
  std::string desc = describe_wait_status(wait_child(c.pid));
  EXPECT_NE(desc.find("SIGKILL"), std::string::npos) << desc;
  close(c.to_child);
  close(c.from_child);
}

TEST(Subprocess, ThrowingBodyExitsWithBackstopCode) {
  Child c = spawn_child(
      [](int, int) -> int { throw std::runtime_error("boom"); },
      ChildLimits{});
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(describe_wait_status(wait_child(c.pid)), "exit 112");
  close(c.to_child);
  close(c.from_child);
}

#if defined(__SANITIZE_ADDRESS__)
#define SYNAT_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SYNAT_TEST_ASAN 1
#endif
#endif

#if !defined(SYNAT_TEST_ASAN)
TEST(Subprocess, AddressSpaceLimitContainsAllocation) {
  // RLIMIT_AS is incompatible with ASan shadow memory, so this test only
  // runs in plain builds.
  ChildLimits limits;
  limits.max_rss_mb = 64;
  Child c = spawn_child(
      [](int, int) {
        constexpr size_t kChunk = 8u << 20;
        for (int i = 0; i < 64; ++i) {  // 512 MiB >> the 64 MiB cap
          void* p = std::malloc(kChunk);
          if (p == nullptr) return 55;  // the cap worked
          std::memset(p, 0xcd, kChunk);
        }
        return 0;  // the cap failed to bite
      },
      limits);
  ASSERT_TRUE(c.valid());
  int status = wait_child(c.pid);
  EXPECT_FALSE(exited_cleanly(status)) << describe_wait_status(status);
  close(c.to_child);
  close(c.from_child);
}
#endif

}  // namespace
}  // namespace synat::support
