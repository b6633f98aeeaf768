#include "synat/obs/recorder.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "synat/obs/export.h"
#include "synat/obs/obs.h"

namespace synat::obs {

namespace {

// Async-signal-safe unsigned decimal formatter (snprintf is not on the
// POSIX safe list). Returns the number of characters written.
size_t format_u64(char* buf, uint64_t v) {
  char tmp[20];
  size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

bool write_all(int fd, const char* data, size_t len) {
  while (len > 0) {
    ssize_t n = write(fd, data, len);
    if (n < 0) return false;  // EINTR aside, there is no retry in a handler
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

Recorder& Recorder::instance() {
  static Recorder* r = new Recorder();  // leaked: usable during teardown
  return *r;
}

static_assert(std::atomic<uint32_t>::is_always_lock_free &&
                  std::atomic<uint64_t>::is_always_lock_free,
              "the dump path reads frames from a signal handler");

void Recorder::note(std::string_view line) {
  const size_t len = std::min(line.size(), kFrameBytes - 1);
  Frame* f = nullptr;
  uint32_t seq = 0;
  do {
    f = &frames_[head_.fetch_add(1, std::memory_order_relaxed) % kFrames];
    seq = f->seq.load(std::memory_order_relaxed);
  } while ((seq & 1) != 0 ||
           !f->seq.compare_exchange_strong(seq, seq + 1,
                                           std::memory_order_relaxed));
  // The odd sequence is ordered before every payload store: a reader that
  // sees one of them sees the frame owned when it re-reads the sequence.
  std::atomic_thread_fence(std::memory_order_release);
  for (size_t off = 0; off < len; off += sizeof(uint64_t)) {
    uint64_t word = 0;
    std::memcpy(&word, line.data() + off,
                std::min(sizeof(uint64_t), len - off));
    f->words[off / sizeof(uint64_t)].store(word, std::memory_order_relaxed);
  }
  f->len.store(static_cast<uint32_t>(len), std::memory_order_relaxed);
  f->seq.store(seq + 2, std::memory_order_release);
}

bool Recorder::read_frame(const Frame& f, char* buf, uint32_t& len) {
  const uint32_t seq = f.seq.load(std::memory_order_acquire);
  if ((seq & 1) != 0) return false;  // a writer owns it
  len = f.len.load(std::memory_order_relaxed);
  if (len == 0 || len >= kFrameBytes) return false;
  for (size_t off = 0; off < len; off += sizeof(uint64_t)) {
    const uint64_t word =
        f.words[off / sizeof(uint64_t)].load(std::memory_order_relaxed);
    std::memcpy(buf + off, &word, sizeof(uint64_t));
  }
  // Orders the payload loads before the re-read: a payload store seen above
  // makes the writer's odd sequence visible here.
  std::atomic_thread_fence(std::memory_order_acquire);
  return f.seq.load(std::memory_order_relaxed) == seq;
}

void Recorder::note_span(uint32_t stage, uint64_t start_ns, uint64_t dur_ns) {
  char buf[160];
  std::string_view name = stage_name(static_cast<StageId>(stage));
  int n = std::snprintf(buf, sizeof(buf),
                        "{\"rec\":\"span\",\"stage\":\"%.*s\",\"start_ns\":%llu"
                        ",\"dur_ns\":%llu}",
                        static_cast<int>(name.size()), name.data(),
                        static_cast<unsigned long long>(start_ns),
                        static_cast<unsigned long long>(dur_ns));
  if (n > 0) note(std::string_view(buf, static_cast<size_t>(n)));
}

void Recorder::note_event(const char* what, const char* detail) {
  std::string line = "{\"rec\":\"note\",\"what\":";
  append_json_escaped(line, what);
  line += ",\"detail\":";
  // Shorten the raw detail until the closed object fits one frame: cutting
  // before escaping never splits an escape sequence, and a cut never ends
  // inside a UTF-8 sequence.
  std::string_view d(detail);
  std::string esc;
  for (;;) {
    esc.clear();
    append_json_escaped(esc, d);
    const size_t len = line.size() + esc.size() + 1;
    if (len < kFrameBytes) break;
    d.remove_suffix(std::min(d.size(), len - (kFrameBytes - 1)));
    while (!d.empty() && (static_cast<unsigned char>(d.back()) & 0xC0) == 0x80)
      d.remove_suffix(1);
    if (!d.empty() && static_cast<unsigned char>(d.back()) >= 0xC0)
      d.remove_suffix(1);
  }
  line += esc;
  line += '}';
  note(line);
}

void Recorder::set_postmortem_fd(int fd) {
  fd_.store(fd, std::memory_order_release);
}

int Recorder::postmortem_fd() const {
  return fd_.load(std::memory_order_acquire);
}

bool Recorder::dump_incident(const char* reason, int signal) {
  int fd = postmortem_fd();
  if (fd < 0) return false;
  // Latest incident wins: rewind and truncate, then header + ring.
  if (lseek(fd, 0, SEEK_SET) < 0) return false;
  [[maybe_unused]] int rc = ftruncate(fd, 0);

  char header[192];
  size_t n = 0;
  const char* prefix = "{\"rec\":\"postmortem\",\"schema\":\"synat-postmortem\""
                       ",\"v\":1,\"reason\":\"";
  std::memcpy(header + n, prefix, std::strlen(prefix));
  n += std::strlen(prefix);
  size_t rlen = std::strlen(reason);
  if (rlen > 64) rlen = 64;
  std::memcpy(header + n, reason, rlen);
  n += rlen;
  const char* mid = "\",\"signal\":";
  std::memcpy(header + n, mid, std::strlen(mid));
  n += std::strlen(mid);
  n += format_u64(header + n, static_cast<uint64_t>(signal < 0 ? 0 : signal));
  const char* suffix = ",\"frames\":";
  std::memcpy(header + n, suffix, std::strlen(suffix));
  n += std::strlen(suffix);
  uint64_t total = head_.load(std::memory_order_relaxed);
  uint64_t live = total < kFrames ? total : kFrames;
  n += format_u64(header + n, live);
  header[n++] = '}';
  header[n++] = '\n';
  if (!write_all(fd, header, n)) return false;

  uint64_t first = total < kFrames ? 0 : total - kFrames;
  char line[kFrameBytes];
  for (uint64_t i = first; i < total; ++i) {
    uint32_t len = 0;
    if (!read_frame(frames_[i % kFrames], line, len)) continue;
    line[len] = '\n';
    write_all(fd, line, len + 1);
  }
  fsync(fd);
  return true;
}

uint64_t Recorder::captured() const {
  return head_.load(std::memory_order_relaxed);
}

void Recorder::reset() {
  head_.store(0, std::memory_order_relaxed);
  for (Frame& f : frames_) f.len.store(0, std::memory_order_relaxed);
}

}  // namespace synat::obs
