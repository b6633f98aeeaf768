// Always-on flight recorder (DESIGN.md §3i): a bounded, lock-free ring of
// the last N preformatted frames — wide-event lines, serve-stage span
// edges, and free-form notes — kept in memory at all times so the daemon's
// final moments can be dumped from the fatal-signal path.
//
// Each frame is a seqlock. Its sequence number is odd while one writer owns
// the frame, and its payload is a run of relaxed atomic words, so a reader
// racing a writer copies well-defined values and never touches a byte the
// writer is storing non-atomically.
//
// Write path: one atomic fetch_add to claim a slot, a compare-exchange that
// makes the frame's sequence odd, the payload copied word by word, and a
// release store of the next even sequence. No locks, no allocation, no
// clock. A writer whose frame another writer still owns (the ring wrapped
// during that write) claims the next slot instead.
//
// Read path (the dumps): a frame is kept only if its sequence is even and
// unchanged across the copy, so a dump never emits a torn frame. A frame
// being written, or rewritten during the copy, is skipped.
//
// Dump path: dump_incident() rewinds the pre-opened postmortem fd and
// writes a header line plus the ring oldest-first, using only write/lseek/
// ftruncate/fsync and lock-free atomics — async-signal-safe, so
// support/crash.h can call it from a SIGSEGV handler. The latest incident
// wins the file (quarantine trips and worker-death dumps are overwritten by
// a later fatal dump, which is the one you want).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace synat::obs {

class Recorder {
 public:
  static constexpr size_t kFrameBytes = 512;  ///< max frame payload
  static constexpr size_t kFrames = 256;      ///< ring depth (last N)

  static Recorder& instance();

  /// Copies one preformatted line (a rendered event, or any single-line
  /// JSON record) into the ring; truncated to kFrameBytes - 1.
  void note(std::string_view line);

  /// Records a serve-stage span edge as a {"rec":"span",...} frame.
  void note_span(uint32_t stage, uint64_t start_ns, uint64_t dur_ns);

  /// Records a free-form incident marker as {"rec":"note","what":...,
  /// "detail":...}: both strings JSON-escaped, the detail shortened so the
  /// object fits one frame. Not signal-safe (it allocates).
  void note_event(const char* what, const char* detail);

  /// Pre-opens the postmortem sink. The fd stays open for the process
  /// lifetime (the fatal-signal path cannot open files); -1 disables dumps.
  void set_postmortem_fd(int fd);
  int postmortem_fd() const;

  /// Rewrites the postmortem file with a header ({"rec":"postmortem",
  /// "reason":...,"signal":...}) and the ring oldest-first. Async-signal-
  /// safe; `reason` must be a literal or otherwise signal-safe string.
  /// Returns false when no fd is armed.
  bool dump_incident(const char* reason, int signal = 0);

  /// Ring slots ever claimed (monotonic; min(captured, kFrames) are live).
  /// Equals the frames recorded unless a writer skipped a slot that another
  /// writer still owned.
  uint64_t captured() const;

  /// Clears the ring (tests). Does not touch the postmortem fd.
  void reset();

 private:
  Recorder() = default;

  static constexpr size_t kFrameWords = kFrameBytes / sizeof(uint64_t);

  struct Frame {
    std::atomic<uint32_t> seq{0};  ///< odd while a writer owns the frame
    std::atomic<uint32_t> len{0};  ///< payload bytes; 0 for an empty frame
    std::atomic<uint64_t> words[kFrameWords] = {};
  };

  /// Copies `f`'s payload into `buf` (kFrameBytes) and its length into
  /// `len`; false when the frame is empty, owned by a writer, or rewritten
  /// during the copy. Async-signal-safe.
  static bool read_frame(const Frame& f, char* buf, uint32_t& len);

  Frame frames_[kFrames];
  std::atomic<uint64_t> head_{0};
  std::atomic<int> fd_{-1};
};

inline Recorder& recorder() { return Recorder::instance(); }

}  // namespace synat::obs
