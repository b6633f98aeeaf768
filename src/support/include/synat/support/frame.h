// Length-prefixed, CRC-protected frame codec for the supervisor/worker
// pipes (DESIGN.md §3d). A frame is
//
//   [u32 magic "SYNF"][u32 type][u32 payload length][u32 CRC32(payload)]
//   [payload bytes]
//
// little-endian throughout, mirroring the cache snapshot encoding. The CRC
// covers only the payload: a corrupt frame is detected by the reader and
// reported as Corrupt rather than misframing the rest of the stream — the
// supervisor treats a corrupt response like a worker crash (retry, then
// degrade), never as data.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace synat::support {

/// Worker → supervisor frame types. A worker is forked with its task bound,
/// so nothing flows the other way; type 1 (a former task request) is unused.
enum class FrameType : uint32_t {
  Result = 2,      ///< worker → supervisor: one encoded ProgramReport
  Heartbeat = 3,   ///< worker → supervisor: liveness while a task runs
  Telemetry = 4,   ///< worker → supervisor: spans + metric deltas (codec.h)
  Provenance = 5,  ///< worker → supervisor: derivation records (codec.h)
  CacheDelta = 6,  ///< worker → supervisor: new cache entries (codec.h)
};

/// Hard cap on a single frame's payload; anything larger is corruption.
inline constexpr uint32_t kMaxFramePayload = 1u << 30;

/// Writes one frame to `fd`, looping over partial writes and EINTR.
/// Returns false on any other write error (e.g. EPIPE after the peer
/// died); the caller decides whether that is fatal.
bool write_frame(int fd, FrameType type, std::string_view payload);

/// Incremental frame decoder over a byte stream. fill() pulls whatever the
/// fd has ready (usable with O_NONBLOCK + poll), next() extracts complete
/// frames from the buffer.
class FrameReader {
 public:
  enum class Fill : uint8_t {
    Data,     ///< read() returned bytes
    Eof,      ///< peer closed the pipe
    Blocked,  ///< nothing ready (EAGAIN)
    Failed,   ///< read error
  };
  Fill fill(int fd);

  enum class Next : uint8_t {
    Frame,    ///< one complete, checksum-verified frame extracted
    Need,     ///< buffer holds only a partial frame
    Corrupt,  ///< bad magic, oversized length, or CRC mismatch
  };
  Next next(FrameType& type, std::string& payload);

  /// Bytes buffered but not yet consumed (test hook).
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  size_t pos_ = 0;
};

}  // namespace synat::support
