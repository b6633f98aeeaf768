// Hash combinators used by the model checker's state canonicalization and
// by analysis keys. FNV-1a based; not cryptographic, chosen for speed and
// determinism across runs (no pointer hashing).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace synat {

inline constexpr uint64_t kFnvOffset = 14695981039346656037ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

constexpr uint64_t hash_mix(uint64_t h, uint64_t v) {
  // Mix each byte of v.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

constexpr uint64_t hash_bytes(std::string_view bytes, uint64_t h = kFnvOffset) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

/// CRC-32 (IEEE 802.3 polynomial, reflected). Used to checksum cache
/// snapshot entries so corruption is detected per entry, not by a crash
/// halfway through decoding. Pass a previous value to continue a running
/// checksum.
uint32_t crc32(std::string_view bytes, uint32_t crc = 0);

/// Accumulating hasher for composite states.
class Hasher {
 public:
  Hasher& mix(uint64_t v) {
    h_ = hash_mix(h_, v);
    return *this;
  }
  Hasher& mix(std::string_view s) {
    h_ = hash_bytes(s, h_);
    h_ = hash_mix(h_, s.size());
    return *this;
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = kFnvOffset;
};

/// `v` as 16 lowercase hex digits: how fingerprints and cache keys are
/// printed in reports and replies.
std::string hex64(uint64_t v);

}  // namespace synat
