#include "synat/support/hash.h"

#include <array>

namespace synat {

namespace {

constexpr std::array<uint32_t, 256> make_crc_table() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kCrcTable = make_crc_table();

}  // namespace

uint32_t crc32(std::string_view bytes, uint32_t crc) {
  crc = ~crc;
  for (unsigned char c : bytes) crc = kCrcTable[(crc ^ c) & 0xff] ^ (crc >> 8);
  return ~crc;
}

std::string hex64(uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4)
    s[static_cast<size_t>(i)] = digits[v & 0xf];
  return s;
}

}  // namespace synat
