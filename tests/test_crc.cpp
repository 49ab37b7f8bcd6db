// Unit tests for checkpoint::crc32, the checksum behind every slot header,
// chunk header and payload: a known answer, and a bit-at-a-time reference
// that pins the table-driven implementation for every length and alignment
// its unrolled loop distinguishes.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "checkpoint/chunk.hpp"

namespace adcc::checkpoint {
namespace {

// The textbook reflected CRC-32: one input bit per step, no tables.
std::uint32_t crc32_bitwise(const unsigned char* p, std::size_t bytes, std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

std::vector<unsigned char> pseudo_random_bytes(std::size_t n) {
  std::vector<unsigned char> v(n);
  std::uint32_t x = 0x9E3779B9u;
  for (unsigned char& b : v) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<unsigned char>(x >> 24);
  }
  return v;
}

TEST(Crc32, KnownAnswer) {
  const char msg[] = "123456789";
  EXPECT_EQ(crc32(msg, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(msg, 0), 0u);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const std::vector<unsigned char> buf = pseudo_random_bytes(16 + 300);
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const unsigned char* p = buf.data() + off;
      ASSERT_EQ(crc32(p, len), crc32_bitwise(p, len, 0)) << "offset " << off << " length " << len;
      ASSERT_EQ(crc32(p, len, 0xDEADBEEFu), crc32_bitwise(p, len, 0xDEADBEEFu))
          << "seeded, offset " << off << " length " << len;
    }
  }
}

TEST(Crc32, SeedChainsAcrossSplits) {
  const std::vector<unsigned char> buf = pseudo_random_bytes(300);
  const std::uint32_t whole = crc32(buf.data(), buf.size());
  for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
    const std::uint32_t head = crc32(buf.data(), cut);
    ASSERT_EQ(crc32(buf.data() + cut, buf.size() - cut, head), whole) << "cut at " << cut;
  }
}

}  // namespace
}  // namespace adcc::checkpoint
