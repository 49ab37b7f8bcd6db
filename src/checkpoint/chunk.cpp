#include "checkpoint/chunk.hpp"

#include <array>
#include <cstring>

#include "common/check.hpp"

namespace adcc::checkpoint {

std::size_t total_bytes(std::span<const ObjectView> objs) {
  std::size_t n = 0;
  for (const ObjectView& o : objs) n += o.bytes;
  return n;
}

namespace {

// Slicing-by-16: t[0] is the bytewise table of the reflected CRC-32
// (polynomial 0xEDB88320); t[k][b] is the register update for byte b followed
// by k zero bytes, so one step folds 16 input bytes with 16 independent
// lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t bytes, std::uint32_t seed) {
  static const CrcTables t = make_crc_tables();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~seed;
  while (bytes >= 16) {
    const std::uint32_t w0 = load_le32(p) ^ c;
    const std::uint32_t w1 = load_le32(p + 4);
    const std::uint32_t w2 = load_le32(p + 8);
    const std::uint32_t w3 = load_le32(p + 12);
    c = t[15][w0 & 0xFFu] ^ t[14][(w0 >> 8) & 0xFFu] ^ t[13][(w0 >> 16) & 0xFFu] ^ t[12][w0 >> 24] ^
        t[11][w1 & 0xFFu] ^ t[10][(w1 >> 8) & 0xFFu] ^ t[9][(w1 >> 16) & 0xFFu] ^ t[8][w1 >> 24] ^
        t[7][w2 & 0xFFu] ^ t[6][(w2 >> 8) & 0xFFu] ^ t[5][(w2 >> 16) & 0xFFu] ^ t[4][w2 >> 24] ^
        t[3][w3 & 0xFFu] ^ t[2][(w3 >> 8) & 0xFFu] ^ t[1][(w3 >> 16) & 0xFFu] ^ t[0][w3 >> 24];
    p += 16;
    bytes -= 16;
  }
  while (bytes-- > 0) c = (c >> 8) ^ t[0][(c ^ *p++) & 0xFFu];
  return ~c;
}

std::uint32_t slot_header_crc(const SlotHeader& h) {
  SlotHeader copy = h;
  copy.header_crc = 0;
  return crc32(&copy, sizeof(copy));
}

std::uint32_t chunk_header_crc(const ChunkHeader& h) {
  ChunkHeader copy = h;
  copy.header_crc = 0;
  return crc32(&copy, sizeof(copy));
}

ChunkLayout ChunkLayout::make(std::span<const ObjectView> objs, std::size_t chunk_bytes) {
  ADCC_CHECK(chunk_bytes > 0, "chunk size must be positive");
  ChunkLayout layout;
  layout.object_bytes.reserve(objs.size());
  std::size_t off = sizeof(SlotHeader) + objs.size() * sizeof(std::uint64_t);
  layout.header_bytes = off;
  for (std::size_t oi = 0; oi < objs.size(); ++oi) {
    const ObjectView& o = objs[oi];
    layout.object_bytes.push_back(o.bytes);
    layout.payload_bytes += o.bytes;
    for (std::size_t pos = 0; pos < o.bytes; pos += chunk_bytes) {
      Chunk c;
      c.object = static_cast<std::uint32_t>(oi);
      c.index = static_cast<std::uint32_t>(pos / chunk_bytes);
      c.object_offset = pos;
      c.payload_bytes = static_cast<std::uint32_t>(std::min(chunk_bytes, o.bytes - pos));
      c.image_offset = off;
      off += sizeof(ChunkHeader) + c.payload_bytes;
      layout.chunks.push_back(c);
    }
  }
  layout.image_bytes = off;
  return layout;
}

std::size_t checkpoint_image_bytes(std::span<const ObjectView> objs, std::size_t chunk_bytes) {
  return ChunkLayout::make(objs, chunk_bytes).image_bytes;
}

}  // namespace adcc::checkpoint
