// Chunk format of the durability engine.
//
// A checkpoint slot image is no longer an opaque byte stream: it is a
// self-describing sequence of fixed-size chunks, each carrying an integrity
// header, so that
//   * chunks can be serialized independently (the WritePipeline parallelizes
//     the save across --ckpt_threads workers at deterministic image offsets),
//   * unchanged chunks can be skipped (incremental checkpointing is a dirty-
//     chunk filter over the same engine, not a parallel implementation), and
//   * a crash mid-save leaves *detectable* evidence: a torn slot mixes chunk
//     versions / breaks CRCs instead of silently memcpy-ing garbage back.
//
// Slot image layout (all offsets fixed by the object set and chunk size):
//
//   [SlotHeader][u64 object_bytes[object_count]]     <- written LAST in a save
//   [ChunkHeader][payload] [ChunkHeader][payload] ...<- chunk_count entries
//
// A chunk header carries the version of the save that wrote it; chunks the
// dirty filter skipped keep their older version. The slot header is written
// after every chunk landed, and the backend's (slot, version) marker is
// committed after that — the double-buffer commit order, so a crash
// mid-checkpoint leaves the previous checkpoint intact and the torn slot
// holds chunks newer than its own header.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace adcc::checkpoint {

/// A view of one application object included in checkpoints. Zero-byte
/// objects are legal (they occupy a table entry but no chunks).
struct ObjectView {
  std::string name;
  void* data = nullptr;
  std::size_t bytes = 0;
};

/// Total payload bytes of an object set.
std::size_t total_bytes(std::span<const ObjectView> objs);

/// CRC-32 (IEEE, reflected 0xEDB88320), slicing-by-16. `seed` chains:
/// crc32(b, nb, crc32(a, na)) is the CRC of a followed by b.
std::uint32_t crc32(const void* data, std::size_t bytes, std::uint32_t seed = 0);

/// How the engine splits and serializes a checkpoint.
struct ChunkConfig {
  std::size_t chunk_bytes = 256u << 10;  ///< --ckpt_chunk_kb (payload per chunk).
  int threads = 1;                       ///< --ckpt_threads (pipeline workers).
  /// --ckpt_async: CheckpointSet::save dispatches to save_async (stage +
  /// background drain, one save in flight) instead of blocking through the
  /// device window.
  bool async = false;
};

inline constexpr std::uint32_t kSlotMagic = 0x41444343u;   // "ADCC"
inline constexpr std::uint32_t kChunkMagic = 0x41446B63u;  // "ADkc"
/// Format 4: 32-byte ChunkHeader (the version of the save that wrote the
/// chunk plus one payload CRC); the payload is stored raw.
inline constexpr std::uint32_t kChunkFormat = 4;

/// Fixed-size slot prologue; the object-size table (u64 per object) follows.
struct SlotHeader {
  std::uint32_t magic = 0;
  std::uint32_t format = 0;
  std::uint64_t version = 0;       ///< Checkpoint version of the slot image.
  std::uint64_t chunk_bytes = 0;   ///< Payload capacity the image was cut with.
  std::uint64_t payload_bytes = 0;
  std::uint32_t object_count = 0;
  std::uint32_t chunk_count = 0;
  std::uint32_t table_crc = 0;     ///< CRC of the object-size table.
  std::uint32_t header_crc = 0;    ///< CRC of this struct with header_crc = 0.
};
static_assert(sizeof(SlotHeader) == 48);

/// Per-chunk prologue, immediately followed by the payload_bytes raw payload.
struct ChunkHeader {
  std::uint32_t magic = 0;
  std::uint32_t object = 0;         ///< Object index in registration order.
  std::uint32_t index = 0;          ///< Chunk index within the object.
  std::uint32_t payload_bytes = 0;  ///< Payload bytes after this header.
  std::uint64_t version = 0;        ///< Version of the save that wrote it.
  std::uint32_t payload_crc = 0;    ///< CRC of the payload.
  std::uint32_t header_crc = 0;     ///< CRC of this struct with header_crc = 0.
};
static_assert(sizeof(ChunkHeader) == 32);

std::uint32_t slot_header_crc(const SlotHeader& h);
std::uint32_t chunk_header_crc(const ChunkHeader& h);

/// The deterministic chunk decomposition of an object set: every chunk's
/// identity and image offset is a pure function of (objects, chunk_bytes), so
/// pipeline workers write disjoint spans and images are byte-identical across
/// worker counts.
struct ChunkLayout {
  struct Chunk {
    std::uint32_t object = 0;
    std::uint32_t index = 0;
    std::size_t object_offset = 0;
    std::uint32_t payload_bytes = 0;
    std::size_t image_offset = 0;  ///< Of the ChunkHeader.
  };

  std::vector<Chunk> chunks;
  std::vector<std::uint64_t> object_bytes;
  std::size_t header_bytes = 0;  ///< SlotHeader + object-size table.
  std::size_t image_bytes = 0;
  std::size_t payload_bytes = 0;

  static ChunkLayout make(std::span<const ObjectView> objs, std::size_t chunk_bytes);
};

/// Slot capacity one checkpoint of `objs` needs under `chunk_bytes` chunking
/// (payload + chunk headers + slot header) — for sizing NVM slot allocations.
std::size_t checkpoint_image_bytes(std::span<const ObjectView> objs, std::size_t chunk_bytes);

}  // namespace adcc::checkpoint
