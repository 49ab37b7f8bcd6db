#include "checkpoint/checkpoint_set.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"
#include "core/telemetry.hpp"

namespace adcc::checkpoint {

void CheckpointSet::add(std::string name, void* data, std::size_t bytes) {
  ADCC_CHECK(!frozen_, "objects must be registered before the first save");
  ADCC_CHECK(data != nullptr || bytes == 0, "non-empty object needs a pointer");
  objs_.push_back({std::move(name), data, bytes});
}

int CheckpointSet::save_slot() const {
  // Alternate away from the committed image; before the first commit the
  // version parity seeds the alternation (save 1 targets slot 1).
  if (committed_slot_ >= 0) return 1 - committed_slot_;
  return static_cast<int>((version_ + 1) % 2);
}

const ChunkLayout& CheckpointSet::layout() {
  // A pure function of (objects, chunk size); objects freeze at the first
  // save, so the memo only invalidates on a chunk-size reconfiguration.
  const std::size_t chunk_bytes = backend_.chunk_config().chunk_bytes;
  if (!layout_ || layout_chunk_bytes_ != chunk_bytes) {
    layout_ = std::make_shared<const ChunkLayout>(ChunkLayout::make(objs_, chunk_bytes));
    layout_chunk_bytes_ = chunk_bytes;
  }
  return *layout_;
}

const std::shared_ptr<CheckpointSet::CrcCache>& CheckpointSet::slot_cache(int slot) {
  // Only called with no drain in flight, so a chunk-size reconfiguration may
  // replace the cache outright.
  auto& cache = slot_crcs_[slot];
  const std::size_t chunks = layout().chunks.size();
  if (!cache || cache->size() != chunks) cache = std::make_shared<CrcCache>(chunks);
  return cache;
}

void CheckpointSet::forget_slot(int slot) {
  if (const auto& cache = slot_crcs_[slot]) cache->assign(cache->size(), std::nullopt);
}

void CheckpointSet::committed(int slot, const SaveReceipt& receipt) {
  // The engine updated the CRC cache in place as chunks landed.
  save_stats_ = {receipt.written, receipt.skipped, receipt.payload_bytes};
  committed_slot_ = slot;
}

std::uint64_t CheckpointSet::save() {
  if (backend_.chunk_config().async) return save_async();
  ADCC_CHECK(!objs_.empty(), "no objects registered");
  wait_durable();  // An earlier async save commits (or surfaces its crash) first.
  frozen_ = true;
  const int slot = save_slot();
  const ChunkHooks hooks{point_hook_, slot_cache(slot)};
  ++version_;
  SaveReceipt receipt;
  try {
    receipt = backend_.save(slot, version_, objs_, hooks, &layout());
  } catch (...) {
    // The save died mid-flight (crash point, medium failure): some chunks of
    // the new image may be in the slot, so everything we believed about it is
    // suspect. Forget it — the next save to this slot rewrites in full — and
    // roll the version back so a retried save targets this same slot again
    // instead of advancing onto the committed one (the double buffer must
    // keep protecting the last marker).
    forget_slot(slot);
    --version_;
    throw;
  }
  committed(slot, receipt);
  return version_;
}

std::uint64_t CheckpointSet::save_async() {
  ADCC_CHECK(!objs_.empty(), "no objects registered");
  wait_durable();  // One save in flight: the previous drain commits first.
  frozen_ = true;
  const ChunkLayout& layout = this->layout();
  const int slot = save_slot();
  ChunkHooks hooks{point_hook_, slot_cache(slot)};

  // Stage: snapshot every chunk's payload into the staging arena. The drain
  // dropped its hold on the arena before publishing the outcome the join
  // above consumed, so the one arena is free again.
  if (!arena_) arena_ = std::make_shared<Staged>();
  ADCC_CHECK(arena_.use_count() == 1, "staging arena still held by a drain");
  arena_->bytes.resize(layout.payload_bytes);
  std::vector<std::size_t> object_base(objs_.size(), 0);  // Payload offset of object i.
  for (std::size_t i = 1; i < objs_.size(); ++i) {
    object_base[i] = object_base[i - 1] + objs_[i - 1].bytes;
  }
  arena_->views.clear();
  for (std::size_t i = 0; i < objs_.size(); ++i) {
    arena_->views.push_back(
        {objs_[i].name, arena_->bytes.data() + object_base[i], objs_[i].bytes});
  }
  ++version_;
  try {
    const core::StageTimer timer("ckpt/stage");
    for (const ChunkLayout::Chunk& c : layout.chunks) {
      std::memcpy(arena_->bytes.data() + object_base[c.object] + c.object_offset,
                  static_cast<const std::byte*>(objs_[c.object].data) + c.object_offset,
                  c.payload_bytes);
      if (point_hook_) point_hook_(kPointChunkStaged);
    }
  } catch (...) {
    // A crash between stage and hand-over touches nothing durable: the slot
    // (and the CRC cache describing it) is exactly as the last save left it,
    // so only the version bump rolls back.
    --version_;
    throw;
  }

  backend_.save_async(slot, version_, arena_->views, std::move(hooks), layout_, arena_);
  pending_ = Pending{version_, slot};
  return version_;
}

std::uint64_t CheckpointSet::wait_durable() {
  if (!pending_) return version_;
  const Pending p = *pending_;
  pending_.reset();
  SaveReceipt receipt;
  try {
    receipt = backend_.wait_drain();
  } catch (...) {
    // The failed slot holds an unknown mix of old and new chunks; forget it
    // and roll back so a retry targets the same uncommitted slot.
    forget_slot(p.slot);
    version_ = p.version - 1;
    throw;
  }
  committed(p.slot, receipt);
  return version_;
}

void CheckpointSet::abort_async() noexcept {
  if (!pending_) return;
  const Pending p = *pending_;
  pending_.reset();
  backend_.abort_drain();
  // The drain may even have fully committed before the cancel landed; the
  // durable marker is the arbiter.
  bool landed = false;
  try {
    const auto [slot, ver] = backend_.latest();
    landed = slot == p.slot && ver == p.version;
  } catch (...) {
  }
  if (landed) {
    committed_slot_ = p.slot;
  } else {
    // The save died mid-drain: its slot is detectably torn.
    forget_slot(p.slot);
    version_ = p.version - 1;
  }
}

std::uint64_t CheckpointSet::restore() {
  ADCC_CHECK(!objs_.empty(), "no objects registered");
  // Restoring implies a crash: a drain still in flight dies with the power
  // (inject_crash normally aborted it already; this covers direct callers).
  abort_async();
  frozen_ = true;
  restore_stats_ = {};
  const auto [slot, ver] = backend_.latest();

  // Classify the slot(s) a save may have been writing when the power failed:
  // every slot except the committed one. The same scan sizes up the salvage
  // candidate: an interrupted save that finished every chunk write before
  // the crash.
  int cand_slot = -1;
  TornProbe cand{};
  for (int s = 0; s < kSlotCount; ++s) {
    if (ver != 0 && s == slot) continue;
    const TornProbe probe = backend_.probe_torn(s, objs_);
    restore_stats_.chunks_probed += probe.chunks_probed;
    restore_stats_.torn_chunks += probe.torn_chunks;
    if (probe.salvage_ready && probe.salvage_version > ver &&
        (cand_slot < 0 || probe.salvage_version > cand.salvage_version)) {
      cand_slot = s;
      cand = probe;
    }
  }

  ChunkHooks hooks;
  hooks.point = point_hook_;

  // Torn-slot salvage: recover the interrupted save (strictly newer than the
  // marker's checkpoint) and re-commit it. Payload verification can still
  // fail — then the committed checkpoint below is the answer (it rewrites
  // every object the salvage attempt may have partially overwritten).
  if (cand_slot >= 0) {
    const std::uint64_t before = backend_.stats().chunks_loaded;
    try {
      const std::uint64_t got =
          backend_.load_salvage(cand_slot, cand.salvage_version, objs_, hooks);
      backend_.recommit(cand_slot, got);
      restore_stats_.version = got;
      restore_stats_.chunks_loaded =
          static_cast<std::size_t>(backend_.stats().chunks_loaded - before);
      restore_stats_.salvaged_chunks = cand.salvage_chunks;
      // The salvaged save's chunks are recovered, not lost: they no longer
      // count as torn evidence.
      restore_stats_.torn_chunks -= std::min(restore_stats_.torn_chunks, cand.torn_chunks);
      version_ = got;
      committed_slot_ = cand_slot;
      return got;
    } catch (const TornCheckpoint&) {
    }
  }

  if (ver == 0) return 0;

  const std::uint64_t before = backend_.stats().chunks_loaded;
  const std::uint64_t loaded = backend_.load(slot, objs_, hooks);
  restore_stats_.version = loaded;
  restore_stats_.chunks_loaded = static_cast<std::size_t>(backend_.stats().chunks_loaded - before);
  version_ = loaded;
  committed_slot_ = slot;
  return loaded;
}

std::uint64_t CheckpointSet::restore_version(std::uint64_t want) {
  ADCC_CHECK(!objs_.empty(), "no objects registered");
  abort_async();
  frozen_ = true;
  restore_stats_ = {};
  if (want == 0) {
    // Rewinding to "before the first commit": nothing durable is trusted, the
    // caller reinitializes, and the version realigns so the next save is 1.
    version_ = 0;
    committed_slot_ = -1;
    return 0;
  }
  // The marker's version may be older than the backend's newest commit (the
  // shard saved ahead of a global commit the crash interrupted); scan the slot
  // headers for the one whose committed image is exactly `want`.
  const auto [latest_slot, latest_ver] = backend_.latest();
  int found = -1;
  if (latest_ver == want) {
    found = latest_slot;
  } else {
    for (int s = 0; s < kSlotCount; ++s) {
      SlotHeader h{};
      if (backend_.read_image(s, {reinterpret_cast<std::byte*>(&h), sizeof(h)}) != sizeof(h)) {
        continue;
      }
      if (h.magic != kSlotMagic || slot_header_crc(h) != h.header_crc) continue;
      if (h.version == want) {
        found = s;
        break;
      }
    }
  }
  ADCC_CHECK(found >= 0, "no committed slot holds the requested checkpoint version");
  // Classify the remaining slot(s) for torn-save evidence, as restore() does.
  for (int s = 0; s < kSlotCount; ++s) {
    if (s == found) continue;
    const TornProbe probe = backend_.probe_torn(s, objs_);
    restore_stats_.chunks_probed += probe.chunks_probed;
    restore_stats_.torn_chunks += probe.torn_chunks;
  }
  ChunkHooks hooks;
  hooks.point = point_hook_;
  const std::uint64_t before = backend_.stats().chunks_loaded;
  const std::uint64_t loaded = backend_.load(found, objs_, hooks);
  ADCC_CHECK(loaded == want, "slot header version does not match its committed image");
  restore_stats_.version = loaded;
  restore_stats_.chunks_loaded =
      static_cast<std::size_t>(backend_.stats().chunks_loaded - before);
  version_ = loaded;
  committed_slot_ = found;
  return loaded;
}

}  // namespace adcc::checkpoint
