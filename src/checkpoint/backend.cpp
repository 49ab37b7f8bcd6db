#include "checkpoint/backend.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

#include "checkpoint/write_pipeline.hpp"
#include "common/check.hpp"
#include "core/telemetry.hpp"

namespace adcc::checkpoint {

namespace {

std::string slot_str(int slot) { return "slot " + std::to_string(slot); }

/// Internal unwind used to stop a cancelled drain: abort_drain() flips the
/// cancel flag, the drain's per-chunk check throws this, the WritePipeline
/// aborts the remaining chunks, and the drain worker swallows it (a cancelled
/// drain is the emulated power failure, not an error).
struct DrainCancelled {};

/// Serializes the slot prologue: SlotHeader + object-size table.
std::vector<std::byte> make_header_image(const ChunkLayout& layout, std::uint64_t version,
                                         std::size_t chunk_bytes) {
  SlotHeader h;
  h.magic = kSlotMagic;
  h.format = kChunkFormat;
  h.version = version;
  h.chunk_bytes = chunk_bytes;
  h.payload_bytes = layout.payload_bytes;
  h.object_count = static_cast<std::uint32_t>(layout.object_bytes.size());
  h.chunk_count = static_cast<std::uint32_t>(layout.chunks.size());
  h.table_crc = crc32(layout.object_bytes.data(),
                      layout.object_bytes.size() * sizeof(std::uint64_t));
  h.header_crc = slot_header_crc(h);

  std::vector<std::byte> image(layout.header_bytes);
  std::memcpy(image.data(), &h, sizeof(h));
  std::memcpy(image.data() + sizeof(h), layout.object_bytes.data(),
              layout.object_bytes.size() * sizeof(std::uint64_t));
  return image;
}

}  // namespace

Backend::Backend() = default;

Backend::~Backend() { abort_drain(); }

// ---- Async drain ---------------------------------------------------------

/// One persistent worker and at most one save in flight: the job handed over
/// by save_async(), then its outcome until wait_drain() consumes it. A worker
/// outlives its saves (per-unit saves would otherwise pay a thread spawn
/// each); abort_drain() joins it.
struct Backend::Drain {
  /// The save_async() arguments plus the caller's telemetry binding (the
  /// worker re-binds it so the drain's stage scopes merge into the owning
  /// cell).
  struct Job {
    int slot = 0;
    std::uint64_t version = 0;
    std::vector<ObjectView> objs;
    ChunkHooks hooks;
    std::shared_ptr<const ChunkLayout> layout;
    std::shared_ptr<const void> keepalive;
    core::TelemetryBinding binding;
  };

  std::mutex mu;
  std::condition_variable cv;
  std::optional<Job> job;               ///< Handed over, not yet picked up.
  bool busy = false;                    ///< A save is in flight (job or running).
  std::optional<SaveReceipt> receipt;   ///< Engaged: the save committed.
  std::exception_ptr error;             ///< Engaged: the save failed mid-flight.
  bool stop = false;
  std::atomic<bool> cancel{false};      ///< Cancels the running save's chunks.
  std::thread worker;
};

void Backend::drain_worker() {
  Drain& d = *drain_;
  std::unique_lock<std::mutex> lock(d.mu);
  for (;;) {
    d.cv.wait(lock, [&] { return d.stop || d.job.has_value(); });
    if (d.stop) return;
    std::optional<Drain::Job> job = std::move(d.job);
    d.job.reset();
    lock.unlock();

    std::optional<SaveReceipt> receipt;
    std::exception_ptr error;
    {
      // The job inherits its caller's telemetry binding under a "/drain"
      // track so its stage scopes merge into the owning cell and get their
      // own trace timeline; ckpt/drain is the drain's wall time (it overlaps
      // the compute it hides — that overlap is the point of async).
      const core::TelemetryBind bind(job->binding, "/drain");
      const core::StageTimer timer("ckpt/drain");
      try {
        receipt = do_save(job->slot, job->version, job->objs, job->hooks, job->layout.get(),
                          kPointChunkDrained, &d.cancel);
      } catch (const DrainCancelled&) {
        // The emulated power failure: neither a receipt nor an error — the
        // chunks already persisted are the torn evidence recovery will probe.
      } catch (...) {
        error = std::current_exception();
      }
    }
    // Release the staging arena BEFORE publishing: once the caller sees the
    // outcome, its arena is free again and the next save reuses it.
    job.reset();

    lock.lock();
    d.receipt = std::move(receipt);
    d.error = error;
    d.busy = false;
    d.cv.notify_all();
  }
}

void Backend::save_async(int slot, std::uint64_t version, std::vector<ObjectView> objs,
                         ChunkHooks hooks, std::shared_ptr<const ChunkLayout> layout,
                         std::shared_ptr<const void> keepalive) {
  if (!drain_) drain_ = std::make_unique<Drain>();
  Drain& d = *drain_;
  if (!d.worker.joinable()) d.worker = std::thread([this] { drain_worker(); });
  Drain::Job job{slot, version, std::move(objs), std::move(hooks), std::move(layout),
                 std::move(keepalive), core::Telemetry::current_binding()};
  {
    std::lock_guard<std::mutex> lock(d.mu);
    ADCC_CHECK(!d.busy && !d.receipt && !d.error,
               "one asynchronous save in flight: wait for the previous one first");
    d.job = std::move(job);
    d.busy = true;
  }
  d.cv.notify_all();
}

SaveReceipt Backend::wait_drain() {
  ADCC_CHECK(drain_ != nullptr, "no asynchronous save to wait for");
  Drain& d = *drain_;
  std::unique_lock<std::mutex> lock(d.mu);
  d.cv.wait(lock, [&] { return !d.busy; });
  ADCC_CHECK(d.receipt || d.error, "no asynchronous save to wait for");
  if (d.error) std::rethrow_exception(std::exchange(d.error, nullptr));
  SaveReceipt receipt = *d.receipt;
  d.receipt.reset();
  return receipt;
}

void Backend::abort_drain() noexcept {
  if (!drain_) return;
  Drain& d = *drain_;
  {
    std::lock_guard<std::mutex> lock(d.mu);
    // A handed-over job that never started dies untouched; the running save
    // is cancelled cooperatively between chunks. A save that finished (or
    // died) before the cancel landed is equally swallowed: the caller
    // declared a power failure, so the committed-or-torn distinction is left
    // to the marker and recovery's probe, as on real hardware.
    d.job.reset();
    d.stop = true;
    d.cancel.store(true, std::memory_order_relaxed);
  }
  d.cv.notify_all();
  if (d.worker.joinable()) d.worker.join();
  d.busy = false;
  d.receipt.reset();
  d.error = nullptr;
  d.stop = false;
  d.cancel.store(false, std::memory_order_relaxed);
}

// ---- Save ----------------------------------------------------------------

void Backend::configure_chunks(const ChunkConfig& cfg) {
  ADCC_CHECK(cfg.chunk_bytes > 0, "chunk size must be positive");
  ADCC_CHECK(cfg.threads >= 1, "checkpoint pipeline needs at least one worker");
  chunks_ = cfg;
}

SaveReceipt Backend::save(int slot, std::uint64_t version, std::span<const ObjectView> objs,
                          const ChunkHooks& hooks, const ChunkLayout* memo) {
  return do_save(slot, version, objs, hooks, memo, kPointChunkSaved, nullptr);
}

SaveReceipt Backend::do_save(int slot, std::uint64_t version, std::span<const ObjectView> objs,
                             const ChunkHooks& hooks, const ChunkLayout* memo,
                             const char* point_name, const std::atomic<bool>* cancel) {
  ADCC_CHECK(slot >= 0 && slot < kSlotCount, "checkpoint slot out of range");
  ChunkLayout built;
  if (memo == nullptr) {
    built = ChunkLayout::make(objs, chunks_.chunk_bytes);
    memo = &built;
  }
  const ChunkLayout& layout = *memo;
  begin_slot(slot, layout.image_bytes);

  auto* cache = hooks.crc_cache.get();
  ADCC_CHECK(cache == nullptr || cache->size() == layout.chunks.size(),
             "per-slot CRC cache does not match the layout");

  std::mutex point_mu;
  const auto fire_point = [&](const char* name) {
    if (!hooks.point) return;
    // Serialized: the fault surface's one-shot occurrence counting (and its
    // CrashException) must not race across pipeline workers.
    std::lock_guard<std::mutex> lock(point_mu);
    hooks.point(name);
  };

  // Per chunk: 1 = written, 0 = clean (skipped). Workers touch disjoint entries.
  std::vector<unsigned char> written(layout.chunks.size(), 0);
  WritePipeline pipeline(chunks_.threads);
  pipeline.run(layout.chunks.size(), [&](std::size_t i, ChunkScratch& scratch) {
    const ChunkLayout::Chunk& c = layout.chunks[i];
    // Cancelled drains stop between chunks: the chunks already persisted stay
    // persisted (the torn image a power failure leaves), nothing else lands.
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) throw DrainCancelled{};
    scratch.resize(sizeof(ChunkHeader) + c.payload_bytes);
    const auto* src = static_cast<const std::byte*>(objs[c.object].data) + c.object_offset;
    {
      const core::StageTimer timer("ckpt/stage");
      std::memcpy(scratch.data() + sizeof(ChunkHeader), src, c.payload_bytes);
    }
    std::uint32_t crc;
    {
      const core::StageTimer timer("ckpt/crc");
      crc = crc32(scratch.data() + sizeof(ChunkHeader), c.payload_bytes);
    }
    if (cache != nullptr && (*cache)[i] == crc) return;  // Clean: the slot holds it.

    ChunkHeader h;
    h.magic = kChunkMagic;
    h.object = c.object;
    h.index = c.index;
    h.payload_bytes = c.payload_bytes;
    h.version = version;
    h.payload_crc = crc;
    h.header_crc = chunk_header_crc(h);
    std::memcpy(scratch.data(), &h, sizeof(h));
    {
      // ckpt/queue is the device-facing cost: the medium write plus any
      // device-bandwidth throttle wait. The sweep surfaces it as t_io.
      const core::StageTimer timer("ckpt/queue");
      write_span(slot, c.image_offset, scratch.data(), scratch.size());
    }
    written[i] = 1;
    // Cache update strictly AFTER the media write: a crash between the two
    // leaves a stale (pessimistic) entry, never an optimistic one that would
    // let a later save skip a chunk the media does not actually hold.
    if (cache != nullptr) (*cache)[i] = crc;
    fire_point(point_name);
  });

  SaveReceipt receipt;
  for (std::size_t i = 0; i < layout.chunks.size(); ++i) {
    if (written[i] != 0) {
      ++receipt.written;
      receipt.payload_bytes += layout.chunks[i].payload_bytes;
    } else {
      ++receipt.skipped;
    }
  }

  // Slot header after every chunk, marker after the slot is whole — a crash
  // anywhere above leaves the previous checkpoint committed and this slot
  // detectably torn (chunks newer than its header). A cancellation landing
  // after the last chunk must stop here too: the emulated power failure may
  // never reach the commit point.
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) throw DrainCancelled{};
  {
    const core::StageTimer timer("ckpt/commit");
    const std::vector<std::byte> header = make_header_image(layout, version, chunks_.chunk_bytes);
    write_span(slot, 0, header.data(), header.size());
    finish_slot(slot);
    commit_marker(slot, version);
  }
  if (core::Telemetry* tel = core::Telemetry::current()) {
    tel->count("ckpt/chunks_written", receipt.written);
    tel->count("ckpt/chunks_skipped", receipt.skipped);
  }

  ++stats_.saves;
  stats_.bytes_saved += receipt.payload_bytes;
  stats_.chunks_written += receipt.written;
  stats_.chunks_skipped += receipt.skipped;
  return receipt;
}

// ---- Load / salvage ------------------------------------------------------

std::uint64_t Backend::load(int slot, std::span<const ObjectView> objs,
                            const ChunkHooks& hooks) {
  return do_load(slot, objs, hooks, std::nullopt);
}

std::uint64_t Backend::load_salvage(int slot, std::uint64_t want,
                                    std::span<const ObjectView> objs,
                                    const ChunkHooks& hooks) {
  ADCC_CHECK(want > 0, "salvage target version must be positive");
  return do_load(slot, objs, hooks, want);
}

std::uint64_t Backend::do_load(int slot, std::span<const ObjectView> objs,
                               const ChunkHooks& hooks,
                               std::optional<std::uint64_t> salvage) {
  ADCC_CHECK(slot >= 0 && slot < kSlotCount, "checkpoint slot out of range");

  SlotHeader h;
  if (read_span(slot, 0, &h, sizeof(h)) != sizeof(h) || h.magic != kSlotMagic ||
      h.format != kChunkFormat || h.header_crc != slot_header_crc(h)) {
    throw TornCheckpoint(slot_str(slot) + " holds no consistent checkpoint header");
  }
  std::vector<std::uint64_t> table(h.object_count);
  const std::size_t table_bytes = table.size() * sizeof(std::uint64_t);
  if (read_span(slot, sizeof(SlotHeader), table.data(), table_bytes) != table_bytes ||
      crc32(table.data(), table_bytes) != h.table_crc) {
    throw TornCheckpoint(slot_str(slot) + " has a corrupt object table");
  }
  // The explicit layout contract: a mismatched object set must fail loudly
  // BEFORE any byte is copied over a live object.
  if (table.size() != objs.size()) {
    throw LayoutMismatch(slot_str(slot) + " holds " + std::to_string(table.size()) +
                         " objects, caller registered " + std::to_string(objs.size()));
  }
  for (std::size_t i = 0; i < objs.size(); ++i) {
    if (table[i] != objs[i].bytes) {
      throw LayoutMismatch(slot_str(slot) + " object '" + objs[i].name + "' was saved with " +
                           std::to_string(table[i]) + " bytes, caller registered " +
                           std::to_string(objs[i].bytes));
    }
  }

  // Offsets from the *saved* chunk size, so images survive --ckpt_chunk_kb
  // reconfiguration between save and load.
  const ChunkLayout layout = ChunkLayout::make(objs, static_cast<std::size_t>(h.chunk_bytes));
  ADCC_CHECK(layout.chunks.size() == h.chunk_count,
             "slot header chunk count disagrees with its own layout");

  std::vector<std::byte> payload;
  std::size_t payload_loaded = 0;
  for (std::size_t i = 0; i < layout.chunks.size(); ++i) {
    const ChunkLayout::Chunk& c = layout.chunks[i];
    const std::string where = slot_str(slot) + " object " + std::to_string(c.object) +
                              " chunk " + std::to_string(c.index);
    ChunkHeader ch;
    if (read_span(slot, c.image_offset, &ch, sizeof(ch)) != sizeof(ch)) {
      throw TornCheckpoint(slot_str(slot) + " is truncated at chunk " + std::to_string(i));
    }
    if (ch.magic != kChunkMagic || ch.header_crc != chunk_header_crc(ch) ||
        ch.object != c.object || ch.index != c.index || ch.payload_bytes != c.payload_bytes) {
      throw TornCheckpoint(where + " has a torn header");
    }
    if (salvage.has_value()) {
      // Salvage accepts only the interrupted save's own chunks.
      if (ch.version != *salvage) {
        throw TornCheckpoint(where + " was not written by the salvage version");
      }
    } else if (ch.version > h.version) {
      throw TornCheckpoint(where + " belongs to an uncommitted newer save (torn write)");
    }
    // Verify in a buffer, then copy: unverified bytes never land on a live
    // object.
    payload.resize(c.payload_bytes);
    if (read_span(slot, c.image_offset + sizeof(ChunkHeader), payload.data(), payload.size()) !=
        payload.size()) {
      throw TornCheckpoint(where + " has a truncated payload");
    }
    if (crc32(payload.data(), payload.size()) != ch.payload_crc) {
      throw TornCheckpoint(where + " fails its payload CRC (torn write)");
    }
    std::memcpy(static_cast<std::byte*>(objs[c.object].data) + c.object_offset, payload.data(),
                c.payload_bytes);
    payload_loaded += c.payload_bytes;
    ++stats_.chunks_loaded;
    if (hooks.point) hooks.point(kPointChunkLoaded);
  }

  ++stats_.loads;
  stats_.bytes_loaded += payload_loaded;
  return salvage.value_or(h.version);
}

TornProbe Backend::probe_torn(int slot, std::span<const ObjectView> objs) {
  ADCC_CHECK(slot >= 0 && slot < kSlotCount, "checkpoint slot out of range");
  TornProbe probe;

  // The slot's own committed version is the baseline; an unreadable or absent
  // header means nothing was ever committed here (baseline 0).
  std::uint64_t base = 0;
  std::size_t layout_chunk_bytes = chunks_.chunk_bytes;
  SlotHeader h;
  if (read_span(slot, 0, &h, sizeof(h)) == sizeof(h) && h.magic == kSlotMagic) {
    if (h.format == kChunkFormat && h.header_crc == slot_header_crc(h)) {
      base = h.version;
      // Scan at the offsets the slot was actually cut with (load() supports
      // --ckpt_chunk_kb reconfiguration between save and load; so must the
      // torn classifier).
      if (h.chunk_bytes > 0) layout_chunk_bytes = static_cast<std::size_t>(h.chunk_bytes);
    } else {
      ++probe.torn_chunks;  // A half-written slot header is torn evidence itself.
    }
  }

  const ChunkLayout layout = ChunkLayout::make(objs, layout_chunk_bytes);
  std::vector<std::uint64_t> versions;
  versions.reserve(layout.chunks.size());
  bool all_valid = true;
  for (const ChunkLayout::Chunk& c : layout.chunks) {
    ChunkHeader ch;
    if (read_span(slot, c.image_offset, &ch, sizeof(ch)) != sizeof(ch)) {
      all_valid = false;
      break;
    }
    ++probe.chunks_probed;
    if (ch.magic != kChunkMagic) {  // Blank / never-written span.
      all_valid = false;
      continue;
    }
    const bool header_ok = ch.header_crc == chunk_header_crc(ch) && ch.object == c.object &&
                           ch.index == c.index && ch.payload_bytes == c.payload_bytes;
    if (!header_ok || ch.version > base) ++probe.torn_chunks;
    if (header_ok) {
      versions.push_back(ch.version);
    } else {
      all_valid = false;
    }
  }

  // Salvage candidacy: the newest version any chunk carries, reachable only
  // if EVERY chunk holds a valid header at exactly that version (the
  // interrupted save finished its chunk writes; payload CRCs are verified by
  // load_salvage).
  if (all_valid && !versions.empty() && versions.size() == layout.chunks.size()) {
    const std::uint64_t target = *std::max_element(versions.begin(), versions.end());
    if (std::all_of(versions.begin(), versions.end(),
                    [target](std::uint64_t v) { return v == target; })) {
      probe.salvage_version = target;
      probe.salvage_chunks = versions.size();
      probe.salvage_ready = true;
    }
  }
  return probe;
}

std::size_t Backend::read_image(int slot, std::span<std::byte> out) const {
  return read_span(slot, 0, out.data(), out.size());
}

}  // namespace adcc::checkpoint
