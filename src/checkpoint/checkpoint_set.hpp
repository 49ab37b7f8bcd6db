// CheckpointSet — application-facing manager of the chunked durability engine.
//
// Registers the critical data objects once, then `save()` chunk-serializes
// them all to the backend with alternating slots and monotonically increasing
// versions (classic double buffering: a crash mid-save leaves the previous
// checkpoint committed). Every save reuses the engine's dirty-chunk filter:
// the payload CRC is computed per chunk anyway (it goes into the chunk
// header), so chunks whose CRC matches what this slot already holds are
// skipped for free — incremental checkpointing is this filter, not a second
// implementation.
//
// `restore()` loads the newest committed checkpoint back into the registered
// objects and returns its version (0 = nothing to restore). Before loading it
// probes the other slot for chunks of an interrupted save — the
// detected-torn-write classification surfaced to recovery accounting via
// last_restore(). A torn slot that is in fact COMPLETE (the crash landed
// between the last chunk write and the marker commit) is *salvaged*: the
// interrupted save is verified chunk by chunk, loaded, and re-committed,
// recovering a newer checkpoint than the marker knows about. A saved layout
// that does not match the registered objects raises checkpoint::LayoutMismatch
// instead of silently memcpy-ing over live objects; integrity failures raise
// checkpoint::TornCheckpoint.
//
// The optional point hook is fired once per chunk persisted ("ckpt_chunk")
// and per chunk loaded ("ckpt_restore") — workload adapters route it into
// their FaultSurface so crash plans can land inside the durability path
// (crash-mid-checkpoint, crash-during-recovery).
//
// `save_async()` is the asynchronous variant: it snapshots every chunk into a
// staging arena (double-buffered against the live objects, so the workload may
// mutate them immediately) and hands the save to the backend's drain worker;
// `wait_durable()` — or the next save, which joins it first — completes the
// handshake. One save is in flight at a time, so the (slot, version) marker
// commit order — and crash semantics — match back-to-back synchronous saves.
// A crash mid-drain (point "ckpt_drain", or abort_async's power failure)
// leaves the same torn, uncommitted slot a synchronous crash-mid-save leaves;
// a crash mid-staging (point "ckpt_stage") leaves the backend untouched. When
// the backend is configured with ChunkConfig::async (--ckpt_async), plain
// save() dispatches to save_async() — adapters inherit overlap for free.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "checkpoint/backend.hpp"

namespace adcc::checkpoint {

/// Application-facing manager of the chunked durability engine: object
/// registration, double-buffered versioned saves (sync, or async with one
/// save in flight), and restore with torn-save classification + torn-slot
/// salvage. See the file comment.
class CheckpointSet {
 public:
  using PointHook = std::function<void(const char*)>;

  explicit CheckpointSet(Backend& backend, PointHook point_hook = {})
      : backend_(backend), point_hook_(std::move(point_hook)) {}

  /// Registers an object; must happen before the first save. Zero-byte
  /// objects are legal (they participate in the layout but carry no chunks).
  void add(std::string name, void* data, std::size_t bytes);

  template <typename T>
  void add(std::string name, std::span<T> s) {
    add(std::move(name), s.data(), s.size_bytes());
  }

  /// Checkpoints all registered objects; returns the new version. Chunks
  /// unchanged since this slot's previous image are skipped (CRC filter).
  /// Dispatches to save_async() when the backend's ChunkConfig::async is set.
  std::uint64_t save();

  /// Asynchronous save: joins the previous save still in flight (a failure
  /// of it is rethrown here, with the version rolled back to just before
  /// it), snapshots the objects into the staging arena (synchronously — the
  /// caller may mutate them the moment this returns) and hands the drain to
  /// the backend. Returns the new version, which is durable only once
  /// wait_durable() (or the next save, which joins it) returns without
  /// throwing.
  std::uint64_t save_async();

  /// Joins the in-flight drain, if any; idempotent. Returns the newest
  /// durable version. Rethrows a drain failure (after rolling the version
  /// back so a retried save targets the same uncommitted slot).
  std::uint64_t wait_durable();

  /// Power-failure emulation: cancels the in-flight drain without committing
  /// it (the slot keeps the chunks already drained — detectably torn) and
  /// realigns the version with the backend's committed marker. Workload
  /// inject_crash() calls this before discarding volatile state; harmless
  /// when idle.
  void abort_async() noexcept;

  /// True between save_async() and the join — the window in which the caller
  /// overlaps useful work with the drain.
  bool async_pending() const { return pending_.has_value(); }

  /// Restores the newest recoverable checkpoint; returns its version
  /// (0 = no checkpoint, objects untouched). Prefers a salvageable
  /// interrupted save NEWER than the committed marker (re-committing it).
  /// Throws LayoutMismatch / TornCheckpoint per Backend::load; details land
  /// in last_restore().
  std::uint64_t restore();

  /// Restores a specific committed version — the coordinated-rollback
  /// primitive: a group coordinator's global marker records the exact slot
  /// version each shard must rewind to, which may be OLDER than the shard's
  /// own newest commit (the shard saved ahead of a global commit the crash
  /// interrupted). With the double-buffered slot discipline the previous
  /// version's image is still intact in the other slot, so the requested
  /// version is found by scanning slot headers. Never salvages: a global
  /// marker must reference exactly-committed shard images. Returns `want` on
  /// success; `want == 0` restores nothing (caller reinitializes) and
  /// returns 0. Aborts if no slot holds a committed image of version `want`.
  std::uint64_t restore_version(std::uint64_t want);

  struct SaveStats {
    std::size_t chunks_written = 0;
    std::size_t chunks_skipped = 0;  ///< Clean under the CRC filter.
    std::size_t payload_bytes_written = 0;
  };
  const SaveStats& last_save() const { return save_stats_; }

  struct RestoreStats {
    std::uint64_t version = 0;
    std::size_t chunks_loaded = 0;
    std::size_t chunks_probed = 0;   ///< Torn-classifier scan of in-flight slots.
    std::size_t torn_chunks = 0;     ///< Detected chunks of an uncommitted save.
    /// Chunks of an interrupted-but-complete save recovered past the
    /// committed marker by torn-slot salvage (0 = classic restore).
    std::size_t salvaged_chunks = 0;
  };
  const RestoreStats& last_restore() const { return restore_stats_; }

  std::size_t payload_bytes() const { return total_bytes(objs_); }
  std::uint64_t version() const { return version_; }

 private:
  using CrcCache = std::vector<std::optional<std::uint32_t>>;

  /// The slot the next save targets: away from the committed image.
  int save_slot() const;
  const ChunkLayout& layout();
  /// This slot's payload-CRC cache, sized for the current layout.
  const std::shared_ptr<CrcCache>& slot_cache(int slot);
  /// Forgets what `slot` holds after a save into it died mid-flight (some of
  /// its chunks may be new, some old): the next save there rewrites in full.
  void forget_slot(int slot);
  /// Records a committed save: the stats and the slot the next one avoids.
  void committed(int slot, const SaveReceipt& receipt);

  /// The staging arena: a snapshot image's payload bytes plus ObjectViews
  /// into them. Shared with the backend drain as its keepalive, so the drain
  /// stays memory-safe even if this CheckpointSet dies mid-flight (the
  /// backend's destructor joins the thread; see Backend::teardown_drain).
  struct Staged {
    std::vector<std::byte> bytes;
    std::vector<ObjectView> views;
  };

  /// The save handed to the backend's drain worker.
  struct Pending {
    std::uint64_t version = 0;
    int slot = 0;
  };

  Backend& backend_;
  PointHook point_hook_;
  std::vector<ObjectView> objs_;
  std::uint64_t version_ = 0;
  bool frozen_ = false;
  std::shared_ptr<const ChunkLayout> layout_;  ///< Memo (objects freeze at first save).
  std::size_t layout_chunk_bytes_ = 0;
  std::shared_ptr<Staged> arena_;  ///< Reused by every async save.
  std::optional<Pending> pending_;
  SaveStats save_stats_;
  RestoreStats restore_stats_;

  /// Slot of the newest committed save; -1 before the first commit.
  int committed_slot_ = -1;

  /// Per-slot payload CRC of the chunk each slot currently holds (nullopt =
  /// unknown → must write). Shared with the engine, which consults AND
  /// updates it in place as chunks land on media. Volatile by design: a
  /// fresh process rebuilds it with one full save.
  std::shared_ptr<CrcCache> slot_crcs_[kSlotCount];
};

}  // namespace adcc::checkpoint
