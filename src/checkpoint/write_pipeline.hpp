// WritePipeline — the worker pool serializing checkpoint chunks.
//
// run(count, fn) executes fn(chunk_index, scratch) for every chunk index in
// [0, count), dynamically balanced across the configured worker count (the
// calling thread is worker 0, so one-worker pipelines add no thread at all).
// Each worker owns a reusable ChunkScratch: the buffer a chunk's
// [ChunkHeader][payload] image is serialized into.
//
// Exception semantics mirror a power failure: the first exception aborts the
// remaining chunks (workers drain without starting new ones) and is rethrown
// on the calling thread — the chunks already persisted stay persisted, which
// is precisely the torn image a crash mid-checkpoint leaves behind. The fault
// surface's `ckpt_chunk` crash points ride this path.
//
// Workers are spawned per run(): the pipeline is sized for multi-MB images
// where thread creation is noise against serialization + device time, and
// the default --ckpt_threads=1 spawns nothing at all. Keep 1 worker for tiny
// per-unit checkpoint sets — there is nothing to overlap.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace adcc::checkpoint {

/// Per-worker reusable buffer holding one serialized [ChunkHeader][payload].
using ChunkScratch = std::vector<std::byte>;

/// The worker pool serializing checkpoint chunks (see the file comment).
class WritePipeline {
 public:
  using ChunkFn = std::function<void(std::size_t index, ChunkScratch& scratch)>;

  /// Workers are clamped to [1, count] at run() time.
  explicit WritePipeline(int threads);

  void run(std::size_t count, const ChunkFn& fn);

 private:
  int threads_;
};

}  // namespace adcc::checkpoint
