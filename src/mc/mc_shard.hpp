// Monte-Carlo cross-section lookups as a multi-shard plan: particle-bank
// partitions of each durability interval.
//
// Work unit = one flush interval, exactly as in the single-rank adapter; the
// group splits every interval's lookup range into N contiguous slices, one
// per shard, each accumulating into its own macro_xs/tally partition. The
// counter-based RNG makes every lookup's sample a pure function of
// (seed, index), so the partition is embarrassingly parallel (zero halo) and
// victim replay is trivially deterministic. The tally itself is NOT
// partition-independent — tally_select reads the shard's running macro-XS
// accumulator, so each shard's counter stream depends on which lookups it
// owns — hence verify() sums the per-shard counters and compares bit-for-bit
// against a fresh no-crash replay of the *same* N-slice partition: exactly
// the crash-consistency property the shard engine must preserve.
#pragma once

#include <memory>
#include <optional>

#include "core/shard.hpp"
#include "mc/xs_kernel.hpp"
#include "mc/mc_workload.hpp"

namespace adcc::mc {

class McShardPlan final : public core::ShardPlan {
 public:
  explicit McShardPlan(const McWorkloadConfig& cfg);

  std::string name() const override { return "mc"; }
  std::size_t work_units() const override { return units_; }
  std::size_t phases() const override { return 1; }
  std::unique_ptr<core::ShardPart> make_part(std::size_t index, std::size_t count,
                                             core::FaultSurface& fault) override;
  bool verify(const std::vector<core::ShardPart*>& parts) override;
  void tune_env(core::Mode mode, core::ModeEnvConfig& env, std::size_t count) const override;

  const McWorkloadConfig& config() const { return cfg_; }
  const XsDataHost& data() const { return data_; }
  const CounterRng& rng() const { return rng_; }

 private:
  McWorkloadConfig cfg_;
  XsDataHost data_;
  CounterRng rng_;
  std::size_t units_ = 0;
  std::optional<Tally> reference_;
  std::size_t ref_count_ = 0;  ///< Shard count `reference_` was computed for.
};

}  // namespace adcc::mc
