// Workload — the polymorphic unit the ScenarioRunner composes with a Mode and
// a CrashScenario.
//
// A workload is a fixed problem instance (matrix, XS data set, ...) that can be
// (re)run any number of times. One run is a sequence of *work units* — the
// durable-progress granule of the paper's evaluation: a CG iteration, an ABFT
// submatrix multiplication/addition, an XSBench flush interval. The runner
// drives the protocol
//
//     prepare(env);                          // bind state to the mode substrate
//     while (run_step()) make_durable();     // one unit + its durability action
//     ... inject_crash(); recover(); ...     // crash scenarios only
//     verify();
//
// so that every workload x mode x crash combination shares one driver loop
// instead of a hand-written benchmark binary per figure.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/modes.hpp"

namespace adcc::core {

class FaultSurface;

/// What recover() reports after a crash: where execution restarts and how much
/// completed work the crash destroyed. Units are 1-based; restart_unit is the
/// first unit that must be (re-)executed, so `restart_unit <= crash_unit + 1`
/// and `units_lost >= crash_unit + 1 - restart_unit` always hold, with
/// equality for sequential-cursor recoveries (a crash after unit k with
/// nothing lost restarts at k + 1). Checksum-classifying recoveries (ABFT-MM)
/// may additionally repair or recompute non-contiguous earlier units inside
/// recover() itself; they report that work via units_lost/units_corrected and
/// charge its wall time to repair_seconds so the runner can split the paper's
/// detect-vs-resume breakdown correctly.
struct WorkloadRecovery {
  std::size_t restart_unit = 1;        ///< First unit to (re-)execute (1-based).
  std::size_t units_lost = 0;          ///< Completed units the crash destroyed.
  std::size_t units_corrected = 0;     ///< Units repaired purely from checksums.
  std::size_t candidates_checked = 0;  ///< Detection probes (invariant scans).
  std::size_t torn_chunks = 0;         ///< Chunks of an interrupted checkpoint
                                       ///< save classified as torn during
                                       ///< recovery (CRC/version evidence).
  std::size_t salvaged_chunks = 0;     ///< Chunks of an interrupted save that
                                       ///< restore() recovered forward (every
                                       ///< chunk CRC-valid at that save's
                                       ///< version) instead of rolling back
                                       ///< to the prior version.
  double repair_seconds = 0.0;         ///< recover()-internal re-execution time.

  // Multi-shard group recoveries (core::ShardGroup) report the group-level
  // breakdown on top; single-rank workloads leave these zero.
  std::size_t shards_restored = 0;     ///< Victim shards reloaded from their slots.
  std::size_t epochs_rolled_back = 0;  ///< Global epochs a coordinator rollback lost.
  std::size_t units_replayed = 0;      ///< Victim-local shard units replayed inside
                                       ///< recover() from retained exchange logs
                                       ///< (survivor units are never recomputed).
  std::size_t halo_bytes = 0;          ///< Exchange bytes re-fetched by that replay.
};

/// The crash target a shard-scoped plan selects (scenario.hpp's shard:/
/// shards:/coord: families): which part of a sharded group the emulated power
/// failure destroys. ScenarioRunner resolves it once per run (after prepare,
/// when shard_count() is known) and hands it to the workload before any
/// inject_crash(). Unsharded workloads ignore it — every scope degenerates to
/// a whole-process power failure.
struct CrashScope {
  enum class Kind {
    kProcess,      ///< Whole process dies (the classic plans).
    kShards,       ///< Only the listed shards die; survivors keep state.
    kCoordinator,  ///< The group coordinator dies mid-commit: every shard's
                   ///< volatile state dies with it, and recovery rolls the
                   ///< group back to the last fully committed global epoch.
  };
  Kind kind = Kind::kProcess;
  std::vector<std::size_t> victims;  ///< kShards: shard indices to kill.
};

/// A fixed problem instance runnable under any durability mode: the unit
/// ScenarioRunner composes with a Mode and a CrashScenario. Implementations
/// register themselves with core::WorkloadRegistry (ADCC_REGISTER_WORKLOAD)
/// so one CLI/sweep engine can drive every workload.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Registry name ("cg", "mm", "mc", ...).
  virtual std::string name() const = 0;

  /// Total work units of one run in the prepared mode (the unit granularity
  /// may legitimately differ per mode: the algorithm-directed MM run has
  /// loop-2 addition units the checkpointed run does not).
  virtual std::size_t work_units() const = 0;

  /// Units completed so far in the current run.
  virtual std::size_t units_done() const = 0;

  /// (Re)initializes run state against `env`, which must outlive the run.
  /// Called once per repetition; allocates from env.region / the mode's
  /// substrate and resets all progress. Untimed (substrate setup is excluded
  /// from the measured region, as in the fig benches).
  virtual void prepare(ModeEnv& env) = 0;

  /// Executes the next work unit. Returns false (doing nothing) once all
  /// units are complete.
  virtual bool run_step() = 0;

  /// The prepared mode's durability action for the last completed unit:
  /// nothing (native), CheckpointSet::save, transaction commit, or the
  /// algorithm-directed checksum/counter-line flush. With asynchronous
  /// checkpointing enabled this may return before the image is durable
  /// (stage + background drain); wait_durable() completes the handshake.
  virtual void make_durable() = 0;

  /// Joins any outstanding asynchronous durability work (an in-flight
  /// checkpoint drain). The runner calls it inside the timed region after the
  /// last unit, so a run never finishes with undurable progress; a drain
  /// crash point (ckpt_drain) surfaces here as memsim::CrashException exactly
  /// like a synchronous crash-mid-save. Default: nothing pending.
  virtual void wait_durable() {}

  /// True while an asynchronous durability action from an earlier unit is
  /// still in flight — the unit now executing overlaps the drain (the
  /// runner's overlap_seconds accounting).
  virtual bool durability_pending() const { return false; }

  /// Emulates a power failure at a unit boundary: discards every volatile
  /// structure, leaving only the mode's durable image.
  virtual void inject_crash() = 0;

  /// Detects the restart point from the durable image, reloads state, and
  /// rewinds the unit cursor so run_step() re-executes the lost units.
  virtual WorkloadRecovery recover() = 0;

  /// Checks the final answer against an independent reference (exact reference
  /// solve / reference product / no-crash tally). Valid once units_done() ==
  /// work_units().
  virtual bool verify() = 0;

  /// Lets the workload size the mode substrate (arena/slot bytes) for its
  /// problem instance before the runner calls make_env.
  virtual void tune_env(Mode mode, ModeEnvConfig& cfg) const {
    (void)mode;
    (void)cfg;
  }

  /// The workload's fault surface, if it supports mid-unit crash injection:
  /// the runner arms access/point triggers on it after prepare(), and the
  /// workload's instrumented kernels (or its bound MemorySimulator) raise
  /// memsim::CrashException out of run_step() when the trigger fires. nullptr
  /// means only unit-boundary crash plans are available.
  virtual FaultSurface* fault() { return nullptr; }

  /// Shards executing this workload in the prepared mode (1 = unsharded).
  /// Valid after prepare(); the runner uses it to resolve shard-scoped crash
  /// plans (a k-of-N victim draw needs N).
  virtual std::size_t shard_count() const { return 1; }

  /// Selects what the next inject_crash() destroys. Called by the runner once
  /// per run, after prepare(); the scope holds for every crash of the run
  /// (double-fault chain links re-kill the same scope). Default: ignored —
  /// unsharded workloads always die whole.
  virtual void set_crash_scope(const CrashScope& scope) { (void)scope; }
};

}  // namespace adcc::core
