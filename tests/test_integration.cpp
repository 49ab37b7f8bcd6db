// Cross-module integration tests: every algorithm × crash × recovery path
// produces results identical (or numerically equal) to an uncrashed run, and
// the seven-mode environments execute the real workloads end to end.
#include <gtest/gtest.h>

#include "core/adcc.hpp"

namespace adcc {
namespace {

// One verified scenario through the workload adapter, with checkpoint slot
// files in a per-process scratch dir and no HDD emulation. The runner owns
// the mode's substrate (NVM arena, heap), so results living there are read
// while it is still alive.
core::ScenarioConfig scenario(const core::Workload& w, core::Mode mode, const char* crash) {
  core::ScenarioConfig cfg;
  cfg.mode = mode;
  cfg.crash = core::parse_crash_or_throw(crash);
  cfg.env.scratch_dir = core::default_scratch_dir("integration");
  cfg.env.disk_throttle_bytes_per_s = 0;
  w.tune_env(mode, cfg.env);
  cfg.verify = true;
  return cfg;
}

cg::CgWorkloadConfig cg_config(std::size_t n, std::size_t iters) {
  cg::CgWorkloadConfig cfg;
  cfg.n = n;
  cfg.nz_per_row = 9;
  cfg.iters = iters;
  cfg.matrix_seed = 3;
  cfg.rhs_seed = 4;
  return cfg;
}

TEST(Integration, CgCrashRecoveryMatchesGoldenAcrossAllSchemes) {
  const std::size_t n = 500, iters = 8;
  const auto a = linalg::make_spd(n, 9, 3);
  const auto b = linalg::make_rhs(n, 4);
  const auto golden = cg::cg_solve(a, b, iters);

  // Algorithm-directed under the cache simulator, crashed mid-iteration.
  cg::CgCcConfig cfg;
  cfg.n_iters = iters;
  cfg.cache.ways = 8;
  cfg.cache.size_bytes = 128u << 10;
  cg::CgCrashConsistent cc(a, b, cfg);
  cc.sim().scheduler().arm_at_point(cg::CgCrashConsistent::kPointPUpdated, 5);
  ASSERT_TRUE(cc.run());
  cc.recover_and_resume();
  cc.finish();
  EXPECT_LT(linalg::max_abs_diff(cc.solution(), golden.x), 1e-9);

  // Every full-speed engine, crashed at the same site: the durable modes
  // resume the identical op sequence, native restarts it from scratch.
  cg::CgWorkload w(cg_config(n, iters));
  for (core::Mode m : core::all_modes()) {
    core::ScenarioRunner runner(w, scenario(w, m, "point:cg:p_updated:5"));
    const auto res = runner.run();
    EXPECT_EQ(res.crashes, 1u) << core::mode_name(m);
    EXPECT_TRUE(res.verified) << core::mode_name(m);
    EXPECT_LT(linalg::max_abs_diff(w.solution(), golden.x), 1e-12) << core::mode_name(m);
  }
}

TEST(Integration, MmAllVariantsAgreeUnderCrash) {
  const std::size_t n = 64, k = 16;
  linalg::Matrix a(n, n), b(n, n), golden(n, n);
  a.fill_random(10, -1, 1);
  b.fill_random(11, -1, 1);
  linalg::gemm_reference(a, b, golden);

  mm::MmCcConfig cfg;
  cfg.n = n;
  cfg.rank_k = k;
  cfg.cache.ways = 4;
  cfg.cache.size_bytes = 32u << 10;
  mm::MmCrashConsistent mmcc(a, b, cfg);
  mmcc.sim().scheduler().arm_at_point(mm::MmCrashConsistent::kPointMultEnd, 3);
  ASSERT_TRUE(mmcc.run());
  mmcc.recover_and_resume();
  EXPECT_LT(linalg::Matrix::max_abs_diff(mmcc.result(), golden), 1e-10);

  mm::MmWorkloadConfig wc;
  wc.n = n;
  wc.rank_k = k;
  wc.seed_a = 10;
  wc.seed_b = 11;
  mm::MmWorkload w(wc);
  for (core::Mode m : core::all_modes()) {
    core::ScenarioRunner runner(w, scenario(w, m, "step:2"));
    const auto res = runner.run();
    EXPECT_EQ(res.crashes, 1u) << core::mode_name(m);
    EXPECT_LT(linalg::Matrix::max_abs_diff(w.result(), golden), 1e-10) << core::mode_name(m);
  }
}

TEST(Integration, XsCrashRecoveryExactUnderSelectiveFlushing) {
  mc::XsConfig dc;
  dc.n_nuclides = 10;
  dc.gridpoints_per_nuclide = 128;
  dc.seed = 2;
  const mc::XsDataHost data(dc);

  mc::XsCcConfig cfg;
  cfg.total_lookups = 3000;
  cfg.policy = mc::XsFlushPolicy::kSelective;
  cfg.flush_interval = 30;
  cfg.cache.ways = 4;
  cfg.cache.size_bytes = 32u << 10;
  cfg.rng_seed = 5;

  mc::XsCrashConsistent nocrash(data, cfg);
  ASSERT_FALSE(nocrash.run());

  mc::XsCrashConsistent crashed(data, cfg);
  crashed.sim().scheduler().arm_at_point(mc::XsCrashConsistent::kPointLookupEnd, 300);
  ASSERT_TRUE(crashed.run());
  crashed.recover_and_resume();
  EXPECT_EQ(crashed.tally().counts, nocrash.tally().counts);
}

TEST(Integration, CheckpointModesResumeCgExactly) {
  // Every checkpoint device restores p/r/z/rho and re-executes to the
  // bitwise-identical solution — after a boundary crash, and after a crash
  // inside unit 1, before any checkpoint exists (restart from scratch).
  const std::size_t n = 300, iters = 6;
  cg::CgWorkload w(cg_config(n, iters));
  const auto golden =
      cg::cg_solve(linalg::make_spd(n, 9, 3), linalg::make_rhs(n, 4), iters);
  for (core::Mode m : {core::Mode::kCkptDisk, core::Mode::kCkptNvm, core::Mode::kCkptHetero}) {
    for (const auto& [crash, restart] : {std::pair{"step:2", 3u}, {"point:cg:iter_end:1", 1u}}) {
      core::ScenarioRunner runner(w, scenario(w, m, crash));
      const auto res = runner.run();
      EXPECT_EQ(res.restart_unit, restart) << core::mode_name(m) << " " << crash;
      EXPECT_EQ(linalg::max_abs_diff(w.solution(), golden.x), 0.0)
          << core::mode_name(m) << " " << crash;
    }
  }
}

TEST(Integration, HeteroCheckpointChargesNvmBandwidth) {
  // The hetero mode must charge the NVM bandwidth gap for the same checkpoint
  // traffic — the cost structure behind Fig. 4's middle bars. Asserted on the
  // perf model's deterministic injected-delay accounting, not noisy wall time.
  const std::size_t n = 20000, iters = 3;
  cg::CgWorkload w(cg_config(n, iters));
  double injected[2] = {};
  const core::Mode modes[2] = {core::Mode::kCkptNvm, core::Mode::kCkptHetero};
  for (int i = 0; i < 2; ++i) {
    core::ModeEnvConfig ec;
    ec.dram_cache_bytes = 1u << 20;
    ec.nvm_bandwidth_slowdown = 16.0;  // Exaggerate for a robust assertion.
    ec.dram_bw_bytes_per_s = 1e9;      // Deterministic charge basis.
    w.tune_env(modes[i], ec);
    core::ModeEnv env = core::make_env(modes[i], ec);
    w.prepare(env);
    while (w.run_step()) w.make_durable();
    w.wait_durable();
    injected[i] = env.perf->stats().injected_seconds;
  }
  // NVM-only assumes NVM == DRAM (no charge); hetero pays ≈ bytes × 15 / 1e9
  // for the p/r/z vectors it checkpoints every iteration.
  EXPECT_DOUBLE_EQ(injected[0], 0.0);
  const double expected = static_cast<double>(3 * n * sizeof(double)) * iters * 15.0 / 1e9;
  EXPECT_GT(injected[1], 0.8 * expected);
}

TEST(Integration, CgTxLogsThreeVectorsPlusScalarsPerIteration) {
  // pmem-tx: one transaction per iteration snapshotting p, r, z and the
  // scalars line — 4 ranges, 3·n doubles + 2 scalars of undo log each.
  const std::size_t n = 200, iters = 8;
  cg::CgWorkload w(cg_config(n, iters));
  core::ScenarioRunner runner(w, scenario(w, core::Mode::kPmemTx, "none"));
  const auto res = runner.run();
  EXPECT_TRUE(res.verified);
  const pmemtx::UndoLogStats stats = w.tx_log_stats();
  EXPECT_EQ(stats.transactions, iters);
  EXPECT_EQ(stats.commits, iters);
  EXPECT_EQ(stats.ranges_logged, iters * 4);
  EXPECT_EQ(stats.bytes_logged, iters * (3 * n * sizeof(double) + 16));
}

TEST(Integration, UmbrellaHeaderExposesAllLayers) {
  // Compile-time integration: one object of each namespace's flagship type.
  memsim::CacheConfig cc;
  EXPECT_GT(cc.num_sets(), 0u);
  EXPECT_EQ(core::all_modes().size(), 7u);
  EXPECT_GE(mc::kChannels, 5);
  SUCCEED();
}

}  // namespace
}  // namespace adcc
