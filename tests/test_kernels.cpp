// Tests for the pluggable kernel-backend layer (src/kernels/): registry
// contents and clean-failure lookups, the thread-local RAII bind, the
// ScopedOmpThreads restore contract, and — when the omp backend is built —
// unit-level serial-vs-omp equivalence under the determinism contract
// documented in docs/BACKENDS.md (bitwise for spmv/gemm/panel_sum/xs_range,
// tolerance-only for the re-associating reductions), plus an end-to-end
// equivalence sweep across workloads, durability modes and shard counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "core/registry.hpp"
#include "core/sweep.hpp"
#include "kernels/backend.hpp"
#include "kernels/threads.hpp"
#include "linalg/csr.hpp"
#include "linalg/spgen.hpp"
#include "mc/xs_kernel.hpp"

namespace adcc::core {
namespace {

// ---------------------------------------------------------------- registry --

TEST(KernelRegistry, SerialIsAlwaysFirst) {
  const auto names = kernel_backend_names();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "serial");
  EXPECT_EQ(find_kernel_backend("serial"), &serial_kernel_backend());
  EXPECT_EQ(kernel_backend("serial").name(), "serial");
}

TEST(KernelRegistry, OmpPresenceMatchesBuild) {
  const auto names = kernel_backend_names();
  const bool has_omp = std::find(names.begin(), names.end(), "omp") != names.end();
#ifdef ADCC_OPENMP
  EXPECT_TRUE(has_omp);
  EXPECT_NE(find_kernel_backend("omp"), nullptr);
  EXPECT_EQ(kernel_backend("omp").name(), "omp");
#else
  EXPECT_FALSE(has_omp);
  EXPECT_EQ(find_kernel_backend("omp"), nullptr);
#endif
}

TEST(KernelRegistry, UnknownNameThrowsListingBuiltBackends) {
  EXPECT_EQ(find_kernel_backend("cuda"), nullptr);
  try {
    kernel_backend("cuda");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cuda"), std::string::npos);
    EXPECT_NE(what.find("serial"), std::string::npos);
  }
}

// -------------------------------------------------------------------- bind --

TEST(KernelBackendBindScope, DefaultsToSerialAndNests) {
  EXPECT_EQ(&active_kernel_backend(), &serial_kernel_backend());
  const KernelBackend* other = find_kernel_backend("omp");
  if (other == nullptr) other = &serial_kernel_backend();
  {
    const KernelBackendBind outer(other);
    EXPECT_EQ(&active_kernel_backend(), other);
    {
      const KernelBackendBind inner(nullptr);  // nullptr = serial default.
      EXPECT_EQ(&active_kernel_backend(), &serial_kernel_backend());
    }
    EXPECT_EQ(&active_kernel_backend(), other);
  }
  EXPECT_EQ(&active_kernel_backend(), &serial_kernel_backend());
}

// ------------------------------------------------------------ thread scope --

TEST(ScopedOmpThreadsScope, RestoresRequestOnExitAndNests) {
  EXPECT_EQ(requested_kernel_threads(), 0);
  {
    const ScopedOmpThreads outer(3);
    EXPECT_EQ(requested_kernel_threads(), 3);
    {
      const ScopedOmpThreads inner(7);
      EXPECT_EQ(requested_kernel_threads(), 7);
    }
    EXPECT_EQ(requested_kernel_threads(), 3);
  }
  EXPECT_EQ(requested_kernel_threads(), 0);
}

TEST(ScopedOmpThreadsScope, NonPositiveRequestIsInert) {
  {
    const ScopedOmpThreads ambient(4);
    {
      const ScopedOmpThreads inert(0);
      EXPECT_EQ(requested_kernel_threads(), 4);  // No request: ambient wins.
    }
    EXPECT_EQ(requested_kernel_threads(), 4);
  }
  EXPECT_EQ(requested_kernel_threads(), 0);
}

// ------------------------------------------------- serial-vs-omp kernels  --
// Unit-level equivalence on sizes straddling the omp thresholds (so both the
// guarded-serial and the parallel paths run). Bitwise for the contract
// kernels; tolerance for the re-associating reductions. Compiled in every
// build — without ADCC_OPENMP the "other" backend is serial and the checks
// degenerate to self-consistency, which still pins the dispatch plumbing.

const KernelBackend& other_backend() {
  const KernelBackend* omp = find_kernel_backend("omp");
  return omp != nullptr ? *omp : serial_kernel_backend();
}

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  const CounterRng rng(seed);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.uniform(i) * 2.0 - 1.0;
  return v;
}

TEST(KernelEquivalence, SpmvBitwise) {
  for (const std::size_t n : {std::size_t{64}, std::size_t{5000}}) {
    const linalg::CsrMatrix a = linalg::make_spd(n, 8, /*seed=*/7);
    const std::vector<double> x = random_vec(n, 11);
    std::vector<double> ys(n), yo(n);
    serial_kernel_backend().spmv(a, x, ys);
    other_backend().spmv(a, x, yo);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(ys[i], yo[i]) << "row " << i;

    // The shard row-slice entry point agrees with the full product.
    const std::size_t r0 = n / 3, r1 = (2 * n) / 3;
    std::vector<double> slice(r1 - r0);
    other_backend().spmv_rows(a, r0, r1, x, slice);
    for (std::size_t i = r0; i < r1; ++i) ASSERT_EQ(slice[i - r0], ys[i]);
  }
}

TEST(KernelEquivalence, Blas1UpdatesBitwiseReductionsWithinTolerance) {
  for (const std::size_t n : {std::size_t{100}, std::size_t{40000}}) {
    const std::vector<double> x = random_vec(n, 3), y0 = random_vec(n, 5);

    std::vector<double> ys = y0, yo = y0;
    serial_kernel_backend().axpy(0.37, x, ys);
    other_backend().axpy(0.37, x, yo);
    EXPECT_EQ(ys, yo);

    std::vector<double> zs(n), zo(n);
    serial_kernel_backend().xpay(x, -1.25, y0, zs);
    other_backend().xpay(x, -1.25, y0, zo);
    EXPECT_EQ(zs, zo);

    std::vector<double> ss = y0, so = y0;
    serial_kernel_backend().scale(0.5, ss);
    other_backend().scale(0.5, so);
    EXPECT_EQ(ss, so);

    const double ds = serial_kernel_backend().dot(x, y0);
    const double dor = other_backend().dot(x, y0);
    EXPECT_NEAR(ds, dor, 1e-9 * (1.0 + std::abs(ds)));
    const double sus = serial_kernel_backend().sum(x);
    const double suo = other_backend().sum(x);
    EXPECT_NEAR(sus, suo, 1e-9 * (1.0 + std::abs(sus)));
  }
}

TEST(KernelEquivalence, GemmTileAndPanelSumBitwise) {
  const std::size_t rows = 37, cols = 300, k = 19;  // cols > omp tile width.
  const std::vector<double> a = random_vec(rows * k, 21);
  const std::vector<double> b = random_vec(k * cols, 23);

  std::vector<double> cs(rows * cols, 0.5), co(rows * cols, 0.5);
  for (const bool accumulate : {false, true}) {
    serial_kernel_backend().gemm_tile(a.data(), k, b.data(), cols, rows, cols, k,
                                      cs.data(), cols, accumulate);
    other_backend().gemm_tile(a.data(), k, b.data(), cols, rows, cols, k,
                              co.data(), cols, accumulate);
    ASSERT_EQ(cs, co) << "accumulate=" << accumulate;
  }

  const std::vector<double> p0 = random_vec(rows * cols, 31);
  const std::vector<double> p1 = random_vec(rows * cols, 33);
  const std::vector<double> p2 = random_vec(rows * cols, 35);
  const double* panels[] = {p0.data(), p1.data(), p2.data()};
  std::vector<double> outs(rows * cols), outo(rows * cols);
  serial_kernel_backend().panel_sum(panels, 3, rows, cols, cols, outs.data(), cols);
  other_backend().panel_sum(panels, 3, rows, cols, cols, outo.data(), cols);
  EXPECT_EQ(outs, outo);
}

TEST(KernelEquivalence, XsRangeReplaysSerialTallyStreamBitwise) {
  mc::XsConfig cfg;
  cfg.n_nuclides = 12;
  cfg.gridpoints_per_nuclide = 64;
  cfg.seed = 5;
  const mc::XsDataHost data(cfg);
  const CounterRng rng(42);

  // Straddle the omp batch threshold, in uneven sub-ranges: the running macro
  // accumulator feeds tally_select, so any reordering diverges immediately.
  for (const std::uint64_t total : {std::uint64_t{40}, std::uint64_t{3000}}) {
    double ms[mc::kChannels] = {0}, mo[mc::kChannels] = {0};
    std::uint64_t cs[mc::kChannels] = {0}, co[mc::kChannels] = {0};
    std::uint64_t is = 0, io = 0;
    serial_kernel_backend().xs_range(data, rng, 0, total, ms, cs, &is);
    const std::uint64_t mid = total / 3;
    other_backend().xs_range(data, rng, 0, mid, mo, co, &io);
    other_backend().xs_range(data, rng, mid, total, mo, co, &io);
    // *index mirrors the in-flight lookup (crash bookkeeping), so it ends on
    // the last executed index, not the count.
    EXPECT_EQ(is, total - 1);
    EXPECT_EQ(io, total - 1);
    for (int c = 0; c < mc::kChannels; ++c) {
      ASSERT_EQ(ms[c], mo[c]) << "channel " << c;
      ASSERT_EQ(cs[c], co[c]) << "channel " << c;
    }
  }
}

// ------------------------------------------------- end-to-end equivalence --
// The backend axis through the full engine: every workload family x a native
// and two durable modes x single- and multi-shard, verified against the
// serial reference (verify passes run outside the bind, so `verify=on` under
// --backend=omp is exactly the serial-vs-omp check).

TEST(BackendSweep, WorkloadsVerifyAcrossBackendsModesAndShards) {
  std::string backends = "serial";
  if (find_kernel_backend("omp") != nullptr) backends += "+omp";
  std::string error;
  const auto spec = parse_sweep("workload=cg+mm+mc,mode=native+ckpt-nvm+alg-nvm,shards=1+4,backend=" +
                                    backends + ",threads=2",
                                &error);
  ASSERT_TRUE(spec.has_value()) << error;

  SweepConfig cfg;
  cfg.base.set("quick", "1")
      .set("n", "240")
      .set("iters", "4")
      .set("rank", "2")
      .set("lookups", "400")
      .set("interval", "100")
      .set("verify", "1");
  cfg.baseline = false;
  cfg.scratch_root = default_scratch_dir("test_kernels");

  const SweepResult deck = run_sweep(*spec, cfg);
  EXPECT_TRUE(deck.all_ok());
  for (const auto& cell : deck.cells) {
    EXPECT_EQ(cell.status, SweepCellResult::Status::kOk)
        << "cell " << cell.index << ": " << cell.error;
    EXPECT_TRUE(cell.result.verify_ran);
    EXPECT_TRUE(cell.result.verified) << "cell " << cell.index;
  }
}

TEST(BackendSweep, UnknownBackendAxisFailsParseEagerly) {
  std::string error;
  EXPECT_FALSE(parse_sweep("backend=cuda", &error).has_value());
  EXPECT_NE(error.find("cuda"), std::string::npos);
  EXPECT_NE(error.find("serial"), std::string::npos);
#ifndef ADCC_OPENMP
  // The omp spelling parses only when the backend is actually built — a deck
  // can never reach run_sweep with a backend that would UB-fallback.
  EXPECT_FALSE(parse_sweep("backend=omp", &error).has_value());
#endif
}

}  // namespace
}  // namespace adcc::core
