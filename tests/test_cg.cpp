// Tests for the CG kernel: the one cg_step (in place and history-row form),
// cg_solve, and the Fig. 2 recovery invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "core/fault.hpp"
#include "cg/cg.hpp"
#include "linalg/spgen.hpp"
#include "linalg/vec_ops.hpp"

namespace adcc::cg {
namespace {

struct Problem {
  linalg::CsrMatrix a;
  std::vector<double> b;
};

Problem make_problem(std::size_t n = 600) {
  return {linalg::make_spd(n, 9, 21), linalg::make_rhs(n, 22)};
}

TEST(CgInit, StateMatchesDefinition) {
  const Problem p = make_problem(100);
  CgState s;
  cg_init(p.a, p.b, s);
  EXPECT_EQ(s.iter, 0u);
  EXPECT_DOUBLE_EQ(s.rho, linalg::dot(p.b, p.b));
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(s.r[i], p.b[i]);
    EXPECT_DOUBLE_EQ(s.p[i], p.b[i]);
    EXPECT_DOUBLE_EQ(s.z[i], 0.0);
  }
}

TEST(CgStep, ReducesResidualNorm) {
  const Problem p = make_problem();
  CgState s;
  cg_init(p.a, p.b, s);
  const double before = std::sqrt(s.rho);
  for (int i = 0; i < 5; ++i) cg_step(p.a, s);
  EXPECT_LT(std::sqrt(s.rho), before);
  EXPECT_EQ(s.iter, 5u);
}

TEST(CgSolve, ConvergesTowardSolution) {
  const Problem p = make_problem();
  const auto res5 = cg_solve(p.a, p.b, 5);
  const auto res40 = cg_solve(p.a, p.b, 40);
  EXPECT_LT(res40.residual_norm, res5.residual_norm);
  EXPECT_LT(res40.residual_norm, 1e-6 * linalg::norm2(p.b));
}

TEST(CgSolve, InternalResidualTracksTrueResidual) {
  const Problem p = make_problem(300);
  CgState s;
  cg_init(p.a, p.b, s);
  for (int i = 0; i < 10; ++i) cg_step(p.a, s);
  const double true_r = true_residual(p.a, p.b, s.z);
  EXPECT_NEAR(std::sqrt(s.rho), true_r, 1e-8 * linalg::norm2(p.b) + 1e-10);
}

TEST(CgSolve, RhsSizeMismatchThrows) {
  const Problem p = make_problem(100);
  std::vector<double> bad(50, 1.0);
  EXPECT_THROW(cg_solve(p.a, bad, 3), ContractViolation);
}

// Runs `iters` iterations the Fig. 2 way — row i in, row i + 1 out of
// iteration-major history arrays — and returns the arrays' rows flattened.
struct History {
  std::size_t n;
  std::vector<double> p, q, r, z;
  std::span<double> row(std::vector<double>& v, std::size_t i) {
    return std::span<double>(v).subspan(i * n, n);
  }
};

History run_history(const Problem& pr, std::size_t iters) {
  const std::size_t n = pr.b.size();
  History h{n, {}, {}, {}, {}};
  for (auto* v : {&h.p, &h.q, &h.r, &h.z}) v->assign((iters + 2) * n, 0.0);
  linalg::copy(pr.b, h.row(h.p, 1));
  linalg::copy(pr.b, h.row(h.r, 1));
  double rho = linalg::dot(pr.b, pr.b);
  for (std::size_t i = 1; i <= iters; ++i) {
    cg_step(pr.a, {.p = h.row(h.p, i), .r = h.row(h.r, i), .z = h.row(h.z, i),
                   .p_next = h.row(h.p, i + 1), .r_next = h.row(h.r, i + 1),
                   .z_next = h.row(h.z, i + 1), .q = h.row(h.q, i), .rho = rho});
  }
  return h;
}

TEST(CgStep, HistoryRowsReproduceInPlaceStateBitwise) {
  // The alg engine steps history rows i → i+1, the other engines step in
  // place; both must produce the identical IEEE sequence.
  const Problem p = make_problem(300);
  CgState s;
  cg_init(p.a, p.b, s);
  History h = run_history(p, 9);
  for (std::size_t i = 1; i <= 9; ++i) {
    cg_step(p.a, s);
    const auto zi = h.row(h.z, i + 1);
    const auto pi = h.row(h.p, i + 1);
    EXPECT_TRUE(std::equal(s.z.begin(), s.z.end(), zi.begin())) << "z, iteration " << i;
    EXPECT_TRUE(std::equal(s.p.begin(), s.p.end(), pi.begin())) << "p, iteration " << i;
  }
}

TEST(CgStep, AnnouncesTheSameAccessTotalEveryIteration) {
  const Problem p = make_problem(200);
  CgState s;
  cg_init(p.a, p.b, s);
  core::FaultSurface fault;
  for (std::size_t i = 1; i <= 3; ++i) {
    cg_step(p.a, {.p = s.p, .r = s.r, .z = s.z, .p_next = s.p, .r_next = s.r, .z_next = s.z,
                  .q = s.q, .rho = s.rho},
            &fault);
    EXPECT_EQ(fault.access_count(), i * (p.a.nnz() + 15 * 200));
  }
}

TEST(CgRowsConsistent, AcceptsEveryCompletedIterationAndRejectsStaleRows) {
  const Problem p = make_problem(250);
  History h = run_history(p, 6);
  std::vector<double> az(250);
  const double tol = 1e-6;
  for (std::size_t j = 0; j <= 6; ++j) {
    EXPECT_TRUE(cg_rows_consistent(p.a, p.b, j, h.row(h.p, j + 1), h.row(h.q, j),
                                   h.row(h.r, j + 1), h.row(h.z, j + 1), tol, az))
        << "j = " << j;
  }
  // Never-written (all-zero) rows fail Eq. 2, as b != 0.
  const std::vector<double> zeros(250, 0.0);
  EXPECT_FALSE(cg_rows_consistent(p.a, p.b, 3, zeros, zeros, zeros, zeros, tol, az));
  // A stale direction row fails Eq. 1 ...
  History stale = run_history(p, 6);
  linalg::copy(stale.row(stale.p, 3), stale.row(stale.p, 4));
  EXPECT_FALSE(cg_rows_consistent(p.a, p.b, 3, stale.row(stale.p, 4), stale.row(stale.q, 3),
                                  stale.row(stale.r, 4), stale.row(stale.z, 4), tol, az));
  // ... and at j = 0 the initialization invariant p1 = r1 stands in for it.
  stale.row(stale.p, 1)[7] += 1.0;
  EXPECT_FALSE(cg_rows_consistent(p.a, p.b, 0, stale.row(stale.p, 1), stale.row(stale.q, 0),
                                  stale.row(stale.r, 1), stale.row(stale.z, 1), tol, az));
}

TEST(TrueResidual, ZeroForExactSolution) {
  // A = I system: x = b exactly.
  std::vector<std::size_t> rp = {0, 1, 2};
  std::vector<std::uint32_t> ci = {0, 1};
  std::vector<double> v = {1.0, 1.0};
  linalg::CsrMatrix eye(2, std::move(rp), std::move(ci), std::move(v));
  std::vector<double> b = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(true_residual(eye, b, b), 0.0);
}

}  // namespace
}  // namespace adcc::cg
