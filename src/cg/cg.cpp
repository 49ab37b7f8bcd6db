#include "cg/cg.hpp"

#include <cmath>

#include "common/check.hpp"
#include "core/fault.hpp"
#include "linalg/vec_ops.hpp"

namespace adcc::cg {

using linalg::CsrMatrix;

void cg_init(const CsrMatrix& a, std::span<const double> b, CgState& s) {
  const std::size_t n = a.rows();
  ADCC_CHECK(b.size() == n, "rhs size mismatch");
  s.p.assign(b.begin(), b.end());  // x0 = 0 → r0 = b, p1 = r0.
  s.r.assign(b.begin(), b.end());
  s.q.assign(n, 0.0);
  s.z.assign(n, 0.0);
  s.rho = linalg::dot(s.r, s.r);
  s.iter = 0;
}

void cg_step(const CsrMatrix& a, const CgStepView& v, core::FaultSurface* fault) {
  const std::size_t n = a.rows();
  const auto tick = [fault](std::uint64_t accesses) {
    if (fault != nullptr) fault->tick(accesses);
  };
  a.spmv(v.p, v.q);                               // q ← A·p
  tick(a.nnz() + 2 * n);
  const double pq = linalg::dot(v.p, v.q);
  tick(2 * n);
  ADCC_CHECK(pq > 0, "A is not positive definite along p");
  const double alpha = v.rho / pq;
  linalg::xpay(v.z, alpha, v.p, v.z_next);        // z ← z + α·p
  tick(3 * n);
  linalg::xpay(v.r, -alpha, v.q, v.r_next);       // r ← r − α·q
  tick(3 * n);
  const double rho_new = linalg::dot(v.r_next, v.r_next);
  tick(2 * n);
  const double beta = rho_new / v.rho;
  v.rho = rho_new;
  linalg::xpay(v.r_next, beta, v.p, v.p_next);    // p ← r + β·p
  tick(3 * n);
}

void cg_step(const CsrMatrix& a, CgState& s) {
  cg_step(a, {.p = s.p, .r = s.r, .z = s.z, .p_next = s.p, .r_next = s.r, .z_next = s.z,
              .q = s.q, .rho = s.rho});
  ++s.iter;
}

bool cg_rows_consistent(const CsrMatrix& a, std::span<const double> b, std::size_t j,
                        std::span<const double> p_next, std::span<const double> q,
                        std::span<const double> r_next, std::span<const double> z_next,
                        double rel_tol, std::span<double> az) {
  const std::size_t n = a.rows();
  // Eq. 2: r(j+1) = b − A·z(j+1).
  a.spmv(z_next, az);
  double err2 = 0.0;
  double b2 = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    const double d = r_next[t] - (b[t] - az[t]);
    err2 += d * d;
    b2 += b[t] * b[t];
  }
  if (std::sqrt(err2) > rel_tol * std::sqrt(b2)) return false;

  if (j >= 1) {
    // Eq. 1: p(j+1)ᵀ · q(j) = 0; the all-zero p row is trivially orthogonal.
    const double pq = linalg::dot(p_next, q);
    const double np = linalg::norm2(p_next);
    const double nq = linalg::norm2(q);
    if (std::fabs(pq) > rel_tol * (np * nq + 1e-300)) return false;
    if (np == 0.0) return false;
  } else {
    // j = 0: Eq. 1 has no q(0). Without p₁ = r₁ a partially-stale p₁ could
    // pass (r₁/z₁ alone say nothing about p) and restart from a corrupt
    // direction.
    double diff2 = 0.0;
    double r2 = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      const double d = p_next[t] - r_next[t];
      diff2 += d * d;
      r2 += r_next[t] * r_next[t];
    }
    if (std::sqrt(diff2) > rel_tol * (std::sqrt(r2) + 1e-300)) return false;
  }
  return true;
}

CgResult cg_solve(const CsrMatrix& a, std::span<const double> b, std::size_t iters) {
  CgState s;
  cg_init(a, b, s);
  for (std::size_t i = 0; i < iters; ++i) cg_step(a, s);
  CgResult res;
  res.x = std::move(s.z);
  res.iters = iters;
  res.residual_norm = true_residual(a, b, res.x);
  return res;
}

double true_residual(const CsrMatrix& a, std::span<const double> b, std::span<const double> x) {
  std::vector<double> ax(a.rows());
  a.spmv(x, ax);
  double s = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double d = b[i] - ax[i];
    s += d * d;
  }
  return std::sqrt(s);
}

}  // namespace adcc::cg
