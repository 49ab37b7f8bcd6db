// Conjugate Gradient (paper Fig. 1) for sparse SPD systems A·x = b.
//
// The iteration state is exactly the paper's four vectors:
//   p — search direction, q = A·p, r — residual, z — solution accumulator
// plus the scalar rho = rᵀr. cg_step is the one definition of the iteration:
// the native, checkpointed, transactional and algorithm-directed engines of
// cg::CgWorkload all call it (in place, or history row i → i + 1), so their
// overheads are directly comparable. cg_rows_consistent is likewise the one
// definition of the Fig. 2 recovery invariants (Eq. 1/2).
#pragma once

#include <span>
#include <vector>

#include "linalg/csr.hpp"

namespace adcc::core {
class FaultSurface;
}

namespace adcc::cg {

/// Volatile CG state (one iteration's worth).
struct CgState {
  std::vector<double> p, q, r, z;
  double rho = 0.0;
  std::size_t iter = 0;  ///< Completed iterations.
};

/// Initializes state for x₀ = 0: r = b, p = r, z = 0, rho = rᵀr.
void cg_init(const linalg::CsrMatrix& a, std::span<const double> b, CgState& s);

/// The operands of one CG iteration. In-place engines pass the same vectors
/// as inputs and outputs; the Fig. 2 history arrays pass row i as the inputs
/// and row i + 1 as the outputs. q receives A·p; rho is rᵀr on entry and the
/// new residual's r_nextᵀr_next on return.
struct CgStepView {
  std::span<const double> p, r, z;
  std::span<double> p_next, r_next, z_next;
  std::span<double> q;
  double& rho;
};

/// One CG iteration (paper Fig. 1 lines 3–10). When `fault` is set, each
/// sub-statement announces its element accesses through fault->tick (SpMV
/// nnz + 2n, p·q 2n, z and r updates 3n each, r·r 2n, p update 3n), so an
/// armed access trigger can interrupt the iteration between them.
void cg_step(const linalg::CsrMatrix& a, const CgStepView& v,
             core::FaultSurface* fault = nullptr);

/// cg_step on volatile state, in place, counting the completed iteration.
void cg_step(const linalg::CsrMatrix& a, CgState& s);

/// The Fig. 2 recovery invariants for resuming after iteration j, checked on
/// rows p(j+1), q(j), r(j+1), z(j+1) to relative tolerance `rel_tol`:
///   (Eq. 2) r(j+1) = b − A·z(j+1) — also rejects never-written rows, as b ≠ 0
///   (Eq. 1) p(j+1)ᵀ·q(j) = 0 with p(j+1) ≠ 0, for j ≥ 1
///   p₁ = r₁ (Fig. 2 line 1) standing in for Eq. 1 at j = 0 (q is unused).
/// `az` is n-element scratch.
bool cg_rows_consistent(const linalg::CsrMatrix& a, std::span<const double> b, std::size_t j,
                        std::span<const double> p_next, std::span<const double> q,
                        std::span<const double> r_next, std::span<const double> z_next,
                        double rel_tol, std::span<double> az);

struct CgResult {
  std::vector<double> x;      ///< Solution estimate (the paper's z).
  double residual_norm = 0.;  ///< ‖b − A·x‖₂ recomputed from scratch.
  std::size_t iters = 0;
};

/// Runs `iters` CG iterations (no early exit — matches the paper's fixed-trip
/// main loops) and returns the solution estimate.
CgResult cg_solve(const linalg::CsrMatrix& a, std::span<const double> b, std::size_t iters);

/// ‖b − A·x‖₂.
double true_residual(const linalg::CsrMatrix& a, std::span<const double> b,
                     std::span<const double> x);

}  // namespace adcc::cg
