// Revised primal simplex with bounded variables.
//
// Solves Model (min/max c'x, sparse rows, box bounds) via the classical
// two-phase method: phase 1 minimizes the sum of artificial variables to
// find a feasible basis, phase 2 optimizes the true objective. The basis
// is held as a sparse LU factorization (lp/lu_factor.h) extended by one
// product-form eta column per basis change, and refactorized from scratch
// every `refactorization_interval` changes to bound the eta file and its
// floating-point drift. Each basis change computes the pivot row of
// B^{-1} A once and uses it to update the reduced costs and the devex
// weights and to price the next entering variable; duals are recomputed
// from scratch only at refactorizations. A solve that hits numerical
// trouble (a singular refactorization) is retried once from a cold start
// with frequent refactorization, within what is left of the time and
// iteration limits, and the result says so (LpSolution::numerical_retries).
//
// Warm starting: Solve() can resume from a Basis captured by a previous
// call. This matters for column generation (the optimal GeoInd mechanism):
// after appending variables to the model, the old basis is still feasible
// and the solver continues without a phase 1.

#ifndef GEOPRIV_LP_REVISED_SIMPLEX_H_
#define GEOPRIV_LP_REVISED_SIMPLEX_H_

#include <cstdint>
#include <vector>

#include "lp/model.h"
#include "lp/solution.h"

namespace geopriv::lp {

// Nonbasic/basic status of one variable (structural or slack).
enum class VarStatus : uint8_t {
  kAtLower = 0,
  kAtUpper = 1,
  kFree = 2,  // nonbasic free variable pinned at 0
  kBasic = 3,
};

// Snapshot of a simplex basis: `basic[i]` is the variable occupying row i
// (structural indices first, then slacks N..N+m-1); `status` has one entry
// per structural-plus-slack variable.
struct Basis {
  std::vector<int> basic;
  std::vector<VarStatus> status;

  bool empty() const { return basic.empty(); }
};

class RevisedSimplex {
 public:
  // Solves `model`. If `warm` is non-null and non-empty, tries to start from
  // it (falls back to a cold start if the basis is unusable). If `out_basis`
  // is non-null, stores the final basis for later warm starts.
  static LpSolution Solve(const Model& model, const SolverOptions& options,
                          const Basis* warm = nullptr,
                          Basis* out_basis = nullptr);
};

}  // namespace geopriv::lp

#endif  // GEOPRIV_LP_REVISED_SIMPLEX_H_
