// Common result and option types shared by all LP solvers.

#ifndef GEOPRIV_LP_SOLUTION_H_
#define GEOPRIV_LP_SOLUTION_H_

#include <limits>
#include <string>
#include <vector>

namespace geopriv::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kTimeLimit,
  kNumericalError,
};

std::string SolveStatusToString(SolveStatus status);

struct SolverOptions {
  // Wall-clock budget; the solver returns kTimeLimit when exceeded.
  double time_limit_seconds = std::numeric_limits<double>::infinity();
  // Simplex pivots (or interior-point iterations).
  int max_iterations = 1000000;
  double feasibility_tolerance = 1e-8;
  double optimality_tolerance = 1e-8;
  // Simplex: refactorize the basis (a fresh sparse LU) after this many
  // eta updates, bounding the eta file's length and its rounding drift.
  // The reduced costs, updated incrementally between refactorizations, are
  // recomputed from fresh duals at each one.
  int refactorization_interval = 100;
};

struct LpSolution {
  SolveStatus status = SolveStatus::kNumericalError;
  double objective = 0.0;
  // One value per model variable.
  std::vector<double> x;
  // One dual multiplier per model constraint (simplex only; empty for
  // interior point unless converged).
  std::vector<double> duals;
  int iterations = 0;
  double solve_seconds = 0.0;
  // Basis refactorizations performed and their share of solve_seconds
  // (revised simplex only; interior point leaves them zero). Exposed so
  // the observability layer can split a solve into pricing / refactorize /
  // pivoting phases.
  int refactorizations = 0;
  double refactor_seconds = 0.0;
  // 1 when the solve hit numerical trouble (a singular refactorization)
  // and this result comes from the solver's one cold-start retry; the
  // counts and times above then cover both attempts.
  int numerical_retries = 0;

  bool optimal() const { return status == SolveStatus::kOptimal; }
};

}  // namespace geopriv::lp

#endif  // GEOPRIV_LP_SOLUTION_H_
