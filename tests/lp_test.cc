#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lp/interior_point.h"
#include "lp/lu_factor.h"
#include "lp/model.h"
#include "lp/revised_simplex.h"
#include "rng/rng.h"

namespace geopriv::lp {
namespace {

SolverOptions DefaultOptions() {
  SolverOptions o;
  o.time_limit_seconds = 30.0;
  return o;
}

// Verifies primal feasibility, dual sign conventions, complementary
// slackness, and strong duality for an optimal simplex solution of a
// minimization problem.
void VerifyKkt(const Model& model, const LpSolution& sol, double tol = 1e-6) {
  ASSERT_TRUE(sol.optimal());
  ASSERT_EQ(static_cast<int>(sol.x.size()), model.num_variables());
  ASSERT_EQ(static_cast<int>(sol.duals.size()), model.num_constraints());
  const double sense =
      model.sense() == ObjectiveSense::kMinimize ? 1.0 : -1.0;

  // Primal feasibility.
  for (int j = 0; j < model.num_variables(); ++j) {
    EXPECT_GE(sol.x[j], model.lower_bound(j) - tol);
    EXPECT_LE(sol.x[j], model.upper_bound(j) + tol);
  }
  std::vector<double> row_activity(model.num_constraints(), 0.0);
  for (int i = 0; i < model.num_constraints(); ++i) {
    for (const Coefficient& t : model.row(i)) {
      row_activity[i] += t.value * sol.x[t.var];
    }
    const double scale = 1.0 + std::abs(model.rhs(i));
    switch (model.constraint_sense(i)) {
      case ConstraintSense::kLessEqual:
        EXPECT_LE(row_activity[i], model.rhs(i) + tol * scale) << "row " << i;
        break;
      case ConstraintSense::kGreaterEqual:
        EXPECT_GE(row_activity[i], model.rhs(i) - tol * scale) << "row " << i;
        break;
      case ConstraintSense::kEqual:
        EXPECT_NEAR(row_activity[i], model.rhs(i), tol * scale) << "row "
                                                                << i;
        break;
    }
  }

  // Reduced costs and dual signs (for the minimization form).
  std::vector<double> reduced(model.num_variables());
  for (int j = 0; j < model.num_variables(); ++j) {
    reduced[j] = sense * model.objective_coefficient(j);
  }
  for (int i = 0; i < model.num_constraints(); ++i) {
    const double y = sense * sol.duals[i];
    switch (model.constraint_sense(i)) {
      case ConstraintSense::kLessEqual:
        EXPECT_LE(y, tol) << "row " << i;
        break;
      case ConstraintSense::kGreaterEqual:
        EXPECT_GE(y, -tol) << "row " << i;
        break;
      case ConstraintSense::kEqual:
        break;
    }
    // Complementary slackness: non-binding row -> zero dual.
    const double slack = model.rhs(i) - row_activity[i];
    if (std::abs(slack) > 1e-5 * (1.0 + std::abs(model.rhs(i)))) {
      EXPECT_NEAR(y, 0.0, tol) << "row " << i;
    }
    for (const Coefficient& t : model.row(i)) {
      reduced[t.var] -= y * t.value;
    }
  }
  double duality_rhs = 0.0;
  for (int i = 0; i < model.num_constraints(); ++i) {
    duality_rhs += sense * sol.duals[i] * model.rhs(i);
  }
  for (int j = 0; j < model.num_variables(); ++j) {
    const double lb = model.lower_bound(j);
    const double ub = model.upper_bound(j);
    const double at_lb = std::abs(sol.x[j] - lb);
    const double at_ub = std::abs(sol.x[j] - ub);
    if (at_lb > 1e-6 && at_ub > 1e-6) {
      EXPECT_NEAR(reduced[j], 0.0, 1e-5) << "var " << j;
    }
    if (reduced[j] > tol) EXPECT_LT(at_lb, 1e-5) << "var " << j;
    if (reduced[j] < -tol) EXPECT_LT(at_ub, 1e-5) << "var " << j;
    duality_rhs += reduced[j] * sol.x[j];
  }
  EXPECT_NEAR(sense * sol.objective, duality_rhs,
              1e-6 * (1.0 + std::abs(sol.objective)))
      << "strong duality";
}

TEST(SimplexTest, SolvesTextbookMaximization) {
  // max 3x + 2y s.t. x + y <= 4, x <= 2, y <= 3, x,y >= 0 -> (2,2), obj 10.
  Model m(ObjectiveSense::kMaximize);
  const int x = m.AddVariable(0, kInfinity, 3.0);
  const int y = m.AddVariable(0, kInfinity, 2.0);
  m.AddConstraint(ConstraintSense::kLessEqual, 4.0, {{x, 1.0}, {y, 1.0}});
  m.AddConstraint(ConstraintSense::kLessEqual, 2.0, {{x, 1.0}});
  m.AddConstraint(ConstraintSense::kLessEqual, 3.0, {{y, 1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal()) << SolveStatusToString(sol.status);
  EXPECT_NEAR(sol.objective, 10.0, 1e-9);
  EXPECT_NEAR(sol.x[x], 2.0, 1e-9);
  EXPECT_NEAR(sol.x[y], 2.0, 1e-9);
  VerifyKkt(m, sol);
}

TEST(SimplexTest, SolvesEqualityConstrainedMin) {
  // min x + 2y s.t. x + y = 2, x,y >= 0 -> x=2, y=0, obj 2.
  Model m;
  const int x = m.AddVariable(0, kInfinity, 1.0);
  const int y = m.AddVariable(0, kInfinity, 2.0);
  m.AddConstraint(ConstraintSense::kEqual, 2.0, {{x, 1.0}, {y, 1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 2.0, 1e-9);
  EXPECT_NEAR(sol.x[x], 2.0, 1e-9);
  VerifyKkt(m, sol);
}

TEST(SimplexTest, HandlesGreaterEqualRows) {
  // min 2x + 3y s.t. x + y >= 4, x - y >= -2, x,y >= 0.
  // Optimum at intersection x+y=4, x-y=-2 -> (1,3)? obj 2+9=11; but
  // y-heavy is costly: try (4,0): 8, feasible (4-0 >= -2). So obj 8.
  Model m;
  const int x = m.AddVariable(0, kInfinity, 2.0);
  const int y = m.AddVariable(0, kInfinity, 3.0);
  m.AddConstraint(ConstraintSense::kGreaterEqual, 4.0, {{x, 1.0}, {y, 1.0}});
  m.AddConstraint(ConstraintSense::kGreaterEqual, -2.0, {{x, 1.0}, {y, -1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 8.0, 1e-8);
  VerifyKkt(m, sol);
}

TEST(SimplexTest, DetectsInfeasibility) {
  Model m;
  const int x = m.AddVariable(0, kInfinity, 1.0);
  m.AddConstraint(ConstraintSense::kLessEqual, -1.0, {{x, 1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, DetectsInfeasibleEqualitySystem) {
  Model m;
  const int x = m.AddVariable(0, kInfinity, 0.0);
  const int y = m.AddVariable(0, kInfinity, 0.0);
  m.AddConstraint(ConstraintSense::kEqual, 1.0, {{x, 1.0}, {y, 1.0}});
  m.AddConstraint(ConstraintSense::kEqual, 3.0, {{x, 1.0}, {y, 1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, DetectsUnboundedness) {
  // min -x s.t. x - y <= 1, x,y >= 0: push x,y together to infinity.
  Model m;
  const int x = m.AddVariable(0, kInfinity, -1.0);
  const int y = m.AddVariable(0, kInfinity, 0.0);
  m.AddConstraint(ConstraintSense::kLessEqual, 1.0, {{x, 1.0}, {y, -1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  EXPECT_EQ(sol.status, SolveStatus::kUnbounded);
  // x replaces the slack, then y's column shows the ray. That claim rests
  // on incrementally updated reduced costs, so it is returned only once a
  // rebuilt factor repeats it.
  EXPECT_EQ(sol.iterations, 2);
  EXPECT_EQ(sol.refactorizations, 2);
}

TEST(SimplexTest, NoConstraintsOptimizesAtBounds) {
  Model m;
  const int x = m.AddVariable(-1.0, 2.0, 1.0);    // min -> lb
  const int y = m.AddVariable(-3.0, 5.0, -2.0);   // min -> ub
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal());
  EXPECT_DOUBLE_EQ(sol.x[x], -1.0);
  EXPECT_DOUBLE_EQ(sol.x[y], 5.0);
  EXPECT_DOUBLE_EQ(sol.objective, -11.0);
}

TEST(SimplexTest, NoConstraintsUnboundedFreeVariable) {
  Model m;
  m.AddVariable(-kInfinity, kInfinity, 1.0);
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  EXPECT_EQ(sol.status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, BoxBoundsAndBoundFlips) {
  // max x + y with 0 <= x <= 1, 0 <= y <= 2, x + y <= 2.5.
  Model m(ObjectiveSense::kMaximize);
  const int x = m.AddVariable(0.0, 1.0, 1.0);
  const int y = m.AddVariable(0.0, 2.0, 1.0);
  m.AddConstraint(ConstraintSense::kLessEqual, 2.5, {{x, 1.0}, {y, 1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 2.5, 1e-9);
  VerifyKkt(m, sol);
}

TEST(SimplexTest, FreeVariables) {
  // min |structure| with free y: min x s.t. x + y = 3, y <= 1, x >= 0.
  // y free otherwise: best is y = 1, x = 2.
  Model m;
  const int x = m.AddVariable(0.0, kInfinity, 1.0);
  const int y = m.AddVariable(-kInfinity, kInfinity, 0.0);
  m.AddConstraint(ConstraintSense::kEqual, 3.0, {{x, 1.0}, {y, 1.0}});
  m.AddConstraint(ConstraintSense::kLessEqual, 1.0, {{y, 1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 2.0, 1e-9);
  EXPECT_NEAR(sol.x[y], 1.0, 1e-9);
  VerifyKkt(m, sol);
}

TEST(SimplexTest, NegativeLowerBounds) {
  // min x + y with x in [-5, -1], y in [-2, 4], x + y >= -4.
  Model m;
  const int x = m.AddVariable(-5.0, -1.0, 1.0);
  const int y = m.AddVariable(-2.0, 4.0, 1.0);
  m.AddConstraint(ConstraintSense::kGreaterEqual, -4.0, {{x, 1.0}, {y, 1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, -4.0, 1e-9);
  EXPECT_NEAR(sol.x[x] + sol.x[y], -4.0, 1e-9);
  VerifyKkt(m, sol);
}

TEST(SimplexTest, FixedVariablesRespected) {
  Model m;
  const int x = m.AddVariable(2.0, 2.0, 1.0);  // fixed
  const int y = m.AddVariable(0.0, kInfinity, 1.0);
  m.AddConstraint(ConstraintSense::kGreaterEqual, 5.0, {{x, 1.0}, {y, 1.0}});
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal());
  EXPECT_DOUBLE_EQ(sol.x[x], 2.0);
  EXPECT_NEAR(sol.x[y], 3.0, 1e-9);
}

TEST(SimplexTest, DegenerateTransportationProblem) {
  // Classic degenerate transport instance; checks anti-cycling.
  // 2 supplies (10, 10), 2 demands (10, 10), costs [[1, 2], [3, 1]].
  Model m;
  std::vector<std::vector<int>> v(2, std::vector<int>(2));
  const double cost[2][2] = {{1, 2}, {3, 1}};
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      v[i][j] = m.AddVariable(0, kInfinity, cost[i][j]);
    }
  }
  for (int i = 0; i < 2; ++i) {
    m.AddConstraint(ConstraintSense::kEqual, 10.0,
                    {{v[i][0], 1.0}, {v[i][1], 1.0}});
  }
  for (int j = 0; j < 2; ++j) {
    m.AddConstraint(ConstraintSense::kEqual, 10.0,
                    {{v[0][j], 1.0}, {v[1][j], 1.0}});
  }
  const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 20.0, 1e-8);
  VerifyKkt(m, sol);
}

TEST(SimplexTest, WarmStartAfterAddingColumn) {
  // Solve, then add an improving column and re-solve warm: the result must
  // match a cold solve of the extended model.
  Model m;
  const int x = m.AddVariable(0, kInfinity, 3.0);
  const int y = m.AddVariable(0, kInfinity, 4.0);
  m.AddConstraint(ConstraintSense::kGreaterEqual, 6.0, {{x, 1.0}, {y, 1.0}});
  m.AddConstraint(ConstraintSense::kGreaterEqual, 2.0, {{y, 1.0}});
  Basis basis;
  LpSolution first = RevisedSimplex::Solve(m, DefaultOptions(), nullptr,
                                           &basis);
  ASSERT_TRUE(first.optimal());
  EXPECT_NEAR(first.objective, 3.0 * 4.0 + 4.0 * 2.0, 1e-8);

  const int z = m.AddVariable(0, kInfinity, 1.0);  // cheap substitute
  m.AddCoefficient(0, z, 1.0);
  LpSolution warm = RevisedSimplex::Solve(m, DefaultOptions(), &basis);
  ASSERT_TRUE(warm.optimal());
  LpSolution cold = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(cold.optimal());
  EXPECT_NEAR(warm.objective, cold.objective, 1e-8);
  EXPECT_NEAR(warm.objective, 1.0 * 4.0 + 4.0 * 2.0, 1e-8);
}

TEST(InteriorPointTest, SolvesTextbookMaximization) {
  Model m(ObjectiveSense::kMaximize);
  const int x = m.AddVariable(0, kInfinity, 3.0);
  const int y = m.AddVariable(0, kInfinity, 2.0);
  m.AddConstraint(ConstraintSense::kLessEqual, 4.0, {{x, 1.0}, {y, 1.0}});
  m.AddConstraint(ConstraintSense::kLessEqual, 2.0, {{x, 1.0}});
  m.AddConstraint(ConstraintSense::kLessEqual, 3.0, {{y, 1.0}});
  const LpSolution sol = InteriorPoint::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal()) << SolveStatusToString(sol.status);
  EXPECT_NEAR(sol.objective, 10.0, 1e-5);
}

TEST(InteriorPointTest, HandlesEqualityAndBoxBounds) {
  Model m;
  const int x = m.AddVariable(0.0, 1.5, 1.0);
  const int y = m.AddVariable(0.0, kInfinity, 2.0);
  m.AddConstraint(ConstraintSense::kEqual, 2.0, {{x, 1.0}, {y, 1.0}});
  const LpSolution sol = InteriorPoint::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 1.5 + 2.0 * 0.5, 1e-5);
}

TEST(InteriorPointTest, HandlesFreeVariables) {
  Model m;
  const int x = m.AddVariable(0.0, kInfinity, 1.0);
  const int y = m.AddVariable(-kInfinity, kInfinity, 0.0);
  m.AddConstraint(ConstraintSense::kEqual, 3.0, {{x, 1.0}, {y, 1.0}});
  m.AddConstraint(ConstraintSense::kLessEqual, 1.0, {{y, 1.0}});
  const LpSolution sol = InteriorPoint::Solve(m, DefaultOptions());
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 2.0, 1e-5);
}

// Property test: on random feasible bounded LPs, the simplex and the
// interior point must agree on the optimal objective, and the simplex
// solution must satisfy the KKT conditions.
class RandomLpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpTest, SimplexAgreesWithInteriorPoint) {
  rng::Rng rng(GetParam());
  const int n = 2 + static_cast<int>(rng.UniformInt(7));
  const int rows = 1 + static_cast<int>(rng.UniformInt(2 * n));
  Model m(rng.Uniform() < 0.5 ? ObjectiveSense::kMinimize
                              : ObjectiveSense::kMaximize);
  for (int j = 0; j < n; ++j) {
    m.AddVariable(0.0, rng.Uniform(0.5, 5.0), rng.Uniform(-3.0, 3.0));
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<Coefficient> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.Uniform() < 0.7) {
        terms.push_back({j, rng.Uniform(-2.0, 2.0)});
      }
    }
    if (terms.empty()) terms.push_back({0, 1.0});
    // rhs >= 0 keeps x = 0 feasible for <= rows; bounded boxes keep the
    // whole program bounded.
    m.AddConstraint(ConstraintSense::kLessEqual, rng.Uniform(0.5, 6.0),
                    std::move(terms));
  }
  const LpSolution simplex = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(simplex.optimal()) << SolveStatusToString(simplex.status);
  VerifyKkt(m, simplex);
  const LpSolution ipm = InteriorPoint::Solve(m, DefaultOptions());
  ASSERT_TRUE(ipm.optimal()) << SolveStatusToString(ipm.status);
  EXPECT_NEAR(simplex.objective, ipm.objective,
              1e-4 * (1.0 + std::abs(simplex.objective)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpTest, ::testing::Range(1, 41));

// Harder random instances: mixed <=, >=, = rows with feasibility guaranteed
// by construction (rhs derived from a known interior point x0).
class MixedSenseLpTest : public ::testing::TestWithParam<int> {};

TEST_P(MixedSenseLpTest, SimplexAgreesWithInteriorPointOnMixedRows) {
  rng::Rng rng(1000 + GetParam());
  const int n = 2 + static_cast<int>(rng.UniformInt(6));
  const int rows = 1 + static_cast<int>(rng.UniformInt(2 * n));
  Model m;
  std::vector<double> x0(n);
  for (int j = 0; j < n; ++j) {
    const double ub = rng.Uniform(1.0, 6.0);
    m.AddVariable(0.0, ub, rng.Uniform(-3.0, 3.0));
    x0[j] = rng.Uniform(0.2, 0.8) * ub;  // interior point
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<Coefficient> terms;
    double activity = 0.0;
    for (int j = 0; j < n; ++j) {
      if (rng.Uniform() < 0.7) {
        const double a = rng.Uniform(-2.0, 2.0);
        terms.push_back({j, a});
        activity += a * x0[j];
      }
    }
    if (terms.empty()) {
      terms.push_back({0, 1.0});
      activity = x0[0];
    }
    const double u = rng.Uniform();
    if (u < 0.4) {
      m.AddConstraint(ConstraintSense::kLessEqual,
                      activity + rng.Uniform(0.0, 2.0), std::move(terms));
    } else if (u < 0.8) {
      m.AddConstraint(ConstraintSense::kGreaterEqual,
                      activity - rng.Uniform(0.0, 2.0), std::move(terms));
    } else {
      m.AddConstraint(ConstraintSense::kEqual, activity, std::move(terms));
    }
  }
  const LpSolution simplex = RevisedSimplex::Solve(m, DefaultOptions());
  ASSERT_TRUE(simplex.optimal()) << SolveStatusToString(simplex.status);
  VerifyKkt(m, simplex);
  const LpSolution ipm = InteriorPoint::Solve(m, DefaultOptions());
  ASSERT_TRUE(ipm.optimal()) << SolveStatusToString(ipm.status);
  EXPECT_NEAR(simplex.objective, ipm.objective,
              1e-4 * (1.0 + std::abs(simplex.objective)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedSenseLpTest, ::testing::Range(1, 31));

TEST(ModelTest, ValidateAcceptsWellFormed) {
  Model m;
  const int x = m.AddVariable(0, 1, 1.0);
  m.AddConstraint(ConstraintSense::kLessEqual, 1.0, {{x, 1.0}});
  EXPECT_TRUE(m.Validate().ok());
}

TEST(ModelTest, ValidateRejectsNonFiniteRhs) {
  Model m;
  const int x = m.AddVariable(0, 1, 1.0);
  m.AddConstraint(ConstraintSense::kLessEqual,
                  std::numeric_limits<double>::quiet_NaN(), {{x, 1.0}});
  EXPECT_FALSE(m.Validate().ok());
}

TEST(SimplexTest, ManyRowsSolveWithoutDenseBasis) {
  // Up to 20,000 rows: a dense m x m basis inverse would need 3.2 GB. The
  // sparse LU factor of this (diagonal-plus-one-column) basis is tiny, so
  // the instance simply solves at any row count.
  for (const int rows : {100, 20000}) {
    Model m(ObjectiveSense::kMaximize);
    const int x = m.AddVariable(0.0, 2.0, 1.0);
    for (int i = 0; i < rows; ++i) {
      m.AddConstraint(ConstraintSense::kLessEqual, 1.0 + 1e-3 * i,
                      {{x, 1.0}});
    }
    const LpSolution sol = RevisedSimplex::Solve(m, DefaultOptions());
    ASSERT_TRUE(sol.optimal()) << rows << ": "
                               << SolveStatusToString(sol.status);
    EXPECT_NEAR(sol.objective, 1.0, 1e-12) << rows;
    EXPECT_NEAR(sol.duals[0], 1.0, 1e-12) << rows;
  }
}

TEST(SimplexTest, SingularRefactorizationRetriesColdAndCounts) {
  // max 2x + 3y over two nearly parallel rows. From the warm basis {x, s2}
  // the first pivot (y in, s2 out, pivot 1e-7) reaches the basis
  // [[1e-7, 1e-7], [1, 1 + 1e-7]], whose determinant 1e-14 leaves a
  // sub-1e-12 pivot after elimination: refactorizing it (interval 1) fails,
  // and the solver retries from a cold start, which reaches the optimum
  // along another path and reports the retry.
  Model m(ObjectiveSense::kMaximize);
  const int x = m.AddVariable(0.0, kInfinity, 2.0);
  const int y = m.AddVariable(0.0, kInfinity, 3.0);
  m.AddConstraint(ConstraintSense::kLessEqual, 1e-8, {{x, 1e-7}, {y, 1e-7}});
  m.AddConstraint(ConstraintSense::kLessEqual, 0.1 + 1e-9,
                  {{x, 1.0}, {y, 1.0 + 1e-7}});
  Basis warm;
  warm.basic = {x, 3};  // x in row 0, the slack of row 1 in row 1
  warm.status = {VarStatus::kBasic, VarStatus::kAtLower, VarStatus::kAtLower,
                 VarStatus::kBasic};
  SolverOptions o = DefaultOptions();
  o.refactorization_interval = 1;
  const LpSolution sol = RevisedSimplex::Solve(m, o, &warm);
  EXPECT_EQ(sol.numerical_retries, 1);
  ASSERT_TRUE(sol.optimal()) << SolveStatusToString(sol.status);
  EXPECT_NEAR(sol.objective, 3.0 * (0.1 + 1e-9) / (1.0 + 1e-7), 1e-9);

  const LpSolution cold = RevisedSimplex::Solve(m, o);
  EXPECT_EQ(cold.numerical_retries, 0);
  EXPECT_NEAR(cold.objective, sol.objective, 1e-12);
  // The result counts both attempts: the failed one's pivot on top of the
  // cold path's.
  EXPECT_EQ(sol.iterations, cold.iterations + 1);
  EXPECT_GT(sol.refactorizations, cold.refactorizations);

  // The retry runs on what the failed attempt left of the budget: with
  // just enough iterations for the cold path, the pivot spent before the
  // retry makes it hit the limit instead of starting the budget afresh.
  o.max_iterations = cold.iterations + 1;
  EXPECT_TRUE(RevisedSimplex::Solve(m, o).optimal());
  const LpSolution capped = RevisedSimplex::Solve(m, o, &warm);
  EXPECT_EQ(capped.numerical_retries, 1);
  EXPECT_EQ(capped.status, SolveStatus::kIterationLimit);
}

// Random sparse bases: every Ftran/Btran through the LU factor and its
// eta file must solve B x = b and B' y = c, with B rebuilt densely from
// the basic columns, both right after a factorization and after a run of
// basis changes.
TEST(LuFactorTest, SolvesMatchDenseProductsAcrossUpdates) {
  for (uint64_t seed : {1, 2, 3, 4}) {
    rng::Rng rng(seed);
    const int m = 12 + static_cast<int>(rng.UniformInt(30));
    // CSC: m unit columns, then 3m random columns of 1-4 entries.
    std::vector<int> col_start{0};
    std::vector<int> row_index;
    std::vector<double> value;
    for (int i = 0; i < m; ++i) {
      row_index.push_back(i);
      value.push_back(1.0);
      col_start.push_back(static_cast<int>(row_index.size()));
    }
    for (int j = 0; j < 3 * m; ++j) {
      const int entries = 1 + static_cast<int>(rng.UniformInt(4));
      std::vector<bool> used(m, false);
      for (int e = 0; e < entries; ++e) {
        const int r = static_cast<int>(rng.UniformInt(m));
        if (used[r]) continue;
        used[r] = true;
        row_index.push_back(r);
        value.push_back(rng.Uniform(-2.0, 2.0));
      }
      col_start.push_back(static_cast<int>(row_index.size()));
    }
    std::vector<int> basic(m);
    for (int i = 0; i < m; ++i) basic[i] = i;
    const auto check = [&](LuFactor& lu, const std::string& when) {
      std::vector<double> b(m), x(m), c(m), y(m);
      for (int i = 0; i < m; ++i) b[i] = x[i] = rng.Uniform(-1.0, 1.0);
      for (int i = 0; i < m; ++i) c[i] = y[i] = rng.Uniform(-1.0, 1.0);
      lu.Ftran(&x);
      lu.Btran(&y);
      std::vector<double> bx(m, 0.0);
      for (int k = 0; k < m; ++k) {
        double cy = 0.0;
        for (int p = col_start[basic[k]]; p < col_start[basic[k] + 1]; ++p) {
          bx[row_index[p]] += value[p] * x[k];
          cy += value[p] * y[row_index[p]];
        }
        EXPECT_NEAR(cy, c[k], 1e-9) << when << " B'y, position " << k;
      }
      for (int i = 0; i < m; ++i) {
        EXPECT_NEAR(bx[i], b[i], 1e-9) << when << " Bx, row " << i;
      }
    };
    LuFactor lu;
    for (int round = 0; round < 4; ++round) {
      ASSERT_TRUE(lu.Factorize(m, col_start, row_index, value, basic));
      check(lu, "factorized, seed " + std::to_string(seed));
      // Basis changes with well-conditioned pivots, as the ratio test
      // would pick them.
      for (int update = 0; update < m; ++update) {
        const int j = m + static_cast<int>(rng.UniformInt(3 * m));
        if (std::find(basic.begin(), basic.end(), j) != basic.end()) continue;
        std::vector<double> w(m, 0.0);
        for (int p = col_start[j]; p < col_start[j + 1]; ++p) {
          w[row_index[p]] = value[p];
        }
        lu.Ftran(&w);
        int pos = 0;
        for (int k = 1; k < m; ++k) {
          if (std::abs(w[k]) > std::abs(w[pos])) pos = k;
        }
        if (std::abs(w[pos]) < 0.1) continue;
        lu.Update(pos, w);
        basic[pos] = j;
      }
      check(lu, "after " + std::to_string(lu.num_updates()) + " updates");
    }
  }
}

TEST(LuFactorTest, SingularBasisIsRejected) {
  // Two identical columns.
  const std::vector<int> col_start{0, 2, 4};
  const std::vector<int> row_index{0, 1, 0, 1};
  const std::vector<double> value{1.0, 2.0, 1.0, 2.0};
  const std::vector<int> basic{0, 1};
  LuFactor lu;
  EXPECT_FALSE(lu.Factorize(2, col_start, row_index, value, basic));
}

TEST(SimplexTest, TimeLimitReported) {
  // A big random dense LP with a microscopic time budget must stop with
  // kTimeLimit rather than hanging.
  rng::Rng rng(5);
  Model m;
  const int n = 60;
  for (int j = 0; j < n; ++j) {
    m.AddVariable(0.0, 10.0, rng.Uniform(-1.0, 1.0));
  }
  for (int i = 0; i < 120; ++i) {
    std::vector<Coefficient> terms;
    for (int j = 0; j < n; ++j) terms.push_back({j, rng.Uniform(-1.0, 1.0)});
    m.AddConstraint(ConstraintSense::kLessEqual, rng.Uniform(1.0, 5.0),
                    std::move(terms));
  }
  SolverOptions o;
  o.time_limit_seconds = 0.0;
  const LpSolution sol = RevisedSimplex::Solve(m, o);
  EXPECT_EQ(sol.status, SolveStatus::kTimeLimit);
}

}  // namespace
}  // namespace geopriv::lp
