// Pins the optimal objectives of a fixed LP corpus as literals, so any
// change to the simplex (factorization, pricing, update scheme) must reach
// the same optima to 1e-9 relative. The literals were recorded from the
// dense explicit-inverse solver. The corpus covers:
//   * column-generation OPT at g 2-5 (n = 4-25), eps in {0.5, 1.2, 3},
//     uniform and skewed priors, both utility metrics;
//   * the explicit n^3-row primal (kFullPrimalSimplex) at n <= 9;
//   * small textbook models and seeded random mixed-sense LPs;
//   * a hand-rolled column generation whose warm-started re-solves must
//     agree with cold solves of the same restricted dual.

#include <cmath>
#include <cstdint>
#include <iomanip>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "geo/distance.h"
#include "lp/model.h"
#include "lp/revised_simplex.h"
#include "mechanisms/optimal.h"
#include "rng/rng.h"
#include "spatial/grid.h"

namespace geopriv {
namespace {

using geo::Point;
using geo::UtilityMetric;
using lp::Coefficient;
using lp::ConstraintSense;
using lp::Model;
using lp::ObjectiveSense;

constexpr double kRelTol = 1e-9;
// 5 km square: cell spacing 1-2.5 km keeps every eps in the corpus away
// from the all-identity regime.
constexpr geo::BBox kDomain{0.0, 0.0, 5.0, 5.0};

std::vector<Point> GridCenters(int g) {
  return spatial::UniformGrid(kDomain, g).AllCenters();
}

std::vector<double> Prior(int n, bool skewed) {
  std::vector<double> prior(n, 1.0 / n);
  if (skewed) {
    for (int i = 0; i < n; ++i) prior[i] = 1.0 / (1.0 + i);
  }
  return prior;
}

std::string Digits(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

void ExpectObjective(double got, double want, const std::string& what) {
  EXPECT_LE(std::abs(got - want), kRelTol * std::abs(want) + 1e-15)
      << what << ": got " << Digits(got) << ", pinned " << Digits(want);
}

struct OptCase {
  int g;
  double eps;
  bool skewed;
  UtilityMetric metric;
  double objective;
};

std::string Describe(const OptCase& c) {
  return "g=" + std::to_string(c.g) + " eps=" + Digits(c.eps) +
         (c.skewed ? " skewed " : " uniform ") +
         geo::UtilityMetricName(c.metric);
}

void CheckOpt(const OptCase& c, mechanisms::OptAlgorithm algorithm) {
  mechanisms::OptimalMechanismOptions options;
  options.algorithm = algorithm;
  options.solver.time_limit_seconds = 120.0;
  auto opt = mechanisms::OptimalMechanism::Create(
      c.eps, GridCenters(c.g), Prior(c.g * c.g, c.skewed), c.metric,
      options);
  ASSERT_TRUE(opt.ok()) << Describe(c) << ": " << opt.status().ToString();
  ExpectObjective(opt->ExpectedLoss(), c.objective, Describe(c));
  EXPECT_LE(opt->MaxGeoIndViolation(), 1e-7) << Describe(c);
}

constexpr UtilityMetric kEu = UtilityMetric::kEuclidean;
constexpr UtilityMetric kSq = UtilityMetric::kSquaredEuclidean;

// clang-format off
constexpr OptCase kColumnGenerationCorpus[] = {
    {2, 0.5, false, kEu, 1.167667051720475},
    {2, 0.5, false, kSq, 3.2776025454847706},
    {2, 0.5, true, kEu, 1.1442572153286221},
    {2, 0.5, true, kSq, 3.0906767005717688},
    {2, 1.2, false, kEu, 0.26907960177769641},
    {2, 1.2, false, kSq, 0.7199271220765826},
    {2, 1.2, true, kEu, 0.26907960177769646},
    {2, 1.2, true, kSq, 0.71992712207658272},
    {2, 3.0, false, kEu, 0.0028497108115725536},
    {2, 3.0, false, kSq, 0.0072147960517384389},
    {2, 3.0, true, kEu, 0.0028497108115725536},
    {2, 3.0, true, kSq, 0.0072147960517384407},
    {3, 0.5, false, kEu, 1.6039542734250876},
    {3, 0.5, false, kSq, 3.7037037037037028},
    {3, 0.5, true, kEu, 1.3267012190652445},
    {3, 0.5, true, kSq, 2.9017908924674147},
    {3, 1.2, false, kEu, 0.65900303418575135},
    {3, 1.2, false, kSq, 1.4265108167865193},
    {3, 1.2, true, kEu, 0.6229067399934779},
    {3, 1.2, true, kSq, 1.3695886862181545},
    {3, 3.0, false, kEu, 0.033106488340341612},
    {3, 3.0, false, kSq, 0.058103174430759096},
    {3, 3.0, true, kEu, 0.031011885135542368},
    {3, 3.0, true, kSq, 0.054390902863868155},
    {4, 0.5, false, kEu, 1.6048229715858982},
    {4, 0.5, false, kSq, 3.1622868421978243},
    {4, 0.5, true, kEu, 1.3848454155895189},
    {4, 0.5, true, kSq, 2.9545779283429621},
    {4, 1.2, false, kEu, 0.90556738403393588},
    {4, 1.2, false, kSq, 1.7854257804279632},
    {4, 1.2, true, kEu, 0.82022629099626565},
    {4, 1.2, true, kSq, 1.5306739149433584},
    {4, 3.0, false, kEu, 0.10357453900952748},
    {4, 3.0, false, kSq, 0.14516182774195904},
    {4, 3.0, true, kEu, 0.093481719036417235},
    {4, 3.0, true, kSq, 0.13079403623501579},
    {5, 0.5, false, kEu, 1.619532155329606},
    {5, 0.5, false, kSq, 3.3362839020774175},
    {5, 0.5, true, kEu, 1.4096957828186076},
    {5, 0.5, true, kSq, 2.8977039628901031},
    {5, 1.2, false, kEu, 1.0422334821719159},
    {5, 1.2, false, kSq, 1.7857303808299312},
    {5, 1.2, true, kEu, 0.88850118918045817},
    {5, 1.2, true, kSq, 1.5108168752148423},
    {5, 3.0, false, kEu, 0.19331610944857677},
    {5, 3.0, false, kSq, 0.23504068941121803},
    {5, 3.0, true, kEu, 0.17049505944012572},
    {5, 3.0, true, kSq, 0.20654959024507183},
};

constexpr OptCase kFullPrimalCorpus[] = {
    {2, 0.5, false, kEu, 1.1676670517204748},
    {2, 0.5, true, kSq, 3.0906767005717688},
    {2, 1.2, true, kEu, 0.26907960177769646},
    {2, 3.0, false, kSq, 0.0072147960517384398},
    {3, 0.5, true, kEu, 1.3267012190652439},
    {3, 0.5, false, kSq, 3.7037037037037028},
    {3, 1.2, false, kEu, 0.65900303418575146},
    {3, 1.2, true, kSq, 1.3695886862181545},
    {3, 3.0, true, kEu, 0.031011885135542334},
    {3, 3.0, false, kSq, 0.058103174430758929},
};
// clang-format on

TEST(LpCorpusTest, ColumnGenerationObjectives) {
  for (const OptCase& c : kColumnGenerationCorpus) {
    CheckOpt(c, mechanisms::OptAlgorithm::kColumnGeneration);
  }
}

TEST(LpCorpusTest, FullPrimalSimplexObjectives) {
  for (const OptCase& c : kFullPrimalCorpus) {
    CheckOpt(c, mechanisms::OptAlgorithm::kFullPrimalSimplex);
  }
}

lp::SolverOptions Options() {
  lp::SolverOptions o;
  o.time_limit_seconds = 30.0;
  return o;
}

double SolveObjective(const Model& m) {
  const lp::LpSolution sol = lp::RevisedSimplex::Solve(m, Options());
  EXPECT_TRUE(sol.optimal()) << lp::SolveStatusToString(sol.status);
  return sol.objective;
}

TEST(LpCorpusTest, TextbookModels) {
  {  // max 3x + 2y s.t. x + y <= 4, x <= 2, y <= 3.
    Model m(ObjectiveSense::kMaximize);
    const int x = m.AddVariable(0, lp::kInfinity, 3.0);
    const int y = m.AddVariable(0, lp::kInfinity, 2.0);
    m.AddConstraint(ConstraintSense::kLessEqual, 4.0, {{x, 1.0}, {y, 1.0}});
    m.AddConstraint(ConstraintSense::kLessEqual, 2.0, {{x, 1.0}});
    m.AddConstraint(ConstraintSense::kLessEqual, 3.0, {{y, 1.0}});
    ExpectObjective(SolveObjective(m), 10, "textbook max");
  }
  {  // min 2x + 3y s.t. x + y >= 4, x - y >= -2.
    Model m;
    const int x = m.AddVariable(0, lp::kInfinity, 2.0);
    const int y = m.AddVariable(0, lp::kInfinity, 3.0);
    m.AddConstraint(ConstraintSense::kGreaterEqual, 4.0,
                    {{x, 1.0}, {y, 1.0}});
    m.AddConstraint(ConstraintSense::kGreaterEqual, -2.0,
                    {{x, 1.0}, {y, -1.0}});
    ExpectObjective(SolveObjective(m), 8, ">= rows");
  }
  {  // min x s.t. x + y = 3, y <= 1, y free.
    Model m;
    const int x = m.AddVariable(0.0, lp::kInfinity, 1.0);
    const int y = m.AddVariable(-lp::kInfinity, lp::kInfinity, 0.0);
    m.AddConstraint(ConstraintSense::kEqual, 3.0, {{x, 1.0}, {y, 1.0}});
    m.AddConstraint(ConstraintSense::kLessEqual, 1.0, {{y, 1.0}});
    ExpectObjective(SolveObjective(m), 2, "free variable");
  }
  {  // Degenerate 2x2 transportation problem.
    Model m;
    const double cost[2][2] = {{1, 2}, {3, 1}};
    int v[2][2];
    for (int i = 0; i < 2; ++i) {
      for (int j = 0; j < 2; ++j) {
        v[i][j] = m.AddVariable(0, lp::kInfinity, cost[i][j]);
      }
    }
    for (int i = 0; i < 2; ++i) {
      m.AddConstraint(ConstraintSense::kEqual, 10.0,
                      {{v[i][0], 1.0}, {v[i][1], 1.0}});
      m.AddConstraint(ConstraintSense::kEqual, 10.0,
                      {{v[0][i], 1.0}, {v[1][i], 1.0}});
    }
    ExpectObjective(SolveObjective(m), 20, "transportation");
  }
}

// Random mixed-sense LPs over boxed variables, feasible by construction
// around an interior point, with rows dense enough that the basis keeps a
// nontrivial nucleus after singleton elimination.
Model RandomMixedLp(uint64_t seed, int n, int rows) {
  rng::Rng rng(seed);
  Model m(rng.Uniform() < 0.5 ? ObjectiveSense::kMinimize
                              : ObjectiveSense::kMaximize);
  std::vector<double> x0(n);
  for (int j = 0; j < n; ++j) {
    const double ub = rng.Uniform(1.0, 6.0);
    m.AddVariable(0.0, ub, rng.Uniform(-3.0, 3.0));
    x0[j] = rng.Uniform(0.2, 0.8) * ub;
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<Coefficient> terms;
    double activity = 0.0;
    for (int j = 0; j < n; ++j) {
      if (rng.Uniform() < 0.4) {
        const double a = rng.Uniform(-2.0, 2.0);
        terms.push_back({j, a});
        activity += a * x0[j];
      }
    }
    if (terms.empty()) {
      terms.push_back({i % n, 1.0});
      activity = x0[i % n];
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
  return m;
}

struct RandomCase {
  uint64_t seed;
  int n;
  int rows;
  double objective;
};

// clang-format off
constexpr RandomCase kRandomCorpus[] = {
    {1, 8, 12, -1.0654216087204846},
    {2, 12, 10, 26.010161283355327},
    {3, 20, 30, 18.617202519212633},
    {4, 30, 25, 21.121385967517313},
    {5, 40, 60, 4.6789262095780817},
    {6, 50, 40, 98.762541935831834},
    {7, 60, 90, 51.119837119696733},
    {8, 80, 70, -52.3978778197541},
};
// clang-format on

TEST(LpCorpusTest, RandomMixedSenseModels) {
  for (const RandomCase& c : kRandomCorpus) {
    ExpectObjective(SolveObjective(RandomMixedLp(c.seed, c.n, c.rows)),
                    c.objective, "random seed " + std::to_string(c.seed));
  }
}

// The OPT dual (one row per matrix entry, a free y_x per location, a w <= 0
// column per generated GeoInd constraint), generated round by round. Every
// round's restricted dual is solved both warm (from the previous round's
// basis) and cold; the two must reach the same optimum.
TEST(LpCorpusTest, WarmColumnGenerationMatchesCold) {
  for (const auto& [g, eps] :
       std::vector<std::tuple<int, double>>{{3, 0.5}, {4, 1.2}, {4, 0.5}}) {
    const std::vector<Point> locs = GridCenters(g);
    const int n = g * g;
    const std::vector<double> prior = Prior(n, /*skewed=*/true);
    double total = 0.0;
    for (double p : prior) total += p;
    Model dual(ObjectiveSense::kMaximize);
    for (int x = 0; x < n; ++x) {
      dual.AddVariable(-lp::kInfinity, lp::kInfinity, 1.0);
    }
    for (int x = 0; x < n; ++x) {
      for (int z = 0; z < n; ++z) {
        dual.AddConstraint(ConstraintSense::kLessEqual,
                           prior[x] / total *
                               geo::Euclidean(locs[x], locs[z]),
                           {{x, 1.0}});
      }
    }
    std::set<std::tuple<int, int, int>> generated;
    lp::Basis basis;
    int rounds = 0;
    for (; rounds < 200; ++rounds) {
      const lp::LpSolution cold = lp::RevisedSimplex::Solve(dual, Options());
      const lp::LpSolution warm = lp::RevisedSimplex::Solve(
          dual, Options(), basis.empty() ? nullptr : &basis, &basis);
      ASSERT_TRUE(cold.optimal());
      ASSERT_TRUE(warm.optimal());
      ExpectObjective(warm.objective, cold.objective,
                      "g=" + std::to_string(g) + " round " +
                          std::to_string(rounds));
      int added = 0;
      for (int z = 0; z < n; ++z) {
        for (int x = 0; x < n; ++x) {
          for (int xp = 0; xp < n; ++xp) {
            if (xp == x) continue;
            const double bound =
                std::exp(eps * geo::Euclidean(locs[x], locs[xp]));
            const double v =
                warm.duals[x * n + z] / bound - warm.duals[xp * n + z];
            if (v <= 1e-7 || !generated.insert({x, xp, z}).second) continue;
            const int w = dual.AddVariable(-lp::kInfinity, 0.0, 0.0);
            dual.AddCoefficient(x * n + z, w, 1.0 / bound);
            dual.AddCoefficient(xp * n + z, w, -1.0);
            ++added;
          }
        }
      }
      if (added == 0) break;
    }
    EXPECT_GT(rounds, 1) << "g=" << g;
    EXPECT_LT(rounds, 200) << "g=" << g;
  }
}

}  // namespace
}  // namespace geopriv
