// Optimal GeoInd mechanism (paper Section 3.2, from Bordenabe et al. [2]):
// given a prior over n candidate locations, computes the row-stochastic
// matrix K minimizing the expected utility loss
//     sum_{x,z} Pi_x K(x)(z) d_Q(x, z)
// subject to the n^2 (n-1) GeoInd constraints
//     K(x)(z) <= e^{eps d(x,x')} K(x')(z).
//
// The paper solves this LP with Gurobi. We solve it exactly with our own
// solvers, by default through the LP's *dual*: the dual has only n^2 rows
// (one per K entry), and the n^3 GeoInd constraints become dual *columns*
// that are priced in lazily (column generation) with warm-started revised
// simplex. Generation is exact — it terminates only when no constraint is
// violated — and typically activates a tiny fraction of the n^3 rows,
// which is what makes OPT usable as the building block inside MSM. The
// primal formulations (full simplex / interior point) are kept for the
// solver ablation bench.

#ifndef GEOPRIV_MECHANISMS_OPTIMAL_H_
#define GEOPRIV_MECHANISMS_OPTIMAL_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/status.h"
#include "geo/distance.h"
#include "lp/solution.h"
#include "mechanisms/mechanism.h"
#include "rng/alias_sampler.h"

namespace geopriv {
class ThreadPool;
}

namespace geopriv::mechanisms {

enum class OptAlgorithm {
  kColumnGeneration,    // dual + lazy columns (default; scales the furthest)
  kFullPrimalSimplex,   // explicit n^3-row primal, revised simplex
  kFullInteriorPoint,   // explicit n^3-row primal, Mehrotra IPM
};

struct OptimalMechanismOptions {
  lp::SolverOptions solver;
  OptAlgorithm algorithm = OptAlgorithm::kColumnGeneration;
  // Column generation: how many most-violated constraints enter per round
  // (0 = all violated constraints, the fastest setting in practice: it
  // converges in ~10 rounds with far fewer total simplex pivots).
  int columns_per_round = 0;
  int max_rounds = 1000;
  // A GeoInd constraint is considered violated when its row-scaled
  // residual (see MaxGeoIndViolation) exceeds this tolerance.
  double violation_tolerance = 1e-7;
  // Pre-generate the constraints between every location and its k nearest
  // neighbors before the first solve (0 disables). These constraints are
  // almost always active, so seeding them collapses most generation
  // rounds; exactness is unaffected (generation still runs to a clean
  // pricing pass).
  int seed_nearest_neighbors = 8;
  // Parallel construction. When set, the cost/exp-distance tables, the
  // O(n^3) pricing scan (partitioned by z-slice) and the row samplers fan
  // out across this pool, with the calling thread participating (the
  // simplex itself runs on the calling thread). Construction never blocks
  // on the pool (a busy or shut-down pool just lowers the effective
  // parallelism, so it is safe to Create() from one of the pool's own
  // workers), and a parallel run is bit-identical to a serial one:
  // pricing slices merge in z order and every accumulation keeps its
  // serial element order.
  // Not owned; must outlive the Create() call.
  ThreadPool* pricing_pool = nullptr;
  // Total construction threads (pool helpers + the calling thread);
  // 0 = pool size + 1.
  int pricing_threads = 0;
  // Fail Create() when the solved matrix contains an all-zero row, which
  // would otherwise be silently rewritten to an identity row — a reply
  // distribution that breaks geo-indistinguishability. With strict off
  // the rewrite still happens but is counted in OptSolveStats.
  bool strict = true;
};

struct OptSolveStats {
  int rounds = 0;            // column-generation rounds (1 for full solves)
  int generated_columns = 0; // GeoInd constraints activated
  int simplex_iterations = 0;
  double solve_seconds = 0.0;
  double objective = 0.0;    // expected utility loss under the prior
  // Wall-clock split of solve_seconds between the two phases of column
  // generation, for the pricing-vs-simplex balance the parallel pipeline
  // is tuned against.
  double pricing_seconds = 0.0;
  double simplex_seconds = 0.0;
  // Basis refactorizations inside simplex_seconds and their wall-clock
  // share (the obs layer's third LP phase alongside pricing and pivoting).
  int refactorizations = 0;
  double refactor_seconds = 0.0;
  // Simplex solves that hit numerical trouble and were retried from a cold
  // start (each retry's result is the one used).
  int numerical_retries = 0;
  // Violated GeoInd constraints seen across all pricing rounds (every one
  // of them entered the dual as a column unless columns_per_round capped
  // the round).
  int64_t violations_found = 0;
  // Effective construction parallelism (1 without a pricing pool).
  int pricing_threads_used = 1;
  // All-zero rows rewritten to identity rows by FinalizeMatrix. Nonzero
  // only when OptimalMechanismOptions::strict is off; with strict on,
  // Create() fails instead.
  int degraded_rows = 0;
};

// A solved mechanism's complete state as flat tables — what a bundle
// stores per node and what FromSolved() rehydrates without touching the
// LP. The spans may point into an mmapped file; `prior` must already be
// normalized (FromSolved trusts it — the serializer wrote the normalized
// vector, and section checksums cover corruption).
struct SolvedMechanismTables {
  double eps = 0.0;
  geo::UtilityMetric metric = geo::UtilityMetric::kEuclidean;
  double objective = 0.0;            // expected utility loss under prior
  std::vector<geo::Point> locations; // n candidates
  std::vector<double> prior;         // n masses, normalized
  std::span<const double> k;         // n x n row-major transition matrix
  // Per-row alias tables, n entries per row, rows concatenated.
  std::span<const double> alias_prob;
  std::span<const size_t> alias_alias;
  std::span<const double> alias_normalized;
};

class OptimalMechanism final : public Mechanism {
 public:
  // `locations`: the n candidate locations (actual and reported sets
  // coincide, as in the paper); `prior`: n nonnegative masses (normalized
  // internally). Fails with kDeadlineExceeded/kResourceExhausted when the
  // solver hits its limits.
  static StatusOr<OptimalMechanism> Create(
      double eps, std::vector<geo::Point> locations,
      std::vector<double> prior, geo::UtilityMetric metric,
      const OptimalMechanismOptions& options = {});

  // Rehydrates a previously solved mechanism from its serialized tables —
  // zero LP work, and ReportIndex draws the exact sequence the original
  // mechanism would (same tables, same sampling path). `backing` pins the
  // memory the spans reference (e.g. the mmapped bundle) for the
  // mechanism's lifetime; pass nullptr when the spans outlive it by other
  // means.
  static StatusOr<OptimalMechanism> FromSolved(
      SolvedMechanismTables tables, std::shared_ptr<const void> backing);

  geo::Point Report(geo::Point actual, rng::Rng& rng) override;
  std::string name() const override { return "OPT"; }

  // Samples a reported index for actual index `x`. Const — the row
  // samplers are built eagerly at Create() time — so one solved mechanism
  // can be shared across threads, each drawing from its own Rng.
  int ReportIndex(int x, rng::Rng& rng) const;

  // Index of the candidate nearest to `p`.
  int IndexOf(geo::Point p) const;

  int num_locations() const { return static_cast<int>(locations_.size()); }
  const geo::Point& location(int i) const { return locations_[i]; }
  double prior(int i) const { return prior_[i]; }
  double eps() const { return eps_; }
  geo::UtilityMetric metric() const { return metric_; }

  // Transition probability K(x)(z).
  double K(int x, int z) const {
    return k_[static_cast<size_t>(x) * locations_.size() + z];
  }

  // Flat views for serialization (bundle writers store these verbatim so
  // FromSolved reproduces this mechanism bit for bit). The audit engine
  // reads the same views, so its numbers are identical across a live
  // solve and a bundle rehydration.
  std::span<const double> k_table() const { return k_; }
  std::span<const geo::Point> locations() const { return locations_; }
  std::span<const double> prior_vector() const { return prior_; }
  const rng::AliasSampler& row_sampler(int x) const {
    return *row_samplers_[x];
  }

  // Expected utility loss sum Pi_x K(x)(z) d_Q(x,z) (the LP objective).
  double ExpectedLoss() const { return stats_.objective; }

  // Prior-weighted average of the diagonal K(x)(x) — the quantity the
  // paper's Figure 5 compares against the analytic Phi.
  double AverageSelfMapping() const;

  // Largest row-scaled violation over all n^3 GeoInd constraints:
  //   max over (x, x', z) of K(x)(z) / e^{eps d(x,x')} - K(x')(z),
  // i.e. each constraint divided by its largest coefficient, the standard
  // LP feasibility measure. At an optimum this is <= the violation
  // tolerance. (An absolute measure would be meaningless for far pairs at
  // large eps: when e^{eps d} exceeds 1/tolerance the true optimum carries
  // sub-representable masses like e^{-40}, and the bound those constraints
  // enforce is vacuous for the adversary anyway.)
  double MaxGeoIndViolation() const;

  const OptSolveStats& stats() const { return stats_; }

  // Approximate heap footprint of the solved mechanism: the dense n x n
  // matrix K plus the per-row alias tables and candidate/prior vectors.
  // This is what NodeMechanismCache charges an entry against its byte
  // budget.
  size_t MemoryFootprintBytes() const;

  // K is either owned (Create solved it) or a view into external memory
  // (FromSolved over a bundle mapping, pinned by backing_). Copies and
  // moves must re-point the span when the matrix is owned, since the
  // owned vector relocates; view spans transfer as-is.
  OptimalMechanism(const OptimalMechanism& other) { CopyFrom(other); }
  OptimalMechanism& operator=(const OptimalMechanism& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  OptimalMechanism(OptimalMechanism&& other) noexcept {
    MoveFrom(std::move(other));
  }
  OptimalMechanism& operator=(OptimalMechanism&& other) noexcept {
    if (this != &other) MoveFrom(std::move(other));
    return *this;
  }

 private:
  OptimalMechanism(double eps, std::vector<geo::Point> locations,
                   std::vector<double> prior, geo::UtilityMetric metric)
      : eps_(eps),
        locations_(std::move(locations)),
        prior_(std::move(prior)),
        metric_(metric) {}

  friend class OptimalMechanismTestPeer;

  Status SolveColumnGeneration(const OptimalMechanismOptions& options);
  Status SolveFullPrimal(const OptimalMechanismOptions& options);
  Status FinalizeMatrix(std::vector<double> raw, bool strict);
  void BuildRowSamplers(const OptimalMechanismOptions& options);

  void CopyFrom(const OptimalMechanism& other);
  void MoveFrom(OptimalMechanism&& other) noexcept;

  double eps_ = 0.0;
  std::vector<geo::Point> locations_;
  std::vector<double> prior_;
  geo::UtilityMetric metric_ = geo::UtilityMetric::kEuclidean;
  std::vector<double> k_owned_;   // n x n row-major when owned
  std::span<const double> k_;     // always the matrix to read through
  std::vector<std::optional<rng::AliasSampler>> row_samplers_;
  std::shared_ptr<const void> backing_;  // pins view-mode memory
  OptSolveStats stats_;
};

}  // namespace geopriv::mechanisms

#endif  // GEOPRIV_MECHANISMS_OPTIMAL_H_
