// Multi-Step Mechanism (MSM) — the paper's primary contribution
// (Algorithm 1). Starting from the index root, each level i:
//   1. builds the candidate set from the children of the node selected at
//      level i-1,
//   2. snaps the user's actual location to its enclosing child (or a
//      uniformly random child if the actual location fell outside the
//      node — lines 9-10 of Algorithm 1),
//   3. runs the optimal mechanism OPT with the level budget eps_i and the
//      prior conditioned on the node, and
//   4. samples the next node from the resulting distribution.
// The leaf-level output's center is reported. By DP composability the whole
// pipeline satisfies GeoInd with budget sum_i eps_i = eps.
//
// Solved per-node LPs are cached in a sharded, thread-safe
// NodeMechanismCache with singleflight semantics: repeated queries that
// walk through the same node reuse its transition matrix, so the LP cost
// is paid once per visited node rather than once per query — even when
// many threads share one mechanism (see MsmOptions::cache_nodes and the
// micro/throughput benches for the effect).
//
// Thread safety: ReportOrStatus and Report are safe to call concurrently
// as long as each thread draws from its own Rng; stats are sharded
// per-thread atomics. With cache_nodes = false every call builds (and
// privately owns) a fresh per-node mechanism, so the uncached mode is also
// thread-safe — it just pays the LP on every visit.
//
// Warm serving path: the mechanism maintains a ServingPlan — a flattened,
// contiguous SoA image of the resident hot subtree (per-level child
// bounds/centers/ids plus one shared_ptr-pinned mechanism per plan node).
// A walk over the plan takes zero mutexes and bounces zero refcounts per
// level: one atomic shared_ptr load pins the whole plan for the walk.
// Nodes outside the plan fall through to the singleflight cache exactly as
// before, and the plan is rebuilt (by at most one walker at a time, while
// the others keep using the previous — still valid — plan) whenever the
// cache's generation counter moves: publish, eviction, or Clear().
// Plan and legacy walks are bit-identical: same candidate scan order, same
// RNG draw sequence, same solved matrices.

#ifndef GEOPRIV_CORE_MSM_H_
#define GEOPRIV_CORE_MSM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/sharded_counter.h"
#include "base/status.h"
#include "core/budget.h"
#include "core/node_cache.h"
#include "geo/distance.h"
#include "mechanisms/mechanism.h"
#include "mechanisms/optimal.h"
#include "prior/prior.h"
#include "spatial/hierarchical_partition.h"

namespace geopriv::core {

struct MsmOptions {
  BudgetOptions budget;
  mechanisms::OptimalMechanismOptions opt;
  geo::UtilityMetric metric = geo::UtilityMetric::kEuclidean;
  // Reuse solved per-node LPs across queries.
  bool cache_nodes = true;
  // Shards of the node cache (contention bound under concurrency).
  int cache_shards = 16;
  // Byte budget for the node cache's resident OPT matrices; past it the
  // cache evicts least-recently-used unpinned entries. 0 = unbounded.
  size_t cache_byte_budget = 0;
  // Maintain the flattened ServingPlan over the warm subtree (see the file
  // comment). Requires cache_nodes; ignored without it.
  bool serving_plan = true;
  // Upper bound on nodes a plan may pin. Bounds both the rebuild cost and
  // the bytes the plan holds unevictable; with a byte budget the plan
  // additionally stops at half the budget so an evictable pool remains.
  int serving_plan_max_nodes = 4096;
};

// Snapshot of the mechanism's counters (see MultiStepMechanism::stats()).
struct MsmStats {
  int64_t lp_solves = 0;
  double lp_seconds = 0.0;
  int64_t cache_hits = 0;
  int64_t cache_evictions = 0;
  int64_t cache_bytes_resident = 0;
  double cache_hit_rate = 0.0;
  // Aggregated from the per-node OptSolveStats: wall-clock split of
  // lp_seconds between pricing scans and simplex pivoting, and the total
  // violated GeoInd constraints the pricing rounds surfaced.
  double lp_pricing_seconds = 0.0;
  double lp_simplex_seconds = 0.0;
  // Basis-refactorization share of lp_simplex_seconds (the third LP phase
  // the obs layer reports: pricing / refactorize / pivoting).
  double lp_refactor_seconds = 0.0;
  // Simplex solves retried from a cold start after numerical trouble.
  int64_t lp_numerical_retries = 0;
  int64_t lp_violations_found = 0;
  // All-zero LP rows rewritten to identity rows (GeoInd-breaking; nonzero
  // only when options.opt.strict is disabled — strict builds fail
  // instead).
  int64_t degraded_rows = 0;
  // Nodes whose conditional prior carried no mass and fell back to the
  // uniform prior over their children.
  int64_t uniform_prior_fallbacks = 0;
  // Serving-plan counters: full rebuilds, levels walked inside the pinned
  // plan (lock-free), and levels that fell through to the singleflight
  // cache (cold subtree or stale plan).
  int64_t plan_builds = 0;
  int64_t plan_levels = 0;
  int64_t fallthrough_levels = 0;
};

class MultiStepMechanism final : public mechanisms::Mechanism {
 public:
  // `index` and `prior` must outlive the mechanism. The budget allocation
  // is computed at construction time (it is data-independent).
  static StatusOr<MultiStepMechanism> Create(
      double eps, std::shared_ptr<const spatial::HierarchicalPartition> index,
      std::shared_ptr<const prior::Prior> prior, const MsmOptions& options);

  // Per-batch memo of pinned node mechanisms: a caller walking many points
  // hands the same memo to every call so each cold node's cache lookup is
  // paid once per batch instead of once per point. Failures are never
  // memoized (retry semantics match the unmemoized path). Not thread-safe;
  // one memo per thread/batch.
  using NodeMemo =
      std::unordered_map<spatial::NodeIndex, NodeMechanismCache::MechanismPtr>;

  // Status-returning variant (LP time limits surface here). Thread-safe in
  // cached mode; `rng` must be private to the calling thread. The memo
  // overload additionally reuses `memo` across calls (may be nullptr).
  StatusOr<geo::Point> ReportOrStatus(geo::Point actual, rng::Rng& rng) const;
  StatusOr<geo::Point> ReportOrStatus(geo::Point actual, rng::Rng& rng,
                                      NodeMemo* memo) const;

  // Walks every point in submission order against one pinned plan and one
  // shared memo, drawing from `rng` exactly as the equivalent sequence of
  // ReportOrStatus calls would — bit-identical outputs for a fixed seed.
  std::vector<StatusOr<geo::Point>> ReportBatchOrStatus(
      const std::vector<geo::Point>& actuals, rng::Rng& rng) const;

  // Mechanism interface; aborts on solver failure (which cannot happen with
  // the default unlimited solver options).
  geo::Point Report(geo::Point actual, rng::Rng& rng) override;
  std::string name() const override { return "MSM"; }

  const BudgetAllocation& budget() const { return budget_; }
  int height() const { return budget_.height(); }
  const spatial::HierarchicalPartition& index() const { return *index_; }
  double eps() const { return eps_; }
  const prior::Prior& prior() const { return *prior_; }
  const MsmOptions& options() const { return options_; }

  // Consistent snapshot of the atomic counters.
  MsmStats stats() const;

  // Value copy of the current serving plan's SoA arrays plus each plan
  // node's spatial id, for serialization (bundle writers store the layout
  // so `inspect` can show the warm subtree without rebuilding it). The
  // plan is refreshed first if the cache generation moved; all vectors are
  // empty when plans are disabled or nothing is warm. Array semantics
  // match ServingPlan (see below): plan node p's children occupy
  // [child_begin[p], child_begin[p]+child_count[p]) of the child arrays.
  struct PlanSnapshot {
    std::vector<spatial::NodeIndex> node_id;  // per plan node
    std::vector<int32_t> child_begin;
    std::vector<int32_t> child_count;
    std::vector<double> min_x, min_y, max_x, max_y;
    std::vector<double> center_x, center_y;
    std::vector<int32_t> child_plan;
    std::vector<spatial::NodeIndex> child_id;
    std::vector<uint8_t> child_is_leaf;
  };
  PlanSnapshot SnapshotServingPlan() const;
  // Node count of the current serving plan, rebuilding it first if the
  // cache generation moved (0 when plans are disabled or nothing is warm).
  size_t serving_plan_nodes() const;
  size_t cache_size() const { return cache_->size(); }
  const NodeMechanismCache& cache() const { return *cache_; }
  NodeMechanismCache& cache() { return *cache_; }

  // Per-node mechanism for audits/tests (built and cached on demand).
  // `level` is the node's depth + 1, i.e. the budget index of its children.
  // The returned pointer pins the mechanism: it stays valid however long
  // the caller holds it, across cache Clear()/eviction. `cache_hit`
  // (optional) reports whether the mechanism was already resident — the
  // walk instrumentation uses it to tag levels cache-hit vs cold-build.
  StatusOr<NodeMechanismCache::MechanismPtr> NodeMechanism(
      spatial::NodeIndex node, int level, bool* cache_hit = nullptr) const;

  // Pre-solves the LPs of (up to) the `k` internal nodes with the largest
  // prior mass, walking the index root-down so a warmed node's ancestors
  // are warmed too. Goes through the cache's singleflight path, so it is
  // safe to run concurrently with live traffic (e.g. from a background
  // warmer). Returns the number of nodes now resident (hits included).
  // Requires cache_nodes; fails fast otherwise.
  //
  // With a pool, independent frontier nodes (siblings, cousins) build
  // concurrently: helper threads are recruited non-blockingly from `pool`
  // and the calling thread participates, so a busy or shut-down pool just
  // lowers the effective parallelism. A node enters the frontier only
  // when its parent's build completes, preserving ancestor-before-
  // descendant order; with concurrent builds the k nodes picked are
  // best-first among the candidates *discovered so far*, which can differ
  // from the strict serial top-k when siblings race. pool == nullptr (or
  // the single-argument overload) reproduces the serial walk exactly.
  StatusOr<int> PrewarmTopNodes(int k) const;
  StatusOr<int> PrewarmTopNodes(int k, ThreadPool* pool) const;

 private:
  // Atomic counterpart of MsmStats, sharded into cache-line-padded
  // per-thread slots so concurrent walkers never contend on a counter's
  // cache line; stats() sums the slots. Heap-allocated so the mechanism
  // stays movable (callers move the Create() result into smart pointers).
  struct AtomicStats {
    struct alignas(kCounterSlotAlign) Slot {
      std::atomic<int64_t> lp_solves{0};
      std::atomic<double> lp_seconds{0.0};
      std::atomic<int64_t> cache_hits{0};
      std::atomic<double> lp_pricing_seconds{0.0};
      std::atomic<double> lp_simplex_seconds{0.0};
      std::atomic<double> lp_refactor_seconds{0.0};
      std::atomic<int64_t> lp_numerical_retries{0};
      std::atomic<int64_t> lp_violations_found{0};
      std::atomic<int64_t> degraded_rows{0};
      std::atomic<int64_t> uniform_prior_fallbacks{0};
      std::atomic<int64_t> plan_builds{0};
      std::atomic<int64_t> plan_levels{0};
      std::atomic<int64_t> fallthrough_levels{0};
    };
    static constexpr int kSlots = 16;
    std::array<Slot, kSlots> slots;
    Slot& Local() { return slots[ThreadCounterSlot(kSlots)]; }
  };

  // Flattened SoA image of the warm subtree. Plan node p's children live
  // in the flat child arrays at [child_begin[p], child_begin[p] +
  // child_count[p]), in the exact order Children() returns them, so the
  // candidate scan visits the same cells the legacy walk would. Each plan
  // node pins its solved mechanism for the plan's lifetime; child_plan[s]
  // is the child's own plan-node id, or -1 when a walk through that child
  // must fall through to the cache path (cold or capped-out subtree).
  // Immutable once published; a stale plan (generation behind the cache)
  // stays correct — the pins keep its matrices alive and rebuilt LPs are
  // deterministic — it just may miss newly warm nodes.
  struct ServingPlan {
    uint64_t generation = 0;
    // Per plan node.
    std::vector<int32_t> child_begin;
    std::vector<int32_t> child_count;
    std::vector<NodeMechanismCache::MechanismPtr> mech;
    // Per child slot (closed-interval bounds, matching BBox::Contains).
    std::vector<double> min_x, min_y, max_x, max_y;
    std::vector<double> center_x, center_y;
    std::vector<int32_t> child_plan;
    std::vector<spatial::NodeIndex> child_id;
    std::vector<uint8_t> child_is_leaf;
    size_t pinned_bytes = 0;
    bool empty() const { return mech.empty(); }
  };

  // Plan publication state; heap-allocated for movability. `plan` is the
  // epoch-published current plan (readers: one atomic load); `building`
  // elects a single rebuilder while everyone else keeps serving from the
  // stale-but-valid plan.
  struct PlanState {
    std::atomic<std::shared_ptr<const ServingPlan>> plan{nullptr};
    std::atomic<bool> building{false};
  };

  MultiStepMechanism(
      double eps, std::shared_ptr<const spatial::HierarchicalPartition> index,
      std::shared_ptr<const prior::Prior> prior, MsmOptions options,
      BudgetAllocation budget)
      : eps_(eps),
        index_(std::move(index)),
        prior_(std::move(prior)),
        options_(std::move(options)),
        budget_(std::move(budget)),
        cache_(std::make_unique<NodeMechanismCache>(
            options_.cache_shards, options_.cache_byte_budget)),
        stats_(std::make_unique<AtomicStats>()),
        plan_state_(std::make_unique<PlanState>()) {}

  // Solves the LP for `node` (no cache involvement).
  StatusOr<std::unique_ptr<mechanisms::OptimalMechanism>> BuildNodeMechanism(
      spatial::NodeIndex node, int level) const;

  // The current plan, rebuilt first (by this caller, if it wins the
  // single-rebuilder election) when the cache generation moved. nullptr
  // when plans are disabled or nothing is published yet.
  std::shared_ptr<const ServingPlan> CurrentPlan() const;
  // BFS over the warm subtree, pinning via the cache's non-building probe.
  std::shared_ptr<const ServingPlan> BuildPlan(uint64_t generation) const;

  // One root-to-leaf walk: pinned-plan phase first, cache fall-through for
  // whatever the plan does not cover. `plan` and `memo` may be nullptr.
  StatusOr<geo::Point> WalkOne(const ServingPlan* plan, geo::Point actual,
                               rng::Rng& rng, NodeMemo* memo) const;

  double eps_;
  std::shared_ptr<const spatial::HierarchicalPartition> index_;
  std::shared_ptr<const prior::Prior> prior_;
  MsmOptions options_;
  BudgetAllocation budget_;
  std::unique_ptr<NodeMechanismCache> cache_;
  std::unique_ptr<AtomicStats> stats_;
  std::unique_ptr<PlanState> plan_state_;
};

}  // namespace geopriv::core

#endif  // GEOPRIV_CORE_MSM_H_
