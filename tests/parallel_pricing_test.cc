// Tests of the parallel LP construction pipeline and the solve-path
// bugfixes that ride with it:
//   * parallel pricing / table builds / row samplers are bit-identical
//     to serial runs at every thread count,
//   * the deadline fires promptly *inside* a pricing scan (not only at
//     round boundaries),
//   * strict mode rejects the GeoInd-breaking identity-row degrade while
//     non-strict counts it,
//   * zero-mass node priors fall back (counted) to uniform,
//   * uncached MSM mode and concurrent Create() calls sharing one pool are
//     race-free (run under TSan in CI).

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/stopwatch.h"
#include "base/thread_pool.h"
#include "core/msm.h"
#include "geo/distance.h"
#include "mechanisms/optimal.h"
#include "prior/prior.h"
#include "rng/rng.h"
#include "spatial/grid.h"
#include "spatial/hierarchical_grid.h"

namespace geopriv::mechanisms {

// Drives FinalizeMatrix directly: an all-zero LP row is unreachable
// through Create() with a healthy solver, so the degrade handling needs a
// peer to be testable at all.
class OptimalMechanismTestPeer {
 public:
  static OptimalMechanism Make(double eps,
                               std::vector<geo::Point> locations,
                               std::vector<double> prior,
                               geo::UtilityMetric metric) {
    return OptimalMechanism(eps, std::move(locations), std::move(prior),
                            metric);
  }
  static Status Finalize(OptimalMechanism& mech, std::vector<double> raw,
                         bool strict) {
    return mech.FinalizeMatrix(std::move(raw), strict);
  }
};

}  // namespace geopriv::mechanisms

namespace geopriv {
namespace {

using geo::BBox;
using geo::Point;
using geo::UtilityMetric;

constexpr BBox kDomain{0.0, 0.0, 20.0, 20.0};

std::vector<double> SkewedPrior(int n) {
  std::vector<double> prior(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) prior[static_cast<size_t>(i)] = 1.0 / (1.0 + i);
  return prior;
}

mechanisms::OptimalMechanism BuildOpt(int g, double eps,
                                      ThreadPool* pool, int threads,
                                      double time_limit = 0.0) {
  spatial::UniformGrid grid(kDomain, g);
  mechanisms::OptimalMechanismOptions options;
  options.pricing_pool = pool;
  options.pricing_threads = threads;
  if (time_limit > 0.0) options.solver.time_limit_seconds = time_limit;
  auto opt = mechanisms::OptimalMechanism::Create(
      eps, grid.AllCenters(), SkewedPrior(g * g),
      UtilityMetric::kEuclidean, options);
  EXPECT_TRUE(opt.ok()) << opt.status();
  return std::move(opt).value();
}

// g = 5 (n = 25, m = 625 dual rows): enough z-slices and rows that every
// thread count gets several pricing and sampler chunks of its own.
TEST(ParallelPricingTest, DeterministicAcrossThreadCounts) {
  const auto serial = BuildOpt(5, 1.2, nullptr, 0);
  for (int t : {2, 4, 8}) {
    ThreadPool pool(t, 64);
    const auto parallel = BuildOpt(5, 1.2, &pool, t);
    pool.Shutdown();
    EXPECT_EQ(parallel.stats().rounds, serial.stats().rounds) << t;
    EXPECT_EQ(parallel.stats().generated_columns,
              serial.stats().generated_columns)
        << t;
    EXPECT_EQ(parallel.stats().violations_found,
              serial.stats().violations_found)
        << t;
    EXPECT_EQ(parallel.stats().pricing_threads_used, t);
    // Bit-identical transition matrix — not approximately equal.
    for (int x = 0; x < 25; ++x) {
      for (int z = 0; z < 25; ++z) {
        ASSERT_EQ(parallel.K(x, z), serial.K(x, z))
            << "threads=" << t << " x=" << x << " z=" << z;
      }
    }
  }
}

TEST(ParallelPricingTest, StatsSplitSolveTime) {
  const auto opt = BuildOpt(4, 1.0, nullptr, 0);
  const auto& stats = opt.stats();
  EXPECT_GT(stats.violations_found, 0);
  EXPECT_GE(stats.pricing_seconds, 0.0);
  EXPECT_GT(stats.simplex_seconds, 0.0);
  // The two phases partition the solve (up to setup/bookkeeping slack).
  EXPECT_LE(stats.pricing_seconds + stats.simplex_seconds,
            stats.solve_seconds + 1e-6);
}

// g = 7 (n = 49) takes > 60 s to solve outright on CI-class hardware, so
// any of these limits must abort the Create long before completion; the
// per-z-slice check inside the pricing scan (plus the simplex's own
// periodic check) is what makes the abort prompt rather than
// round-granular.
TEST(ParallelPricingTest, DeadlineFiresPromptlyInsidePricing) {
  for (double limit : {0.001, 0.01, 0.05}) {
    spatial::UniformGrid grid(kDomain, 7);
    mechanisms::OptimalMechanismOptions options;
    options.solver.time_limit_seconds = limit;
    const Stopwatch watch;
    auto opt = mechanisms::OptimalMechanism::Create(
        1.0, grid.AllCenters(), SkewedPrior(49),
        UtilityMetric::kEuclidean, options);
    EXPECT_FALSE(opt.ok()) << "limit=" << limit;
    EXPECT_EQ(opt.status().code(), StatusCode::kDeadlineExceeded)
        << opt.status();
    EXPECT_LT(watch.ElapsedSeconds(), 15.0) << "limit=" << limit;
  }
}

TEST(ParallelPricingTest, DeadlineFiresWithParallelPricing) {
  ThreadPool pool(4, 64);
  spatial::UniformGrid grid(kDomain, 7);
  mechanisms::OptimalMechanismOptions options;
  options.pricing_pool = &pool;
  options.pricing_threads = 4;
  options.solver.time_limit_seconds = 0.01;
  const Stopwatch watch;
  auto opt = mechanisms::OptimalMechanism::Create(
      1.0, grid.AllCenters(), SkewedPrior(49), UtilityMetric::kEuclidean,
      options);
  EXPECT_FALSE(opt.ok());
  EXPECT_EQ(opt.status().code(), StatusCode::kDeadlineExceeded)
      << opt.status();
  EXPECT_LT(watch.ElapsedSeconds(), 15.0);
  pool.Shutdown();
}

// Several Create() calls sharing one pool at once: the pool fans each
// build's chunks out to whichever helpers are free and every calling
// thread participates in its own build, so nothing deadlocks and the
// results match the serial ones. (Run under TSan in CI.)
TEST(ParallelPricingTest, ConcurrentCreatesShareOnePool) {
  const auto serial = BuildOpt(4, 0.8, nullptr, 0);
  ThreadPool pool(4, 64);
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      const auto parallel = BuildOpt(4, 0.8, &pool, 4);
      for (int x = 0; x < 16; ++x) {
        for (int z = 0; z < 16; ++z) {
          if (parallel.K(x, z) != serial.K(x, z)) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  pool.Shutdown();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(OptStrictModeTest, StrictRejectsAllZeroRow) {
  const std::vector<Point> locs = {{0.0, 0.0}, {1.0, 0.0}};
  auto mech = mechanisms::OptimalMechanismTestPeer::Make(
      1.0, locs, {0.5, 0.5}, UtilityMetric::kEuclidean);
  // Row 1 is all-zero: a solver artifact that, rewritten to an identity
  // row, would deterministically reveal location 1.
  const Status status = mechanisms::OptimalMechanismTestPeer::Finalize(
      mech, {1.0, 0.0, 0.0, 0.0}, /*strict=*/true);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status;
}

TEST(OptStrictModeTest, NonStrictCountsDegradedRows) {
  const std::vector<Point> locs = {{0.0, 0.0}, {1.0, 0.0}};
  auto mech = mechanisms::OptimalMechanismTestPeer::Make(
      1.0, locs, {0.5, 0.5}, UtilityMetric::kEuclidean);
  const Status status = mechanisms::OptimalMechanismTestPeer::Finalize(
      mech, {1.0, 0.0, 0.0, 0.0}, /*strict=*/false);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(mech.stats().degraded_rows, 1);
  // The degraded row became the identity row (and is counted as such).
  EXPECT_EQ(mech.K(1, 0), 0.0);
  EXPECT_EQ(mech.K(1, 1), 1.0);
  EXPECT_EQ(mech.K(0, 0), 1.0);
}

core::MultiStepMechanism MakeMsm(
    std::shared_ptr<const prior::Prior> prior, int g, int height,
    const core::MsmOptions& options = {}) {
  auto grid = spatial::HierarchicalGrid::Create(kDomain, g, height);
  EXPECT_TRUE(grid.ok());
  auto index =
      std::make_shared<spatial::HierarchicalGrid>(std::move(grid).value());
  auto msm = core::MultiStepMechanism::Create(1.0, index, prior, options);
  EXPECT_TRUE(msm.ok()) << msm.status();
  return std::move(msm).value();
}

TEST(MsmZeroMassPriorTest, EmptyQuadrantFallsBackToUniform) {
  // All prior mass in the north-east; the south-west quadrant's node
  // conditions on zero mass and must fall back to a uniform prior over
  // its children (counted) instead of degenerating.
  std::vector<double> masses(16, 0.0);
  for (int cy = 0; cy < 4; ++cy) {
    for (int cx = 0; cx < 4; ++cx) {
      if (cx >= 2 && cy >= 2) masses[static_cast<size_t>(cy * 4 + cx)] = 1.0;
    }
  }
  auto prior = std::make_shared<prior::Prior>(
      prior::Prior::FromMasses(kDomain, 4, std::move(masses)).value());
  const auto msm = MakeMsm(prior, 2, 2);
  // Warm every internal node: root + 4 quadrants.
  auto warmed = msm.PrewarmTopNodes(64);
  ASSERT_TRUE(warmed.ok()) << warmed.status();
  EXPECT_EQ(warmed.value(), 5);
  const core::MsmStats stats = msm.stats();
  // Three quadrants carry no mass.
  EXPECT_EQ(stats.uniform_prior_fallbacks, 3);
  // The fallback still produces working mechanisms: a query through the
  // empty quadrant samples fine.
  rng::Rng rng(3);
  for (int i = 0; i < 32; ++i) {
    auto reported = msm.ReportOrStatus({1.0, 1.0}, rng);
    ASSERT_TRUE(reported.ok()) << reported.status();
    EXPECT_TRUE(kDomain.Contains(reported.value()));
  }
}

// Uncached mode used to share a scratch slot across calls — a data race
// under concurrent Report(). Every call now builds a privately owned
// mechanism. (Run under TSan in CI.)
TEST(MsmUncachedConcurrencyTest, ConcurrentReportsAreSafe) {
  auto prior = std::make_shared<prior::Prior>(
      prior::Prior::Uniform(kDomain, 16));
  core::MsmOptions options;
  options.cache_nodes = false;
  const auto msm = MakeMsm(prior, 2, 2, options);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&msm, &failures, t] {
      rng::Rng rng(1000 + t);
      for (int i = 0; i < 8; ++i) {
        auto reported = msm.ReportOrStatus({10.0, 10.0}, rng);
        if (!reported.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(msm.cache_size(), 0u);  // nothing cached in uncached mode
}

TEST(PrewarmFanoutTest, ParallelWarmsSameCountAsSerial) {
  auto prior = std::make_shared<prior::Prior>(
      prior::Prior::Uniform(kDomain, 16));
  const auto serial_msm = MakeMsm(prior, 2, 3);
  const auto parallel_msm = MakeMsm(prior, 2, 3);
  ThreadPool pool(4, 64);
  // g=2, height=3: 1 root + 4 + 16 = 21 internal nodes.
  auto serial = serial_msm.PrewarmTopNodes(10);
  auto parallel = parallel_msm.PrewarmTopNodes(10, &pool);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ(serial.value(), 10);
  EXPECT_EQ(parallel.value(), 10);
  EXPECT_EQ(parallel_msm.cache_size(), 10u);

  // Exhaustive warm: both modes visit every internal node.
  auto serial_all = serial_msm.PrewarmTopNodes(1000);
  auto parallel_all = parallel_msm.PrewarmTopNodes(1000, &pool);
  ASSERT_TRUE(serial_all.ok());
  ASSERT_TRUE(parallel_all.ok());
  EXPECT_EQ(serial_all.value(), 21);
  EXPECT_EQ(parallel_all.value(), 21);
  EXPECT_EQ(parallel_msm.cache_size(), serial_msm.cache_size());
  pool.Shutdown();

  // A shut-down pool degrades to the calling thread, never fails.
  const auto fresh = MakeMsm(prior, 2, 2);
  auto after_shutdown = fresh.PrewarmTopNodes(3, &pool);
  ASSERT_TRUE(after_shutdown.ok());
  EXPECT_EQ(after_shutdown.value(), 3);
}

}  // namespace
}  // namespace geopriv
