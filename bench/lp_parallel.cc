// Parallel LP construction pipeline: serial-vs-parallel OPT Create() time
// (with a bit-identity check of the resulting matrix — the parallel
// pipeline must produce *exactly* the serial matrix; only the pricing
// scan, cost tables and row samplers fan out, the simplex runs on the
// calling thread), the pricing-vs-simplex wall-clock split, prewarm
// fan-out wall-clock at 1/2/4/8 threads, a one-thread g ladder that
// records the largest n solved within the ladder budget, and the large-n
// attempt under the same budget (reported as solved or as the deadline
// it hit, never quietly downsized).
// Results go to stdout as a table and to --json (default BENCH_lp.json).
//
// Flags:
//   --g G           OPT candidate grid per axis; n = G*G (default 5)
//   --eps E         privacy budget (default 1.0)
//   --prewarm_g G   MSM fanout for the prewarm experiment (default 3)
//   --prewarm_k K   nodes to prewarm (default 10)
//   --limit_s S     time limit per ladder rung and for the large-n
//                   attempt, in seconds (default 60)
//   --large_g G     large-instance attempt per axis (default 20: n = 400)
//   --json PATH     output JSON path (default BENCH_lp.json)

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/check.h"
#include "base/stopwatch.h"
#include "base/thread_pool.h"
#include "bench/bench_util.h"
#include "mechanisms/optimal.h"
#include "spatial/grid.h"

namespace geopriv::bench {
namespace {

struct CreateResult {
  int threads = 1;
  double seconds = 0.0;
  mechanisms::OptSolveStats stats;
  bool bit_identical = true;  // vs the serial matrix
};

CreateResult TimeCreate(int g, double eps,
                        const std::vector<geo::Point>& centers,
                        const std::vector<double>& prior, int threads,
                        const mechanisms::OptimalMechanism* reference) {
  std::unique_ptr<ThreadPool> pool;
  mechanisms::OptimalMechanismOptions options;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads, 64);
    options.pricing_pool = pool.get();
    options.pricing_threads = threads;
  }
  CreateResult r;
  r.threads = threads;
  const Stopwatch watch;
  auto opt = mechanisms::OptimalMechanism::Create(
      eps, centers, prior, geo::UtilityMetric::kEuclidean, options);
  r.seconds = watch.ElapsedSeconds();
  GEOPRIV_CHECK_OK(opt.status());
  r.stats = opt->stats();
  if (reference != nullptr) {
    const int n = g * g;
    for (int x = 0; x < n && r.bit_identical; ++x) {
      for (int z = 0; z < n; ++z) {
        if (opt->K(x, z) != reference->K(x, z)) {
          r.bit_identical = false;
          break;
        }
      }
    }
  }
  if (pool != nullptr) pool->Shutdown();
  return r;
}

struct PrewarmResult {
  int threads = 1;
  int warmed = 0;
  double seconds = 0.0;
};

PrewarmResult TimePrewarm(const Workload& workload, double eps, int g,
                          int k, int threads) {
  // A fresh MSM per thread count: prewarm must always start cold.
  auto msm = MakeMsm(workload, eps, g, 0.8, geo::UtilityMetric::kEuclidean);
  GEOPRIV_CHECK(msm != nullptr);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads, 64);
  PrewarmResult r;
  r.threads = threads;
  const Stopwatch watch;
  auto warmed = msm->PrewarmTopNodes(k, pool.get());
  r.seconds = watch.ElapsedSeconds();
  GEOPRIV_CHECK_OK(warmed.status());
  r.warmed = warmed.value();
  if (pool != nullptr) pool->Shutdown();
  return r;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int g = flags.GetInt("g", 5);
  const double eps = flags.GetDouble("eps", 1.0);
  const int prewarm_g = flags.GetInt("prewarm_g", 3);
  const int prewarm_k = flags.GetInt("prewarm_k", 10);
  const double limit_s = flags.GetDouble("limit_s", 60.0);
  const int large_g = flags.GetInt("large_g", 20);
  const std::string json_path = flags.GetString("json", "BENCH_lp.json");

  const Workload workload = MakeWorkload("gowalla");
  const spatial::UniformGrid grid(workload.dataset.domain, g);
  const auto centers = grid.AllCenters();
  const auto prior = workload.prior->OnGrid(grid);

  std::printf("OPT Create, n=%d, eps=%g (hardware_concurrency=%u)\n", g * g,
              eps, std::thread::hardware_concurrency());
  std::vector<CreateResult> creates;
  creates.push_back(TimeCreate(g, eps, centers, prior, 1, nullptr));
  // Re-build the serial mechanism once as the bit-identity reference.
  auto reference = mechanisms::OptimalMechanism::Create(
      eps, centers, prior, geo::UtilityMetric::kEuclidean, {});
  GEOPRIV_CHECK_OK(reference.status());
  for (int t : {2, 4, 8}) {
    creates.push_back(TimeCreate(g, eps, centers, prior, t, &*reference));
  }

  eval::Table table({"threads", "create s", "pricing s", "simplex s",
                     "violations", "speedup", "bit-identical"});
  const double serial_seconds = creates.front().seconds;
  for (const auto& r : creates) {
    table.AddRow({std::to_string(r.threads), eval::Fmt(r.seconds, 3),
                  eval::Fmt(r.stats.pricing_seconds, 3),
                  eval::Fmt(r.stats.simplex_seconds, 3),
                  std::to_string(r.stats.violations_found),
                  eval::Fmt(serial_seconds / r.seconds, 2),
                  r.bit_identical ? "yes" : "NO"});
    GEOPRIV_CHECK(r.bit_identical);
  }
  table.Print(std::cout);

  std::printf("\nPrewarm fan-out, msm g=%d, k=%d\n", prewarm_g, prewarm_k);
  std::vector<PrewarmResult> prewarms;
  for (int t : {1, 2, 4, 8}) {
    prewarms.push_back(
        TimePrewarm(workload, eps, prewarm_g, prewarm_k, t));
    std::printf("  threads=%d warmed=%d in %.3f s\n", t,
                prewarms.back().warmed, prewarms.back().seconds);
  }

  // One-thread ladder: grow g from one above the create sweep's until a
  // rung misses the time limit. Every rung is reported; the largest solved
  // n is the figure of merit.
  struct Rung {
    int n = 0;
    bool ok = false;
    double seconds = 0.0;
    int iterations = 0;
    int rounds = 0;
    std::string status = "solved";
  };
  mechanisms::OptimalMechanismOptions limited;
  limited.solver.time_limit_seconds = limit_s;
  const auto attempt = [&](int rung_g) {
    const spatial::UniformGrid grid_g(workload.dataset.domain, rung_g);
    Rung r;
    r.n = rung_g * rung_g;
    const Stopwatch watch;
    auto opt = mechanisms::OptimalMechanism::Create(
        eps, grid_g.AllCenters(), workload.prior->OnGrid(grid_g),
        geo::UtilityMetric::kEuclidean, limited);
    r.seconds = watch.ElapsedSeconds();
    r.ok = opt.ok();
    if (!r.ok) r.status = opt.status().ToString();
    if (r.ok) {
      r.iterations = opt->stats().simplex_iterations;
      r.rounds = opt->stats().rounds;
    }
    return r;
  };
  std::printf("\nOne-thread g ladder (limit %.0f s per rung)\n", limit_s);
  std::vector<Rung> ladder;
  int largest_solved = 0;
  for (int rung_g = g + 1;; ++rung_g) {
    ladder.push_back(attempt(rung_g));
    const Rung& r = ladder.back();
    std::printf("  g=%d n=%d %s in %.3f s (%d pivots, %d rounds)\n", rung_g,
                r.n, r.status.c_str(), r.seconds, r.iterations, r.rounds);
    if (!r.ok) break;
    largest_solved = r.n;
  }

  const Rung large = attempt(large_g);
  std::printf("\nLarge-n attempt, n=%d: %s (%.3f s)\n", large.n,
              large.status.c_str(), large.seconds);

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  unsigned max_threads = 0;
  for (const auto& r : creates)
    max_threads = std::max(max_threads, static_cast<unsigned>(r.threads));
#ifdef NDEBUG
  constexpr bool kAssertsOff = true;
#else
  constexpr bool kAssertsOff = false;
#endif
#ifdef __AVX2__
  constexpr bool kAvx2 = true;
#else
  constexpr bool kAvx2 = false;
#endif
  std::fprintf(f,
               "{\n  \"bench\": \"lp_parallel\",\n"
               "  \"host\": {\"hardware_concurrency\": %u,"
               " \"compiler\": \"%s\", \"ndebug\": %s, \"avx2\": %s},\n"
               "  \"n\": %d,\n  \"eps\": %g,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"multi_thread_scaling_valid\": %s,\n  \"create\": [\n",
               hc, __VERSION__, kAssertsOff ? "true" : "false",
               kAvx2 ? "true" : "false", g * g, eps, hc,
               hc >= max_threads ? "true" : "false");
  for (size_t i = 0; i < creates.size(); ++i) {
    const auto& r = creates[i];
    std::fprintf(
        f,
        "    {\"threads\": %d, \"hardware_concurrency\": %u,"
        " \"scaling_valid\": %s, \"seconds\": %.4f,"
        " \"pricing_seconds\": %.4f, \"simplex_seconds\": %.4f,"
        " \"violations\": %lld, \"rounds\": %d,"
        " \"speedup_vs_serial\": %.3f, \"bit_identical\": %s}%s\n",
        r.threads, hc,
        hc >= static_cast<unsigned>(r.threads) ? "true" : "false",
        r.seconds, r.stats.pricing_seconds,
        r.stats.simplex_seconds, static_cast<long long>(
            r.stats.violations_found), r.stats.rounds,
        serial_seconds / r.seconds, r.bit_identical ? "true" : "false",
        i + 1 < creates.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"prewarm\": [\n");
  for (size_t i = 0; i < prewarms.size(); ++i) {
    const auto& r = prewarms[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"hardware_concurrency\": %u,"
                 " \"scaling_valid\": %s, \"k\": %d, \"warmed\": %d,"
                 " \"seconds\": %.4f}%s\n",
                 r.threads, hc,
                 hc >= static_cast<unsigned>(r.threads) ? "true" : "false",
                 prewarm_k, r.warmed, r.seconds,
                 i + 1 < prewarms.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"limit_seconds\": %.0f,\n  \"ladder\": [\n",
               limit_s);
  for (size_t i = 0; i < ladder.size(); ++i) {
    const Rung& r = ladder[i];
    std::fprintf(f,
                 "    {\"n\": %d, \"ok\": %s, \"seconds\": %.4f,"
                 " \"pivots\": %d, \"rounds\": %d, \"status\": \"%s\"}%s\n",
                 r.n, r.ok ? "true" : "false", r.seconds, r.iterations,
                 r.rounds, r.status.c_str(), i + 1 < ladder.size() ? "," : "");
  }
  std::fprintf(
      f,
      "  ],\n  \"largest_n_solved_one_thread\": %d,\n"
      "  \"large_n\": {\"n\": %d, \"ok\": %s, \"seconds\": %.4f,"
      " \"status\": \"%s\"},\n"
      "  \"note\": \"create speedups reflect this machine's core count and "
      "come from the pricing pipeline alone; ladder and large-n run on one "
      "thread under limit_seconds\"\n}\n",
      largest_solved, large.n, large.ok ? "true" : "false", large.seconds,
      large.status.c_str());
  std::fclose(f);
  std::printf("\nJSON written to %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace geopriv::bench

int main(int argc, char** argv) { return geopriv::bench::Main(argc, argv); }
