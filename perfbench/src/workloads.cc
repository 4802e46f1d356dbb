// The three benchmark workloads, driven through the public API only:
//
//  * serve_warm   — open-loop Poisson traffic on two bundle-loaded regions
//                   (zero LP solves on the request path);
//  * serve_churn  — the same generator on lazily registered regions with a
//                   cache budget below the working set, request deadlines,
//                   the background auditor, and a third region unregistered
//                   and reloaded from its bundle on a fixed period;
//  * build_region — the build tier: check-ins -> BuildRegionBundle -> Open
//                   (checksum verify) -> LoadRegion -> first report, then
//                   AuditBundle, repeated for the timed phase; the regions
//                   it built are then served like serve_warm.
//
// Every run also checks its outputs (OnLeafGrid on every OK reply,
// CheckIdentity, and the GeoInd tolerance on every built bundle and served
// region) and, when traced, derives per-layer numbers from the benchmark's
// own spans merged with the service's obs spans.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "audit/audit.h"
#include "base/thread_pool.h"
#include "bundle/builder.h"
#include "bundle/loader.h"
#include "bundle/region_bundle.h"
#include "core/location_sanitizer.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "geo/projection.h"
#include "harness.h"
#include "mechanisms/optimal.h"
#include "obs/trace.h"
#include "rng/alias_sampler.h"
#include "rng/rng.h"
#include "service/sanitization_service.h"
#include "stats.h"

namespace perfbench {
namespace {

using geopriv::ThreadPool;
using geopriv::core::LatLon;
namespace audit = geopriv::audit;
namespace bundle = geopriv::bundle;
namespace core = geopriv::core;
namespace data = geopriv::data;
namespace geo = geopriv::geo;
namespace obs = geopriv::obs;
namespace service = geopriv::service;

uint64_t Now() { return obs::NowTicks(); }
double Seconds(uint64_t start, uint64_t end) {
  return static_cast<double>(end - start) / 1e9;
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

[[noreturn]] void SetupError(const std::string& what,
                             const geopriv::Status& status) {
  throw std::runtime_error(what + ": " + status.ToString());
}

template <typename T>
T Take(geopriv::StatusOr<T> value, const std::string& what) {
  if (!value.ok()) SetupError(what, value.status());
  return std::move(value).value();
}

// Sizing of the harness itself. Rates, region configs, deadlines and
// latency limits come from config.json; these only set how much work the
// harness does around them.
constexpr int kWorkers = 1;           // service workers (see README.md)
constexpr int kBuildPoolThreads = 3;  // build tier pool: nproc - 1
constexpr size_t kQueueCapacity = 65536;
constexpr int kSetupReps = 8;         // set-up repetitions behind setup_s
// Check-in datasets per city that serve_churn serves at once, so its
// latency and capacity average over several draws of the seed's data.
constexpr int kChurnDatasets = 4;
constexpr size_t kQueryPool = 131072;
constexpr size_t kIdentityQueries = 2000;  // per city, bundle vs scratch
constexpr size_t kWalkQueries = 100000;    // direct walks, traced runs
constexpr size_t kAliasDraws = 2000000;    // alias draws, traced runs
// Backlog growth over a window: see BacklogGrows. A window whose backlog
// passes kBacklogAbort stops early: overload is certain.
constexpr double kBacklogMinGrowth = 64;
constexpr double kBacklogGrowthShare = 0.02;
constexpr double kBacklogAbort = 32768;
// Per-window percentiles are combined across windows at this quantile.
constexpr double kWindowQuantile = 0.25;
// Shares of --seconds: the reference windows of a serving phase, and
// build_region's timed build phase.
constexpr double kReferenceShare = 0.6;
constexpr double kBuildShare = 0.7;
// Traffic per side of the tracing-overhead comparison.
constexpr double kOverheadSeconds = 0.1;

double Percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return PercentileSorted(values, q);
}

// ---------------------------------------------------------------------------
// Cities, regions and queries.

constexpr int kCities = 2;
const char* const kCityIds[kCities] = {"austin", "vegas"};
constexpr const char* kReplicaId = "replica";

struct City {
  std::string id;
  data::LatLonBounds bounds;
  std::vector<LatLon> checkins;
};

// Dataset 0 is the city's bundle-backed region; further datasets are
// extra regions of the same city, named "<city>.<dataset>".
City GenerateCity(int which, uint64_t seed, int dataset = 0) {
  data::SyntheticCityConfig config = which == 0
                                         ? data::GowallaAustinLikeConfig()
                                         : data::YelpLasVegasLikeConfig();
  config.seed = seed;
  const data::Dataset ds =
      Take(data::GenerateSyntheticCity(config), "generate check-ins");
  City city;
  city.id = kCityIds[which];
  if (dataset > 0) city.id += "." + std::to_string(dataset);
  city.bounds = which == 0 ? data::kGowallaAustinBounds
                           : data::kYelpLasVegasBounds;
  const geo::EquirectangularProjection proj =
      Take(geo::EquirectangularProjection::Create(city.bounds.min_lat,
                                                  city.bounds.min_lon),
           "projection");
  city.checkins.reserve(ds.points.size());
  for (const geo::Point& p : ds.points) {
    LatLon ll;
    proj.Inverse(p, &ll.lat, &ll.lon);
    ll.lat = std::clamp(ll.lat, city.bounds.min_lat, city.bounds.max_lat);
    ll.lon = std::clamp(ll.lon, city.bounds.min_lon, city.bounds.max_lon);
    city.checkins.push_back(ll);
  }
  return city;
}

bundle::RegionSpec SpecFor(const City& city, const Params& p) {
  bundle::RegionSpec spec;
  spec.min_lat = city.bounds.min_lat;
  spec.min_lon = city.bounds.min_lon;
  spec.max_lat = city.bounds.max_lat;
  spec.max_lon = city.bounds.max_lon;
  spec.eps = p.Num("eps");
  spec.granularity = p.Int("granularity");
  spec.rho = p.Num("rho");
  spec.prior_granularity = p.Int("prior_granularity");
  spec.checkins = city.checkins;
  return spec;
}

// Planar frame of one served region, for the reply checks and the loss.
struct Geometry {
  geo::EquirectangularProjection proj;
  geo::Point ne;  // north-east corner in km; south-west is (0, 0)
  int leaf = 0;   // leaf cells per axis

  geo::Point Km(const LatLon& ll) const {
    const geo::Point p = proj.Forward(ll.lat, ll.lon);
    return {std::clamp(p.x, 0.0, ne.x), std::clamp(p.y, 0.0, ne.y)};
  }
};

Geometry GeometryFor(const data::LatLonBounds& b, int leaf) {
  const geo::EquirectangularProjection proj =
      Take(geo::EquirectangularProjection::Create(b.min_lat, b.min_lon),
           "projection");
  return {proj, proj.Forward(b.max_lat, b.max_lon), leaf};
}

// True when `reported` is the centre of a leaf cell inside the box.
bool OnLeafGrid(const Geometry& g, const LatLon& reported) {
  const geo::Point p = g.proj.Forward(reported.lat, reported.lon);
  const double tol = 1e-6;
  if (p.x < -tol || p.y < -tol || p.x > g.ne.x + tol || p.y > g.ne.y + tol) {
    return false;
  }
  for (const double u : {p.x / (g.ne.x / g.leaf) - 0.5,
                         p.y / (g.ne.y / g.leaf) - 0.5}) {
    const double cell = std::round(u);
    if (std::fabs(u - cell) > tol || cell < 0.0 || cell >= g.leaf) {
      return false;
    }
  }
  return true;
}

struct Query {
  int region = 0;
  LatLon loc;
};

// Queries follow each city's check-in distribution.
std::vector<Query> MakeQueries(const std::vector<City>& cities, size_t count,
                               uint64_t seed) {
  geopriv::rng::Rng rng(seed);
  std::vector<Query> out(count);
  for (Query& q : out) {
    q.region = static_cast<int>(rng.UniformInt(cities.size()));
    const City& c = cities[static_cast<size_t>(q.region)];
    q.loc = c.checkins[rng.UniformInt(c.checkins.size())];
  }
  return out;
}

// ---------------------------------------------------------------------------
// The build chain: check-ins -> bundle -> open (verify) -> load -> first
// report, then the bundle audit (outside the chain's clock).

struct BuildSample {
  int city = 0;
  double chain_s = 0.0;
  double lp_s = 0.0;
  int64_t lp_solves = 0;
  uint64_t bytes = 0;
  double open_ms = 0.0;
  double rehydrate_ms = 0.0;
  double audit_ms = 0.0;
  uint64_t audit_nodes = 0;
  double opt_loss_km = 0.0;
  double max_violation = 0.0;
};

struct Context {
  const RunOptions& options;
  const Params& params;
  SpanLog spans;
  RunResult result;
  double tolerance = geopriv::mechanisms::OptimalMechanismOptions{}
                         .violation_tolerance;
  std::vector<BuildSample> builds;
  std::vector<double> setup_s, generate_s;
  int max_threads = 1;
  // Requests the traced run records a benchmark span for (due -> reply);
  // the rest are summarized only, which keeps the trace dump small.
  int request_spans_left = 5000;

  Context(const RunOptions& o, const Params& p)
      : options(o), params(p), spans(o.trace) {}

  void UseThreads(int n) { max_threads = std::max(max_threads, n); }
  std::string BundlePath(const std::string& name) const {
    return options.work_dir + "/" + options.workload + "_" + name + ".gpb";
  }
};

void CheckViolation(Context& ctx, const std::string& what, double v) {
  if (!(v <= ctx.tolerance)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s: GeoInd max_violation %.3g above tolerance %.1g",
                  what.c_str(), v, ctx.tolerance);
    ctx.result.Fail(buf);
  }
}

// Returns false (and counts a failed build) when any step fails.
bool BuildChain(Context& ctx, const City& city, int which, ThreadPool* pool,
                const std::string& path) {
  ++ctx.result.attempted;
  BuildSample s;
  s.city = which;
  const bundle::RegionSpec spec = SpecFor(city, ctx.params);
  ScopedSpan chain_span(ctx.spans, "bundle.chain");
  const uint64_t t0 = Now();
  bundle::BuildBundleOptions build_opts;
  build_opts.pool = pool;
  geopriv::StatusOr<bundle::BuildBundleResult> built = [&] {
    ScopedSpan span(ctx.spans, "bundle.build");
    return bundle::BuildRegionBundle(spec, build_opts, path);
  }();
  if (!built.ok()) {
    ++ctx.result.failed;
    ctx.result.Fail("BuildRegionBundle " + city.id + ": " +
                    built.status().ToString());
    return false;
  }
  const uint64_t t1 = Now();
  geopriv::StatusOr<bundle::RegionBundleView> view = [&] {
    ScopedSpan span(ctx.spans, "bundle.open");
    return bundle::RegionBundleView::Open(path, /*verify_checksums=*/true);
  }();
  if (!view.ok()) {
    ++ctx.result.failed;
    ctx.result.Fail("bundle does not open with checksum verify: " +
                    view.status().ToString());
    return false;
  }
  const uint64_t t2 = Now();
  geopriv::StatusOr<bundle::LoadedRegion> loaded = [&] {
    ScopedSpan span(ctx.spans, "bundle.load");
    return bundle::LoadRegion(*view);
  }();
  if (!loaded.ok()) {
    ++ctx.result.failed;
    ctx.result.Fail("LoadRegion: " + loaded.status().ToString());
    return false;
  }
  const uint64_t t3 = Now();
  {
    ScopedSpan span(ctx.spans, "core.first_report");
    const LatLon probe = city.checkins.front();
    if (!loaded->sanitizer.SanitizeLatLonOrStatus(probe.lat, probe.lon).ok()) {
      ++ctx.result.failed;
      ctx.result.Fail("first report on a freshly loaded region failed");
      return false;
    }
  }
  const uint64_t t4 = Now();
  s.chain_s = Seconds(t0, t4);
  s.lp_s = built->lp_seconds;
  s.lp_solves = built->lp_solves;
  s.bytes = built->bytes;
  s.open_ms = Seconds(t1, t2) * 1e3;
  s.rehydrate_ms = Seconds(t2, t3) * 1e3;
  {
    ScopedSpan span(ctx.spans, "audit.bundle");
    const uint64_t a0 = Now();
    const audit::RegionAuditReport report =
        Take(audit::AuditBundle(*view), "AuditBundle");
    s.audit_ms = Seconds(a0, Now()) * 1e3;
    s.audit_nodes = report.audited_nodes;
    s.opt_loss_km = report.expected_loss_euclidean;
    s.max_violation = report.max_violation;
  }
  CheckViolation(ctx, "bundle " + city.id, s.max_violation);
  ctx.builds.push_back(s);
  return true;
}

// ---------------------------------------------------------------------------
// The open-loop generator.

struct Served {
  service::SanitizationService* svc = nullptr;
  std::vector<std::string> ids;    // per query region index
  std::vector<Geometry> geometry;  // per query region index
  const std::vector<Query>* queries = nullptr;
  size_t cursor = 0;  // next query in the pool
  double deadline_ms = 0.0;
};

// serve_churn's registry writer: its own thread unregisters the replica
// region and reloads it from its bundle every `period_s`, beside the
// generator's reads, until Stop().
class ReplicaChurn {
 public:
  ReplicaChurn(service::SanitizationService& svc, std::string path,
               double period_s)
      : svc_(svc), path_(std::move(path)), period_s_(period_s) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~ReplicaChurn() { Stop(); }
  ReplicaChurn(const ReplicaChurn&) = delete;
  ReplicaChurn& operator=(const ReplicaChurn&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  // Read after Stop().
  const std::vector<std::pair<uint64_t, uint64_t>>& reloads() const {
    return reloads_;
  }
  uint64_t failures() const { return failures_; }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::duration<double>(period_s_),
                         [this] { return stop_; })) {
      const uint64_t start = Now();
      const bool ok = svc_.UnregisterRegion(kReplicaId).ok() &&
                      svc_.LoadRegionFromBundle(kReplicaId, path_).ok();
      reloads_.push_back({start, Now()});
      if (!ok) ++failures_;
    }
  }

  service::SanitizationService& svc_;
  const std::string path_;
  const double period_s_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<std::pair<uint64_t, uint64_t>> reloads_;  // start, end ns
  uint64_t failures_ = 0;
  std::thread thread_;
};

// What one window of open-loop traffic produced. The per-request samples
// are summarized and dropped (unless a caller asks to keep them), so the
// harness's own memory stays small beside the peak RSS it reports.
struct Window {
  double rate = 0.0;
  uint64_t attempted = 0, rejected = 0, failed = 0, fallbacks = 0;
  LatencySummary latency;  // due -> reply in us, misses as kMissLatency
  double lag_p99_us = 0.0;  // how late the generator sent
  bool aborted = false;     // backlog passed backlog_abort
  bool backlog_grows = false;
  double loss_sum_km = 0.0;
  uint64_t loss_n = 0, off_grid = 0;
  uint64_t start_ns = 0, end_ns = 0;
  service::LatencyHistogram::BucketCounts buckets_before{}, buckets_after{};
};

// Raw samples a caller keeps from a window (null = drop).
struct Keep {
  std::vector<float>* latency_us = nullptr;
  std::vector<float>* submit_us = nullptr;
};

// Per-request slots the callbacks write; sized once per window, read by
// the generator only after Drain().
struct Replies {
  std::vector<uint64_t> done_ns;
  std::vector<LatLon> reported;
  std::vector<uint8_t> flags;
  std::atomic<uint64_t> completed{0};
};
constexpr uint8_t kOk = 1, kFallback = 2;

Window RunWindow(Context& ctx, Served& s, double rate, double seconds,
                 uint64_t schedule_seed, Keep keep = {}) {
  Window w;
  w.rate = rate;
  const size_t n = std::max<size_t>(1, static_cast<size_t>(rate * seconds));
  const std::vector<uint64_t> due = PoissonSchedule(rate, n, schedule_seed);
  const std::vector<Query>& pool = *s.queries;
  const size_t first_query = s.cursor;
  const size_t sample_every = std::max<size_t>(1, n / 64);
  Replies replies;
  replies.done_ns.assign(n, 0);
  replies.reported.assign(n, LatLon{});
  replies.flags.assign(n, 0);
  std::vector<uint8_t> rejected(n, 0);
  std::vector<double> lag_us, submit_us, backlog;
  lag_us.reserve(n);
  submit_us.reserve(n);
  w.buckets_before = s.svc->metrics().Snapshot().latency_buckets;

  const int window_span = ctx.spans.Begin("serve.window");
  const uint64_t start = Now() + 200000;  // 0.2 ms to get going
  uint64_t accepted = 0;
  size_t sent = 0;
  while (sent < n) {
    const size_t i = sent;
    const uint64_t due_abs = start + due[i];
    uint64_t now = Now();
    while (now < due_abs) now = Now();
    lag_us.push_back(static_cast<double>(now - due_abs) / 1e3);
    const Query& q = pool[(first_query + i) % pool.size()];
    service::SanitizeRequest req;
    req.region_id = s.ids[static_cast<size_t>(q.region)];
    req.location = q.loc;
    req.deadline_ms = s.deadline_ms;
    const uint64_t t0 = Now();
    const geopriv::Status st = s.svc->SubmitAsync(
        std::move(req), [&replies, i](const service::SanitizeResult& r) {
          replies.reported[i] = r.reported;
          replies.flags[i] = static_cast<uint8_t>(
              (r.status.ok() ? kOk : 0) | (r.used_fallback ? kFallback : 0));
          replies.done_ns[i] = Now();
          replies.completed.fetch_add(1, std::memory_order_release);
        });
    submit_us.push_back(static_cast<double>(Now() - t0) / 1e3);
    ++sent;
    if (st.ok()) {
      ++accepted;
    } else {
      rejected[i] = 1;
    }
    if (sent % sample_every == 0) {
      backlog.push_back(static_cast<double>(
          accepted - replies.completed.load(std::memory_order_acquire)));
      if (backlog.back() > kBacklogAbort) {
        w.aborted = true;  // overload is certain; spare the queue
        break;
      }
    }
  }
  s.svc->Drain();
  w.start_ns = start;
  w.end_ns = Now();
  ctx.spans.End(window_span);
  s.cursor = first_query + sent;
  w.buckets_after = s.svc->metrics().Snapshot().latency_buckets;

  std::vector<double> latency_us;
  latency_us.reserve(sent);
  for (size_t i = 0; i < sent; ++i) {
    const uint8_t f = replies.flags[i];
    const bool miss = rejected[i] != 0 || (f & kOk) == 0;
    if (rejected[i] != 0) {
      ++w.rejected;
    } else if (miss) {
      ++w.failed;
    }
    latency_us.push_back(
        DueLatencyUs(start + due[i], replies.done_ns[i], miss));
    if (ctx.spans.enabled() && !miss && ctx.request_spans_left > 0) {
      --ctx.request_spans_left;
      ctx.spans.AddUnder(window_span, "serve.request", start + due[i],
                         replies.done_ns[i]);
    }
    if (miss) continue;
    if ((f & kFallback) != 0) ++w.fallbacks;
    const Query& q = pool[(first_query + i) % pool.size()];
    const Geometry& g = s.geometry[static_cast<size_t>(q.region)];
    const LatLon& r = replies.reported[i];
    if (!OnLeafGrid(g, r)) ++w.off_grid;
    const geo::Point a = g.Km(q.loc);
    const geo::Point b = g.proj.Forward(r.lat, r.lon);
    w.loss_sum_km += std::hypot(a.x - b.x, a.y - b.y);
    ++w.loss_n;
  }
  w.attempted = sent;
  if (keep.latency_us != nullptr) {
    keep.latency_us->insert(keep.latency_us->end(), latency_us.begin(),
                            latency_us.end());
  }
  if (keep.submit_us != nullptr) {
    keep.submit_us->insert(keep.submit_us->end(), submit_us.begin(),
                           submit_us.end());
  }
  w.latency = Summarize(latency_us);
  w.lag_p99_us = Percentile(std::move(lag_us), 0.99);
  w.backlog_grows =
      w.aborted || BacklogGrows(backlog, static_cast<double>(sent),
                                kBacklogMinGrowth, kBacklogGrowthShare);
  return w;
}

// One climb of the rate ladder: the rungs it ran, in ascending rate order.
struct Climb {
  std::vector<RungResult> rungs;
  std::vector<double> retried;  // rates of rungs that failed once
};

struct ServeOutcome {
  std::vector<Window> reference;
  std::vector<Window> ladder;  // every sub-window of every rung run
  std::vector<Climb> climbs;   // two, in the order they ran
  std::vector<float> reference_latency_us;  // pooled, for the top percentile
  std::vector<float> reference_submit_us;   // traced runs only
};

// The highest rate any climb reached (see MaxPassingRate).
double MaxRate(const ServeOutcome& o, double p99_limit_us) {
  double best = 0.0;
  for (const Climb& c : o.climbs) {
    best = std::max(best, MaxPassingRate(c.rungs, p99_limit_us));
  }
  return best;
}

// Short reference windows at the workload's reference rate for
// kReferenceShare of the run, in two halves, each followed by a climb of
// the rate ladder in ascending order until the first rung that fails twice
// (see ClimbLadder). The second climb starts at the last rung the first
// one passed, so serve_max_rps is the better of two climbs some seconds
// apart: the host's speed drifts over seconds, and a slow spell that
// covers one climb rarely covers both. Each rung runs as `rung_windows`
// short sub-windows (see CombineRung). Percentiles are taken per window
// and reported at kWindowQuantile over the windows: on a shared host a
// vCPU can stall for milliseconds several times a second, and short
// windows keep those stalls out of a share of the windows, so the figure
// measures the service rather than the hypervisor. Background
// work the workload runs on purpose (serve_churn's auditor and reloads)
// has a period no longer than its windows, so every window carries it.
// `after_reference` runs after the first half of the reference windows,
// while the service's trace rings still hold their traffic.
template <typename AfterReference>
ServeOutcome ServePhase(Context& ctx, Served& s, double seconds,
                        AfterReference after_reference) {
  const Params& p = ctx.params;
  const double ref_window_s = p.Num("reference_window_s");
  const int ref_windows = std::max(
      2, static_cast<int>(seconds * kReferenceShare / ref_window_s));
  const std::vector<double> ladder = p.List("ladder_rps");
  const double limit = p.Num("p99_limit_us");
  ServeOutcome out;
  ScopedSpan span(ctx.spans, "serve.phase");
  Keep keep{&out.reference_latency_us,
            ctx.spans.enabled() ? &out.reference_submit_us : nullptr};
  auto reference = [&](int from, int to) {
    for (int k = from; k < to; ++k) {
      out.reference.push_back(RunWindow(
          ctx, s, p.Num("reference_rps"), ref_window_s,
          Mix(ctx.options.seed, 1000 + static_cast<uint64_t>(k)), keep));
    }
  };
  auto climb = [&](size_t first_rung) {
    const uint64_t salt = 100000 + 4096 * out.climbs.size();
    auto run_rung = [&](size_t k, int attempt) {
      const size_t rung_index = first_rung + k;
      std::vector<LatencySummary> summaries;
      std::vector<bool> grows;
      for (int j = 0; j < p.Int("rung_windows"); ++j) {
        out.ladder.push_back(RunWindow(
            ctx, s, ladder[rung_index], p.Num("rung_window_s"),
            Mix(ctx.options.seed, salt + 64 * rung_index + 32 * attempt + j)));
        summaries.push_back(out.ladder.back().latency);
        grows.push_back(out.ladder.back().backlog_grows);
        if (out.ladder.back().aborted) break;
      }
      RungResult rung =
          CombineRung(ladder[rung_index], summaries, grows, kWindowQuantile);
      if (out.ladder.back().aborted) rung.backlog_grows = true;
      return rung;
    };
    Climb c;
    c.rungs = ClimbLadder(
        std::vector<double>(ladder.begin() + first_rung, ladder.end()), limit,
        run_rung, &c.retried);
    out.climbs.push_back(std::move(c));
  };
  reference(0, ref_windows / 2);
  after_reference(out);
  climb(0);
  reference(ref_windows / 2, ref_windows);
  const std::vector<RungResult>& first = out.climbs.front().rungs;
  size_t passed = 0;
  while (passed < first.size() && RungPasses(first[passed], limit)) ++passed;
  climb(passed == 0 ? 0 : passed - 1);
  return out;
}

// ---------------------------------------------------------------------------
// Correctness: bundle-loaded vs scratch-built reports, bit for bit.

void AddLp(core::MsmStats& acc, const core::MsmStats& st) {
  acc.lp_solves += st.lp_solves;
  acc.lp_seconds += st.lp_seconds;
  acc.lp_pricing_seconds += st.lp_pricing_seconds;
  acc.lp_simplex_seconds += st.lp_simplex_seconds;
  acc.lp_refactor_seconds += st.lp_refactor_seconds;
  acc.lp_violations_found += st.lp_violations_found;
}

struct IdentityOutcome {
  core::MsmStats scratch_stats;
  std::vector<double> write_s;  // WriteRegionBundle of the scratch regions
  std::vector<std::unique_ptr<bundle::LoadedRegion>> loaded;  // per city
};

// Loads each city's bundle and builds the same region from scratch (every
// node solved), then requires both to give bit-identical reports for the
// city's first kIdentityQueries queries under one seed.
IdentityOutcome CheckIdentity(Context& ctx, const std::vector<City>& cities,
                              const std::vector<std::string>& paths,
                              const std::vector<Query>& queries) {
  IdentityOutcome out;
  ThreadPool pool(kBuildPoolThreads, 1024);
  ctx.UseThreads(1 + kBuildPoolThreads);
  const uint64_t serve_seed = Mix(ctx.options.seed, 77);
  for (size_t c = 0; c < cities.size(); ++c) {
    const bundle::RegionBundleView view = Take(
        bundle::RegionBundleView::Open(paths[c], true), "open bundle");
    bundle::RegionLoadOptions load_opts;
    load_opts.seed = serve_seed;
    auto loaded = std::make_unique<bundle::LoadedRegion>(
        Take(bundle::LoadRegion(view, load_opts), "LoadRegion"));
    const bundle::RegionSpec spec = SpecFor(cities[c], ctx.params);
    core::LocationSanitizer::Builder builder;
    builder
        .SetRegionLatLon(spec.min_lat, spec.min_lon, spec.max_lat,
                         spec.max_lon)
        .SetEpsilon(spec.eps)
        .SetGranularity(spec.granularity)
        .SetRho(spec.rho)
        .SetPriorGranularity(spec.prior_granularity)
        .AddCheckinsLatLon(spec.checkins)
        .SetSeed(serve_seed)
        .SetConstructionPool(&pool);
    core::LocationSanitizer scratch =
        Take(builder.Build(), "scratch-built region");
    Take(scratch.PrewarmTopNodes(std::numeric_limits<int>::max(), &pool),
         "prewarm scratch region");
    size_t checked = 0, differ = 0;
    for (const Query& q : queries) {
      if (static_cast<size_t>(q.region) != c) continue;
      const auto a =
          loaded->sanitizer.SanitizeLatLonOrStatus(q.loc.lat, q.loc.lon);
      const auto b = scratch.SanitizeLatLonOrStatus(q.loc.lat, q.loc.lon);
      if (!a.ok() || !b.ok() ||
          std::memcmp(&a->lat, &b->lat, sizeof(double)) != 0 ||
          std::memcmp(&a->lon, &b->lon, sizeof(double)) != 0) {
        ++differ;
      }
      if (++checked == kIdentityQueries) break;
    }
    if (differ > 0 || checked == 0) {
      ctx.result.Fail("bundle-loaded " + cities[c].id + " differs from the " +
                      "scratch-built region on " + std::to_string(differ) +
                      " of " + std::to_string(checked) + " reports");
    }
    {
      ScopedSpan span(ctx.spans, "bundle.write");
      const uint64_t w0 = Now();
      Take(bundle::WriteRegionBundle(scratch, spec, ctx.BundlePath("scratch")),
           "WriteRegionBundle");
      out.write_s.push_back(Seconds(w0, Now()));
    }
    AddLp(out.scratch_stats, scratch.mechanism().stats());
    out.loaded.push_back(std::move(loaded));
  }
  return out;
}

// The service's last audit of `id`, read from the public metrics JSON. A
// region that was never audited reads as zero audited nodes.
struct ServedAudit {
  double max_violation = 0.0;
  uint64_t audited_nodes = 0;
};

ServedAudit LastServedAudit(const service::SanitizationService& svc,
                            const std::string& id) {
  const std::string json = svc.MetricsJson();
  const size_t region = json.find("\"" + id + "\":{");
  if (region == std::string::npos) return {};
  auto field = [&](const std::string& name) {
    const std::string key = "\"" + name + "\":";
    const size_t at = json.find(key, region);
    return at == std::string::npos
               ? 0.0
               : std::strtod(json.c_str() + at + key.size(), nullptr);
  };
  return {field("audit_max_violation"),
          static_cast<uint64_t>(field("audit_audited_nodes"))};
}

// ---------------------------------------------------------------------------
// Host facts and the metric tables.

int CoresAvailable() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double MedianOf(const std::vector<BuildSample>& builds,
                double BuildSample::*field, int city = -1) {
  std::vector<double> v;
  for (const BuildSample& b : builds) {
    if (city < 0 || b.city == city) v.push_back(b.*field);
  }
  return Median(v);
}

struct ServeTotals {
  uint64_t attempted = 0, rejected = 0, failed = 0, fallbacks = 0;
  double loss_sum = 0.0;
  uint64_t loss_n = 0, off_grid = 0;
};

ServeTotals Totals(const std::vector<const std::vector<Window>*>& lists) {
  ServeTotals t;
  for (const auto* list : lists) {
    for (const Window& w : *list) {
      t.attempted += w.attempted;
      t.rejected += w.rejected;
      t.failed += w.failed;
      t.fallbacks += w.fallbacks;
      t.loss_sum += w.loss_sum_km;
      t.loss_n += w.loss_n;
      t.off_grid += w.off_grid;
    }
  }
  return t;
}

double Ratio(uint64_t part, uint64_t whole) {
  return static_cast<double>(part) /
         static_cast<double>(std::max<uint64_t>(1, whole));
}

// A per-window figure over the reference windows, at quantile q.
template <typename Field>
double OverReference(const ServeOutcome& o, Field field, double q) {
  std::vector<double> v;
  for (const Window& w : o.reference) v.push_back(field(w));
  return WindowQuantile(v, q);
}

// Honesty labels of the serving phase: generator lag past its bound, and
// percentiles taken from windows too small to support them.
void LabelServing(Context& ctx, const ServeOutcome& o) {
  size_t thin = 0;
  for (const auto* list : {&o.reference, &o.ladder}) {
    for (const Window& w : *list) {
      if (!w.aborted && !PercentileSupported(w.latency.count, 0.99)) ++thin;
    }
  }
  if (thin > 0) {
    ctx.result.invalid_reasons.push_back(
        std::to_string(thin) +
        " windows have too few samples for the p99 taken from them");
  }
  const double lag = OverReference(
      o, [](const Window& w) { return w.lag_p99_us; }, 0.5);
  if (lag > ctx.params.Num("lag_p99_limit_us")) {
    ctx.result.invalid_reasons.push_back(
        "generator lag p99 " + std::to_string(lag) + " us exceeds the bound");
  }
}

void PutEndToEnd(Context& ctx, const ServeOutcome& o) {
  RunResult& r = ctx.result;
  // Failures count over every request sent; the fallback share and the
  // loss are taken at the reference rate, where every run sends the same
  // number of requests (the ladder stops at a run-dependent rung).
  const ServeTotals all = Totals({&o.reference, &o.ladder});
  const ServeTotals ref = Totals({&o.reference});
  const double limit = ctx.params.Num("p99_limit_us");
  r.Put("setup_s", Median(ctx.setup_s), "s");
  const double q = kWindowQuantile;
  r.Put("serve_p50_us",
        OverReference(o, [](const Window& w) { return w.latency.p50; }, q),
        "us");
  r.Put("serve_p90_us",
        OverReference(o, [](const Window& w) { return w.latency.p90; }, q),
        "us");
  r.Put("serve_max_rps", MaxRate(o, limit), "1/s");
  r.Put("served_ratio", 1.0 - Ratio(all.rejected + all.failed, all.attempted),
        "ratio");
  r.Put("msm_reply_ratio", 1.0 - Ratio(ref.fallbacks, ref.attempted), "ratio");
  r.Put("serve_loss_km", ref.loss_n > 0 ? ref.loss_sum / ref.loss_n : 0.0,
        "km");
  // build_s: the mean over the two cities of each city's median chain
  // time, so the figure does not jump between the two cities' modes.
  r.Put("build_s",
        0.5 * (MedianOf(ctx.builds, &BuildSample::chain_s, 0) +
               MedianOf(ctx.builds, &BuildSample::chain_s, 1)),
        "s");
  r.Put("opt_loss_km", MedianOf(ctx.builds, &BuildSample::opt_loss_km), "km");
  r.Put("peak_rss_mb", PeakRssMb(), "MB");

  // The p99 is printed but carries no bound: its run-to-run spread on a
  // shared host is wider than any bound the benchmark may set.
  std::vector<double> pooled(o.reference_latency_us.begin(),
                             o.reference_latency_us.end());
  const LatencySummary top = Summarize(pooled);
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "%zu samples in %zu windows at %.0f/s; p99 %.1f us per window "
      "(window quantile), pooled p99 %.1f us, pooled p%.4g %.1f us",
      top.count, o.reference.size(), ctx.params.Num("reference_rps"),
      OverReference(o, [](const Window& w) { return w.latency.p99; }, q),
      top.p99, top.top_q * 100.0, top.top);
  r.Fact("reference_latency", buf);
  for (size_t c = 0; c < o.climbs.size(); ++c) {
    std::string ladder;
    for (const RungResult& rung : o.climbs[c].rungs) {
      const std::vector<double>& retried = o.climbs[c].retried;
      std::snprintf(
          buf, sizeof(buf), "%s%.0f/s: n=%zu p99=%.1fus%s%s%s",
          ladder.empty() ? "" : "; ", rung.rate, rung.latency.count,
          rung.latency.p99, rung.backlog_grows ? " backlog-grows" : "",
          std::count(retried.begin(), retried.end(), rung.rate) > 0
              ? " retried"
              : "",
          RungPasses(rung, limit) ? "" : " FAIL");
      ladder += buf;
    }
    r.Fact("ladder_climb_" + std::to_string(c + 1), ladder);
  }
  r.Fact("builds", std::to_string(ctx.builds.size()));
}

// Self time per layer over one tree of spans: a span's duration minus the
// union of its children's intervals.
struct FlatSpan {
  std::string layer;
  uint64_t start = 0, end = 0;
  int parent = -1;
};

std::map<std::string, double> SelfMsByLayer(const std::vector<FlatSpan>& s) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i].parent >= 0) {
      kids[static_cast<size_t>(s[i].parent)].push_back({s[i].start, s[i].end});
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < s.size(); ++i) {
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    uint64_t covered = 0, run_start = 0, run_end = 0;
    bool open = false;
    for (const auto& [a, b] : k) {
      const uint64_t lo = std::max(a, s[i].start), hi = std::min(b, s[i].end);
      if (hi <= lo) continue;
      if (open && lo <= run_end) {
        run_end = std::max(run_end, hi);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = lo;
      run_end = hi;
      open = true;
    }
    if (open) covered += run_end - run_start;
    const uint64_t dur = s[i].end > s[i].start ? s[i].end - s[i].start : 0;
    out[s[i].layer] += static_cast<double>(dur - std::min(dur, covered)) / 1e6;
  }
  return out;
}

const char* ObsLayer(obs::SpanKind kind) {
  switch (kind) {
    case obs::SpanKind::kRequest:
    case obs::SpanKind::kQueueWait:
      return "service";
    case obs::SpanKind::kLpPricing:
    case obs::SpanKind::kLpRefactor:
    case obs::SpanKind::kLpSimplex:
      return "lp";
    case obs::SpanKind::kFallback:
      return "mechanisms";
    case obs::SpanKind::kAuditRegion:
    case obs::SpanKind::kAuditDrift:
      return "audit";
    default:
      return "core";
  }
}

// Obs spans of one request nest by interval containment: each span's
// parent is the smallest other span of the same request that contains it.
std::vector<FlatSpan> FlattenObs(const std::vector<obs::SpanEvent>& events) {
  std::vector<FlatSpan> out;
  std::map<uint64_t, std::vector<size_t>> by_request;
  for (size_t i = 0; i < events.size(); ++i) {
    by_request[events[i].request_id].push_back(i);
  }
  for (const auto& [id, idx] : by_request) {
    const size_t base = out.size();
    for (size_t i : idx) {
      out.push_back({ObsLayer(static_cast<obs::SpanKind>(events[i].kind)),
                     events[i].start_ticks, events[i].end_ticks, -1});
    }
    for (size_t a = base; a < out.size(); ++a) {
      uint64_t best = UINT64_MAX;
      for (size_t b = base; b < out.size(); ++b) {
        const uint64_t len = out[b].end - out[b].start;
        const bool contains = b != a && out[b].start <= out[a].start &&
                              out[a].end <= out[b].end &&
                              len > out[a].end - out[a].start;
        if (contains && len < best) {
          best = len;
          out[a].parent = static_cast<int>(b);
        }
      }
    }
  }
  return out;
}

// Chrome trace-event JSON (chrome://tracing, Perfetto): the benchmark's
// spans on tid 0, the service's obs spans of the reference phase on tid 1.
void WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::vector<obs::SpanEvent>& events) {
  std::ofstream f(path);
  if (!f) return;
  f << "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& name, uint64_t start, uint64_t end,
                  int tid, int parent, uint64_t request) {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":%d,"
                  "\"request\":%llu}}",
                  first ? "" : ",", name.c_str(), tid, start / 1e3,
                  (end > start ? end - start : 0) / 1e3, parent,
                  static_cast<unsigned long long>(request));
    f << buf;
    first = false;
  };
  for (const Span& s : spans) emit(s.name, s.start_ns, s.end_ns, 0, s.parent, 0);
  for (const obs::SpanEvent& e : events) {
    emit(std::string("obs.") +
             obs::SpanKindName(static_cast<obs::SpanKind>(e.kind)),
         e.start_ticks, e.end_ticks, 1, -1, e.request_id);
  }
  f << "]}\n";
}

// Per-layer figures measured outside the service in a traced run.
struct LayerProbes {
  std::vector<obs::SpanEvent> reference_events;  // obs spans, reference phase
  double internal_p99_us = 0.0;
  double walk_p50_ns = 0.0, walk_p99_ns = 0.0;
  double alias_draw_ns = 0.0;
  double trace_overhead = 0.0;
};

void PutPerLayer(Context& ctx, const ServeOutcome& o,
                 const std::vector<service::SanitizationService::RegionInfo>&
                     infos,
                 const service::MetricsSnapshot& snap,
                 const std::vector<double>& publish_ms,
                 const core::MsmStats& lp, const std::vector<double>& write_s,
                 const LayerProbes& probes) {
  RunResult& r = ctx.result;
  const ServeTotals t = Totals({&o.reference, &o.ladder});
  std::vector<double> submit(o.reference_submit_us.begin(),
                             o.reference_submit_us.end());
  std::vector<double> queue_wait;
  for (const obs::SpanEvent& e : probes.reference_events) {
    if (static_cast<obs::SpanKind>(e.kind) == obs::SpanKind::kQueueWait) {
      queue_wait.push_back(static_cast<double>(e.end_ticks - e.start_ticks) /
                           1e3);
    }
  }
  r.Put("service.submit_us.p50", Percentile(submit, 0.5), "us");
  r.Put("service.submit_us.p99", Percentile(submit, 0.99), "us");
  r.Put("service.queue_wait_us.p50", Percentile(queue_wait, 0.5), "us");
  r.Put("service.queue_wait_us.p99", Percentile(queue_wait, 0.99), "us");
  r.Put("service.internal_p99_us", probes.internal_p99_us, "us");
  r.Put("service.rejected_ratio", Ratio(t.rejected, t.attempted), "ratio");
  r.Put("service.fallbacks_deadline",
        static_cast<double>(snap.fallbacks_deadline), "count");
  r.Put("service.fallbacks_mechanism",
        static_cast<double>(snap.fallbacks_mechanism), "count");
  r.Put("service.registry_publish_ms.p50", Percentile(publish_ms, 0.5), "ms");
  r.Put("service.registry_publish_ms.max", Percentile(publish_ms, 1.0), "ms");

  int64_t plan_levels = 0, fall_levels = 0, plans = 0;
  uint64_t evictions = 0, waits = 0;
  double hit_rate = 0.0;
  for (const auto& info : infos) {
    plan_levels += info.msm.plan_levels;
    fall_levels += info.msm.fallthrough_levels;
    plans += info.msm.plan_builds;
    evictions += info.cache_evictions;
    waits += info.singleflight_waits;
    hit_rate += info.cache_hit_rate / static_cast<double>(infos.size());
  }
  r.Put("core.walk_ns.p50", probes.walk_p50_ns, "ns");
  r.Put("core.walk_ns.p99", probes.walk_p99_ns, "ns");
  r.Put("core.plan_level_share",
        Ratio(static_cast<uint64_t>(plan_levels),
              static_cast<uint64_t>(plan_levels + fall_levels)),
        "ratio");
  r.Put("core.cache_hit_rate", hit_rate, "ratio");
  r.Put("core.cache_evictions", static_cast<double>(evictions), "count");
  r.Put("core.singleflight_waits", static_cast<double>(waits), "count");
  r.Put("core.plan_builds", static_cast<double>(plans), "count");

  r.Put("lp.solves", static_cast<double>(lp.lp_solves), "count");
  r.Put("lp.seconds", lp.lp_seconds, "s");
  r.Put("lp.pricing_s", lp.lp_pricing_seconds, "s");
  r.Put("lp.simplex_s", lp.lp_simplex_seconds, "s");
  r.Put("lp.refactor_s", lp.lp_refactor_seconds, "s");
  r.Put("lp.violations", static_cast<double>(lp.lp_violations_found), "count");
  r.Put("lp.ms_per_solve",
        lp.lp_solves > 0 ? lp.lp_seconds * 1e3 / lp.lp_solves : 0.0, "ms");
  r.Put("rng.alias_draw_ns", probes.alias_draw_ns, "ns");

  std::vector<double> bytes, nodes;
  double max_violation = 0.0;
  for (const BuildSample& b : ctx.builds) {
    bytes.push_back(static_cast<double>(b.bytes));
    nodes.push_back(static_cast<double>(b.audit_nodes));
    max_violation = std::max(max_violation, b.max_violation);
  }
  r.Put("bundle.write_s", Median(write_s), "s");
  r.Put("bundle.open_ms", MedianOf(ctx.builds, &BuildSample::open_ms), "ms");
  r.Put("bundle.rehydrate_ms",
        MedianOf(ctx.builds, &BuildSample::rehydrate_ms), "ms");
  r.Put("bundle.bytes", Median(bytes), "B");
  r.Put("audit.region_ms", MedianOf(ctx.builds, &BuildSample::audit_ms), "ms");
  r.Put("audit.nodes", Median(nodes), "count");
  r.Put("audit.runs", static_cast<double>(snap.audit_runs), "count");
  r.Put("audit.seconds", snap.audit_seconds, "s");
  r.Put("audit.tasks_rejected", static_cast<double>(snap.audit_tasks_rejected),
        "count");
  r.Put("audit.max_violation", max_violation, "ratio");
  r.Put("audit.tolerance", ctx.tolerance, "ratio");
  r.Put("data.generate_s", Median(ctx.generate_s), "s");
  r.Put("obs.trace_overhead", probes.trace_overhead, "ratio");
  r.Put("gen.lag_us.p99",
        OverReference(o, [](const Window& w) { return w.lag_p99_us; }, 0.5),
        "us");

  // Self time per layer: the benchmark's spans (layer = name prefix) and
  // the obs spans of the reference phase, each tree on its own.
  std::vector<FlatSpan> flat;
  for (const Span& s : ctx.spans.spans()) {
    flat.push_back({s.name.substr(0, s.name.find('.')), s.start_ns, s.end_ns,
                    s.parent});
  }
  std::map<std::string, double> self = SelfMsByLayer(flat);
  for (const auto& [layer, ms] :
       SelfMsByLayer(FlattenObs(probes.reference_events))) {
    self[layer] += ms;
  }
  for (const char* layer :
       {"data", "bundle", "audit", "core", "lp", "mechanisms", "service"}) {
    r.Put(std::string("self_ms.") + layer, self[layer], "ms");
  }
}

// ---------------------------------------------------------------------------
// The workloads.

enum class Kind { kWarm, kChurn, kBuild };

struct Run {
  Run(Context& c, Kind k) : ctx(c), kind(k) {}

  Context& ctx;
  const Kind kind;
  std::vector<City> cities;  // per city: the bundle-backed region's data
  // Every region the service serves: `cities` first, then serve_churn's
  // further datasets. A query's region indexes this list.
  std::vector<City> served_cities;
  std::vector<std::vector<City>> rep_cities;  // build_region: every rep's
  std::vector<std::string> paths;             // their bundles
  std::vector<Query> queries;
  std::unique_ptr<service::SanitizationService> svc;

  const Params& params() const { return ctx.params; }

  std::unique_ptr<service::SanitizationService> MakeService(bool traced) {
    service::ServiceOptions so;
    so.num_workers = kWorkers;
    so.queue_capacity = kQueueCapacity;
    so.seed = Mix(ctx.options.seed, 99);
    if (traced) {
      so.trace.sample_one_in = 1;
      so.trace.ring_capacity = 1 << 15;  // holds the reference phase
      so.trace.num_rings = 4;
    }
    if (kind == Kind::kChurn) {
      so.auditor.cadence_seconds = params().Num("audit_cadence_s");
    }
    return Take(service::SanitizationService::Create(so), "service");
  }

  void LoadBundles(service::SanitizationService& s) const {
    for (int c = 0; c < kCities; ++c) {
      const geopriv::Status st =
          s.LoadRegionFromBundle(kCityIds[c], paths[static_cast<size_t>(c)]);
      if (!st.ok()) SetupError("LoadRegionFromBundle", st);
    }
  }

  // Lazily built regions (no prewarm) over a cache budget below their
  // working set, plus the replica loaded from the first city's bundle.
  void RegisterChurnRegions() {
    for (const City& city : served_cities) {
      const bundle::RegionSpec spec = SpecFor(city, params());
      service::RegionConfig rc;
      rc.min_lat = spec.min_lat;
      rc.min_lon = spec.min_lon;
      rc.max_lat = spec.max_lat;
      rc.max_lon = spec.max_lon;
      rc.eps = spec.eps;
      rc.granularity = params().Int("served_granularity");
      rc.rho = spec.rho;
      rc.prior_granularity = spec.prior_granularity;
      rc.checkins = spec.checkins;
      rc.lp_time_limit_seconds = params().Num("lp_time_limit_s");
      rc.cache_byte_budget =
          static_cast<size_t>(params().Num("cache_byte_budget"));
      const geopriv::Status st = svc->RegisterRegion(city.id, rc);
      if (!st.ok()) SetupError("RegisterRegion", st);
    }
    const geopriv::Status st = svc->LoadRegionFromBundle(kReplicaId, paths[0]);
    if (!st.ok()) SetupError("LoadRegionFromBundle replica", st);
  }

  std::vector<Query> MakeQueryPool() const {
    return MakeQueries(served_cities, kQueryPool, Mix(ctx.options.seed, 7));
  }

  // Set-up, repeated kSetupReps times; each repetition draws its own
  // check-ins, so set-up and build times average over several datasets of
  // the seed. The last repetition's state is kept.
  void SetUp() {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      ScopedSpan rep_span(ctx.spans, "setup.rep");
      svc.reset();
      const uint64_t t0 = Now();
      cities.clear();
      {
        ScopedSpan span(ctx.spans, "data.generate");
        const uint64_t g0 = Now();
        const int datasets = kind == Kind::kChurn ? kChurnDatasets : 1;
        served_cities.clear();
        for (int d = 0; d < datasets; ++d) {
          for (int c = 0; c < kCities; ++c) {
            const uint64_t salt = static_cast<uint64_t>(16 * rep + 2 * d + c);
            served_cities.push_back(
                GenerateCity(c, Mix(ctx.options.seed, salt), d));
          }
        }
        cities.assign(served_cities.begin(), served_cities.begin() + kCities);
        ctx.generate_s.push_back(Seconds(g0, Now()));
      }
      queries = MakeQueryPool();
      paths.clear();
      if (kind == Kind::kBuild) {
        rep_cities.push_back(cities);  // built in the timed phase
      } else {
        ThreadPool pool(kBuildPoolThreads, 1024);
        ctx.UseThreads(1 + kBuildPoolThreads);
        for (int c = 0; c < kCities; ++c) {
          paths.push_back(ctx.BundlePath(kCityIds[c]));
          if (!BuildChain(ctx, cities[static_cast<size_t>(c)], c, &pool,
                          paths.back())) {
            throw std::runtime_error("set-up build failed");
          }
        }
        svc = MakeService(ctx.options.trace);
        ScopedSpan span(ctx.spans, "service.register");
        if (kind == Kind::kWarm) {
          LoadBundles(*svc);
        } else {
          RegisterChurnRegions();
        }
      }
      ctx.setup_s.push_back(Seconds(t0, Now()));
    }
  }

  // build_region's timed build phase: the cities alternate and cycle
  // through every set-up repetition's check-ins, each into a bundle of its
  // own. The regions served afterwards are the first repetition's, so what
  // is served does not depend on how many builds fit in the time.
  void BuildPhase(double seconds) {
    ScopedSpan span(ctx.spans, "build.phase");
    ThreadPool pool(kBuildPoolThreads, 1024);
    ctx.UseThreads(1 + kBuildPoolThreads);
    auto path = [&](size_t v, size_t c) {
      return ctx.BundlePath(std::string(kCityIds[c]) + "." + std::to_string(v));
    };
    const uint64_t end = Now() + static_cast<uint64_t>(seconds * 1e9);
    for (int k = 0; k < kCities || Now() < end; ++k) {
      const size_t c = static_cast<size_t>(k % kCities);
      const size_t v = static_cast<size_t>(k / kCities) % rep_cities.size();
      if (!BuildChain(ctx, rep_cities[v][c], static_cast<int>(c), &pool,
                      path(v, c))) {
        throw std::runtime_error("build chain failed");
      }
    }
    paths = {path(0, 0), path(0, 1)};
    cities = rep_cities[0];
    rep_cities.clear();
    served_cities = cities;
    queries = MakeQueryPool();
    svc = MakeService(ctx.options.trace);
    LoadBundles(*svc);
  }

  // Direct probes of single layers after the serving phase (traced runs).
  void ProbeLayers(const Served& served, const IdentityOutcome& identity,
                   LayerProbes& probes) {
    {
      // Walk cost outside the service, on the bundle-loaded sanitizers.
      ScopedSpan span(ctx.spans, "core.direct_walk");
      geopriv::rng::Rng rng(Mix(ctx.options.seed, 5));
      std::vector<double> walk_ns;
      walk_ns.reserve(kWalkQueries);
      for (const Query& q : queries) {
        if (walk_ns.size() == kWalkQueries) break;
        // serve_churn's further datasets have no bundle-loaded twin.
        if (static_cast<size_t>(q.region) >= identity.loaded.size()) continue;
        const core::LocationSanitizer& s =
            identity.loaded[static_cast<size_t>(q.region)]->sanitizer;
        const uint64_t t0 = Now();
        const bool ok = s.SanitizeLatLonOrStatus(q.loc.lat, q.loc.lon, rng).ok();
        walk_ns.push_back(static_cast<double>(Now() - t0));
        if (!ok) ctx.result.Fail("direct walk failed");
      }
      probes.walk_p50_ns = Percentile(walk_ns, 0.5);
      probes.walk_p99_ns = Percentile(walk_ns, 0.99);
    }
    {
      // Alias draws over every row table stored in the first city's bundle.
      ScopedSpan span(ctx.spans, "rng.alias_draw");
      const bundle::RegionBundleView view =
          Take(bundle::RegionBundleView::Open(paths[0], true), "open bundle");
      std::vector<geopriv::rng::AliasSampler> rows;
      for (size_t i = 0; i < view.node_count(); ++i) {
        const auto node = Take(view.node(i), "bundle node");
        const size_t n = static_cast<size_t>(node.n);
        for (size_t row = 0; row < n; ++row) {
          rows.push_back(geopriv::rng::AliasSampler::FromTables(
              node.alias_prob.subspan(row * n, n),
              node.alias_alias.subspan(row * n, n),
              node.alias_normalized.subspan(row * n, n)));
        }
      }
      geopriv::rng::Rng rng(Mix(ctx.options.seed, 6));
      size_t sum = 0;
      const uint64_t t0 = Now();
      for (size_t i = 0; i < kAliasDraws; ++i) {
        sum += rows[i % rows.size()].Sample(rng);
      }
      probes.alias_draw_ns =
          static_cast<double>(Now() - t0) / static_cast<double>(kAliasDraws);
      volatile size_t sink = sum;  // keeps the draws from being elided
      (void)sink;
    }
    {
      // Tracing overhead: untraced and traced services over the same
      // bundles at the reference rate, one window each in ABBA order.
      std::vector<double> off, on;
      const int windows = std::clamp(
          static_cast<int>(kOverheadSeconds /
                           params().Num("reference_window_s")),
          2, 20);
      for (int k = 0; k < 2 * windows; ++k) {
        const bool traced = (k % 2 == 1) == (k / 2 % 2 == 0);
        std::unique_ptr<service::SanitizationService> s = MakeService(traced);
        LoadBundles(*s);
        Served o = served;
        o.svc = s.get();
        // Only the cities' bundles are loaded here: serve_churn's further
        // datasets go to their city's region.
        for (size_t r = 0; r < o.ids.size(); ++r) {
          o.ids[r] = kCityIds[r % kCities];
        }
        o.deadline_ms = 0.0;
        o.cursor = static_cast<size_t>(k) * 4096;
        const Window w = RunWindow(
            ctx, o, params().Num("reference_rps"),
            params().Num("reference_window_s"),
            Mix(ctx.options.seed, 3000 + static_cast<uint64_t>(k)));
        (traced ? on : off).push_back(w.latency.p50);
      }
      probes.trace_overhead = Median(on) / std::max(1e-9, Median(off));
    }
  }

  void Execute() {
    SetUp();
    double serve_seconds = ctx.options.seconds;
    if (kind == Kind::kBuild) {
      const double build_seconds = ctx.options.seconds * kBuildShare;
      serve_seconds -= build_seconds;
      BuildPhase(build_seconds);
    }
    // Generator + workers, plus the auditor and the registry writer on
    // churn.
    ctx.UseThreads(1 + kWorkers +
                   (kind == Kind::kChurn ? 2 : 0));

    Served served;
    served.svc = svc.get();
    served.queries = &queries;
    for (const City& city : served_cities) {
      served.ids.push_back(city.id);
      const auto info = Take(svc->GetRegionInfo(city.id), "GetRegionInfo");
      served.geometry.push_back(
          GeometryFor(city.bounds, info.leaf_cells_per_axis));
    }
    std::unique_ptr<ReplicaChurn> replica;
    if (kind == Kind::kChurn) {
      served.deadline_ms = params().Num("deadline_ms");
      replica = std::make_unique<ReplicaChurn>(
          *svc, paths[0], params().Num("reload_period_ms") / 1e3);
    }
    LayerProbes probes;
    const ServeOutcome outcome =
        ServePhase(ctx, served, serve_seconds, [&](const ServeOutcome& o) {
          if (svc->trace_recorder() == nullptr) return;
          // The rings hold the most recent spans; keep those that fall
          // inside the reference windows.
          const uint64_t begin = o.reference.front().start_ns;
          const uint64_t end = o.reference.back().end_ns;
          for (const obs::SpanEvent& e : svc->trace_recorder()->Snapshot()) {
            if (e.start_ticks >= begin && e.end_ticks <= end) {
              probes.reference_events.push_back(e);
            }
          }
          // The service's own histogram over the reference windows. The
          // snapshot's buckets are cumulative; QuantileFromBuckets wants
          // per-bucket counts.
          service::LatencyHistogram::BucketCounts counts{};
          for (const Window& w : o.reference) {
            uint64_t below = 0;
            for (size_t b = 0; b < counts.size(); ++b) {
              const uint64_t cum = w.buckets_after[b] - w.buckets_before[b];
              counts[b] += cum - below;
              below = cum;
            }
          }
          probes.internal_p99_us =
              service::LatencyHistogram::QuantileFromBuckets(counts, 0.99) *
              1e6;
        });

    std::vector<double> publish_ms;
    uint64_t reload_failures = 0;
    if (replica) {
      replica->Stop();
      for (const auto& [start, end] : replica->reloads()) {
        ctx.spans.Add("service.reload_replica", start, end);
        publish_ms.push_back(Seconds(start, end) * 1e3);
      }
      reload_failures = replica->failures();
      replica.reset();
    }

    // ---- Checks, outside the timed phase. -------------------------------
    RunResult& r = ctx.result;
    const ServeTotals totals = Totals({&outcome.reference, &outcome.ladder});
    r.attempted += totals.attempted + publish_ms.size();
    r.failed += totals.rejected + totals.failed + reload_failures;
    if (totals.off_grid > 0) {
      r.Fail(std::to_string(totals.off_grid) +
             " OK replies off the region's leaf grid or box");
    }
    if (reload_failures > 0) {
      r.Fail("replica unregister/reload failed " +
             std::to_string(reload_failures) + " times");
    }
    std::vector<service::SanitizationService::RegionInfo> infos;
    for (const City& city : served_cities) {
      infos.push_back(Take(svc->GetRegionInfo(city.id), "GetRegionInfo"));
      if (!svc->AuditRegionNow(city.id).ok()) {
        r.Fail("AuditRegionNow " + city.id);
      }
      const ServedAudit audit = LastServedAudit(*svc, city.id);
      if (audit.audited_nodes == 0) {
        r.Fail("the audit of served region " + city.id + " covered no node");
      }
      CheckViolation(ctx, "served region " + city.id, audit.max_violation);
    }
    const service::MetricsSnapshot snap = svc->metrics().Snapshot();
    svc.reset();  // its workers stop before the check pool starts
    const IdentityOutcome identity = CheckIdentity(ctx, cities, paths, queries);
    LabelServing(ctx, outcome);
    double max_violation = 0.0;
    for (const BuildSample& b : ctx.builds) {
      max_violation = std::max(max_violation, b.max_violation);
    }
    char raw[32];
    std::snprintf(raw, sizeof(raw), "%.17g", max_violation);
    r.Fact("bundle_max_violation", raw);

    if (!ctx.options.trace) {
      PutEndToEnd(ctx, outcome);
      return;
    }
    ProbeLayers(served, identity, probes);
    // LP work: on churn, what the lazily registered regions solved on the
    // request path; elsewhere the solve count and time of every bundle
    // build, with the phase split of the scratch builds (the same LPs).
    core::MsmStats lp;
    if (kind == Kind::kChurn) {
      for (const auto& info : infos) AddLp(lp, info.msm);
    } else {
      lp = identity.scratch_stats;
      lp.lp_solves = 0;
      lp.lp_seconds = 0.0;
      for (const BuildSample& b : ctx.builds) {
        lp.lp_solves += b.lp_solves;
        lp.lp_seconds += b.lp_s;
      }
    }
    PutPerLayer(ctx, outcome, infos, snap, publish_ms, lp, identity.write_s,
                probes);
    if (!ctx.options.trace_out.empty()) {
      WriteChromeTrace(ctx.options.trace_out, ctx.spans.spans(),
                       probes.reference_events);
    }
  }
};

}  // namespace

RunResult RunWorkload(const RunOptions& options, const Params& params) {
  Kind kind;
  if (options.workload == "serve_warm") {
    kind = Kind::kWarm;
  } else if (options.workload == "serve_churn") {
    kind = Kind::kChurn;
  } else if (options.workload == "build_region") {
    kind = Kind::kBuild;
  } else {
    throw std::runtime_error("unknown workload " + options.workload);
  }
  Context ctx(options, params);
  Run(ctx, kind).Execute();

  const int cores = CoresAvailable();
  if (ctx.max_threads > cores) {
    ctx.result.invalid_reasons.push_back(
        "uses " + std::to_string(ctx.max_threads) + " threads on " +
        std::to_string(cores) + " cores");
  }
  RunResult& r = ctx.result;
  r.Fact("nproc", std::to_string(cores));
  r.Fact("build_type", PERFBENCH_BUILD_TYPE);
  r.Fact("march_native", PERFBENCH_MARCH_NATIVE ? "on" : "off");
  r.Fact("compiler", PERFBENCH_COMPILER);
  r.Fact("threads_used", std::to_string(ctx.max_threads));
  r.Fact("valid", r.invalid_reasons.empty() ? "yes" : "no");
  return r;
}

}  // namespace perfbench
