// Statistics of the benchmark harness, kept free of any geopriv
// dependency so tests/stats_test.cc can pin them down in isolation:
//
//  * percentiles over latency samples in which a missed request (rejected
//    at admission or failed) counts as an infinitely slow sample, so a miss
//    always breaks a latency limit;
//  * the highest percentile a sample supports: at least ten samples must
//    lie beyond it;
//  * the open-loop schedule: Poisson arrivals fixed before timing starts,
//    and latency measured from the moment a request was *due*, not from
//    when the generator got round to sending it (no coordinated omission);
//  * the rate ladder: a rung passes when its p99 meets the latency limit
//    and its backlog does not grow; a failing rung is measured once more,
//    and the ladder's result is the highest rate reached before the first
//    rung that fails twice;
//  * per-window figures: percentiles are taken in short windows and
//    combined across windows at a fixed quantile (WindowQuantile).

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace perfbench {

inline constexpr double kMissLatency = std::numeric_limits<double>::infinity();
// A percentile is reportable only with at least this many samples beyond it.
inline constexpr size_t kMinSamplesBeyond = 10;

// Nearest-rank percentile (q in [0, 1]) of an ascending-sorted sample; 0
// for an empty sample.
inline double PercentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Samples strictly beyond percentile q in a sample of n.
inline size_t SamplesBeyond(size_t n, double q) {
  const double beyond = std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9);
  return beyond <= 0.0 ? 0 : static_cast<size_t>(beyond);
}

inline bool PercentileSupported(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinSamplesBeyond;
}

// The highest of p50, p90, p99, p99.9, p99.99 that a sample of n
// supports; 0 when not even the median has ten samples beyond it.
inline double HighestReportablePercentile(size_t n) {
  static constexpr double kLadder[] = {0.5, 0.9, 0.99, 0.999, 0.9999};
  double best = 0.0;
  for (double q : kLadder) {
    if (PercentileSupported(n, q)) best = q;
  }
  return best;
}

struct LatencySummary {
  size_t count = 0;  // samples, misses included
  size_t misses = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double top_q = 0.0;  // highest reportable percentile (0 = none)
  double top = 0.0;    // its value
};

// `latencies` holds one entry per attempted request; misses carry
// kMissLatency. The vector is sorted in place.
inline LatencySummary Summarize(std::vector<double>& latencies) {
  std::sort(latencies.begin(), latencies.end());
  LatencySummary s;
  s.count = latencies.size();
  s.misses = static_cast<size_t>(
      std::count(latencies.begin(), latencies.end(), kMissLatency));
  s.p50 = PercentileSorted(latencies, 0.50);
  s.p90 = PercentileSorted(latencies, 0.90);
  s.p99 = PercentileSorted(latencies, 0.99);
  s.top_q = HighestReportablePercentile(s.count);
  s.top = s.top_q > 0.0 ? PercentileSorted(latencies, s.top_q) : 0.0;
  return s;
}

// Poisson arrival offsets (ns from the start of a window) for `count`
// requests at `rate_per_s`, deterministic in `seed`.
inline std::vector<uint64_t> PoissonSchedule(double rate_per_s, size_t count,
                                             uint64_t seed) {
  std::mt19937_64 engine(seed);
  std::exponential_distribution<double> gap(rate_per_s);
  std::vector<uint64_t> due(count);
  double t = 0.0;
  for (size_t i = 0; i < count; ++i) {
    t += gap(engine);
    due[i] = static_cast<uint64_t>(t * 1e9);
  }
  return due;
}

// Latency of one request in microseconds, timed from when it was due.
// `done_ns` is when its reply arrived; a request that never got a reply
// is a miss. A generator that sent late still charges the lateness to the
// request, which is what keeps a stall from hiding the requests queued
// behind it.
inline double DueLatencyUs(uint64_t due_ns, uint64_t done_ns, bool missed) {
  if (missed) return kMissLatency;
  return done_ns <= due_ns ? 0.0 : static_cast<double>(done_ns - due_ns) / 1e3;
}

// Backlog (requests submitted but not yet answered) sampled at even
// intervals over one rung. It grows when the mean of the last quarter of
// the samples exceeds the mean of the first quarter by more than
// max(min_growth, growth_share * arrivals): a stable system holds a
// backlog near rate * latency however long the rung runs, an overloaded
// one adds (rate - capacity) requests every second.
inline bool BacklogGrows(const std::vector<double>& samples, double arrivals,
                         double min_growth, double growth_share) {
  if (samples.size() < 4) return false;
  const size_t quarter = samples.size() / 4;
  double first = 0.0, last = 0.0;
  for (size_t i = 0; i < quarter; ++i) {
    first += samples[i];
    last += samples[samples.size() - 1 - i];
  }
  first /= static_cast<double>(quarter);
  last /= static_cast<double>(quarter);
  return last - first > std::max(min_growth, growth_share * arrivals);
}

struct RungResult {
  double rate = 0.0;
  LatencySummary latency;  // microseconds, misses as kMissLatency
  bool backlog_grows = false;
};

// The q-quantile (q in [0, 1]) of a small set of per-window figures, by
// linear interpolation between order statistics.
inline double WindowQuantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

// One rung from its sub-windows: the q-quantile of their percentiles, and
// backlog growth only when more than a (1 - q) share of them grew. With
// q = 0.25 a rung passes when a quarter of its sub-windows pass on their
// own: on a shared host a vCPU can stall for milliseconds several times a
// second, which spoils some windows at any rate, while a rate beyond
// capacity spoils them all.
inline RungResult CombineRung(double rate,
                              const std::vector<LatencySummary>& windows,
                              const std::vector<bool>& grows, double q) {
  RungResult rung;
  rung.rate = rate;
  std::vector<double> p50, p99;
  for (const LatencySummary& w : windows) {
    rung.latency.count += w.count;
    rung.latency.misses += w.misses;
    p50.push_back(w.p50);
    p99.push_back(w.p99);
  }
  rung.latency.p50 = WindowQuantile(p50, q);
  rung.latency.p99 = WindowQuantile(p99, q);
  const double grew =
      static_cast<double>(std::count(grows.begin(), grows.end(), true));
  rung.backlog_grows =
      !grows.empty() && grew > (1.0 - q) * static_cast<double>(grows.size());
  return rung;
}

inline bool RungPasses(const RungResult& rung, double p99_limit_us) {
  return rung.latency.count > 0 && rung.latency.p99 <= p99_limit_us &&
         !rung.backlog_grows;
}

// Measures the rungs of `rates` (ascending) in order with
// run_rung(index, attempt) -> RungResult. A rung that fails is measured
// once more: a burst of host stalls can spoil every sub-window of one
// rung, but not of two in a row, while a rate beyond capacity fails both.
// The ladder stops at the first rung that fails twice. Returns the last
// measurement of each rung run; `retried` (may be null) collects the rates
// that failed once.
template <typename RunRung>
std::vector<RungResult> ClimbLadder(const std::vector<double>& rates,
                                    double p99_limit_us, RunRung run_rung,
                                    std::vector<double>* retried) {
  std::vector<RungResult> rungs;
  for (size_t k = 0; k < rates.size(); ++k) {
    RungResult rung = run_rung(k, 0);
    if (!RungPasses(rung, p99_limit_us)) {
      if (retried != nullptr) retried->push_back(rates[k]);
      rung = run_rung(k, 1);
    }
    rungs.push_back(rung);
    if (!RungPasses(rung, p99_limit_us)) break;
  }
  return rungs;
}

// Highest rate before the first failing rung (rungs in ascending rate
// order); 0 when the first rung already fails.
inline double MaxPassingRate(const std::vector<RungResult>& rungs,
                             double p99_limit_us) {
  double best = 0.0;
  for (const RungResult& rung : rungs) {
    if (!RungPasses(rung, p99_limit_us)) break;
    best = rung.rate;
  }
  return best;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
