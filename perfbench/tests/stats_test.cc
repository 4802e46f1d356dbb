// Tests of the harness's own statistics (src/stats.h).

#include "stats.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace perfbench {
namespace {

TEST(ReportablePercentile, NeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(PercentileSupported(1000, 0.99));
  EXPECT_FALSE(PercentileSupported(999, 0.99));
  EXPECT_FALSE(PercentileSupported(9999, 0.999));
  EXPECT_TRUE(PercentileSupported(10000, 0.999));
}

TEST(ReportablePercentile, HighestOnTheLadder) {
  EXPECT_EQ(HighestReportablePercentile(10), 0.0);
  EXPECT_EQ(HighestReportablePercentile(20), 0.5);
  EXPECT_EQ(HighestReportablePercentile(100), 0.9);
  EXPECT_EQ(HighestReportablePercentile(999), 0.9);
  EXPECT_EQ(HighestReportablePercentile(1000), 0.99);
  EXPECT_EQ(HighestReportablePercentile(10000), 0.999);
  EXPECT_EQ(HighestReportablePercentile(100000), 0.9999);
}

TEST(Percentiles, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(PercentileSorted(v, 0.5), 50.0);
  EXPECT_EQ(PercentileSorted(v, 0.99), 99.0);
  EXPECT_EQ(PercentileSorted(v, 1.0), 100.0);
  EXPECT_EQ(PercentileSorted({}, 0.5), 0.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(DueTime, GeneratorLatenessIsCharged) {
  // A request due at t=1000 us, sent late at t=6000 us by a stalled
  // generator, answered 10 us after sending: its latency is 5010 us, not
  // the 10 us a send-time clock would report.
  const uint64_t due = 1000000, done = 6010000;
  EXPECT_DOUBLE_EQ(DueLatencyUs(due, done, /*missed=*/false), 5010.0);
}

TEST(DueTime, StallShowsInTheTail) {
  // 1000 requests due every 100 us; the generator stalls for 5 ms at
  // request 500 and then sends the 50 overdue requests at once. Timed
  // from due, all 50 are slow and the p99 sees the stall; timed from
  // send, they would all read 10 us.
  std::vector<double> lat;
  for (uint64_t i = 0; i < 1000; ++i) {
    const uint64_t due = i * 100000;
    uint64_t sent = due;
    if (i >= 500 && i < 550) sent = 550 * 100000;
    lat.push_back(DueLatencyUs(due, sent + 10000, false));
  }
  const LatencySummary s = Summarize(lat);
  EXPECT_DOUBLE_EQ(s.p50, 10.0);
  EXPECT_GT(s.p99, 4000.0);
}

TEST(DueTime, PoissonScheduleIsSeededAndIncreasing) {
  const std::vector<uint64_t> a = PoissonSchedule(1000.0, 5000, 7);
  const std::vector<uint64_t> b = PoissonSchedule(1000.0, 5000, 7);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, PoissonSchedule(1000.0, 5000, 8));
  for (size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i], a[i - 1]);
  // Mean gap 1 ms: 5000 arrivals take about 5 s.
  EXPECT_NEAR(static_cast<double>(a.back()) / 1e9, 5.0, 0.25);
}

TEST(Misses, RejectedAndFailedRequestsBreakTheLimit) {
  // 2% of requests missed (rejected or failed): the p99 is a miss, so the
  // rung fails any latency limit even though every reply was fast.
  std::vector<double> lat(1000, 10.0);
  for (int i = 0; i < 20; ++i) lat[static_cast<size_t>(i)] = DueLatencyUs(0, 0, true);
  const LatencySummary s = Summarize(lat);
  EXPECT_EQ(s.misses, 20u);
  EXPECT_EQ(s.p99, kMissLatency);
  RungResult rung;
  rung.rate = 1000;
  rung.latency = s;
  EXPECT_FALSE(RungPasses(rung, 1e9));
}

TEST(Misses, FewMissesStayBelowThePercentile) {
  std::vector<double> lat(1000, 10.0);
  for (int i = 0; i < 5; ++i) lat[static_cast<size_t>(i)] = kMissLatency;
  EXPECT_EQ(Summarize(lat).p99, 10.0);
}

TEST(Backlog, StableBacklogDoesNotGrow) {
  std::vector<double> samples(64, 40.0);
  samples[10] = 300.0;  // a transient burst drains again
  EXPECT_FALSE(BacklogGrows(samples, 10000, 64, 0.02));
}

TEST(Backlog, LinearGrowthIsDetected) {
  // Overload: arrivals exceed capacity, the backlog climbs all window.
  std::vector<double> samples;
  for (int i = 0; i < 64; ++i) samples.push_back(50.0 * i);
  EXPECT_TRUE(BacklogGrows(samples, 10000, 64, 0.02));
}

TEST(Backlog, GrowthBelowThresholdIsNoise) {
  std::vector<double> samples;
  for (int i = 0; i < 64; ++i) samples.push_back(40.0 + i / 2.0);
  EXPECT_FALSE(BacklogGrows(samples, 100000, 64, 0.02));
  EXPECT_FALSE(BacklogGrows({1.0, 1000.0, 5000.0}, 10, 1, 0.0));  // < 4
}

RungResult Rung(double rate, double p99, bool grows) {
  RungResult r;
  r.rate = rate;
  r.latency.count = 1000;
  r.latency.p99 = p99;
  r.backlog_grows = grows;
  return r;
}

TEST(Ladder, HighestRateBeforeFirstFailure) {
  const double limit = 500.0;
  EXPECT_EQ(MaxPassingRate({Rung(100, 50, false), Rung(200, 80, false),
                            Rung(400, 900, false), Rung(800, 60, false)},
                           limit),
            200.0);
  // A growing backlog fails a rung even when its p99 is under the limit.
  EXPECT_EQ(MaxPassingRate({Rung(100, 50, false), Rung(200, 80, true)}, limit),
            100.0);
  EXPECT_EQ(MaxPassingRate({Rung(100, 600, false)}, limit), 0.0);
  EXPECT_EQ(MaxPassingRate({}, limit), 0.0);
}

TEST(Ladder, AFailingRungIsMeasuredOnceMore) {
  const double limit = 500.0;
  const std::vector<double> rates = {100, 200, 400, 800};
  // Rung 1 is spoiled once by host stalls; rung 2 fails twice.
  std::vector<std::pair<size_t, int>> calls;
  std::vector<double> retried;
  const std::vector<RungResult> rungs = ClimbLadder(
      rates, limit,
      [&](size_t k, int attempt) {
        calls.push_back({k, attempt});
        const bool spoiled = (k == 1 && attempt == 0) || k == 2;
        return Rung(rates[k], spoiled ? 900.0 : 50.0, false);
      },
      &retried);
  const std::vector<std::pair<size_t, int>> expected = {
      {0, 0}, {1, 0}, {1, 1}, {2, 0}, {2, 1}};
  EXPECT_EQ(calls, expected);
  EXPECT_EQ(retried, (std::vector<double>{200, 400}));
  ASSERT_EQ(rungs.size(), 3u);  // the last attempt of each rung run
  EXPECT_EQ(MaxPassingRate(rungs, limit), 200.0);
  // A first rung that fails twice gives 0.
  EXPECT_EQ(MaxPassingRate(ClimbLadder(
                               rates, limit,
                               [&](size_t k, int) {
                                 return Rung(rates[k], 0.0, true);
                               },
                               nullptr),
                           limit),
            0.0);
}

TEST(Ladder, WindowQuantileInterpolates) {
  EXPECT_EQ(WindowQuantile({}, 0.25), 0.0);
  EXPECT_EQ(WindowQuantile({7.0}, 0.25), 7.0);
  EXPECT_EQ(WindowQuantile({4.0, 1.0, 3.0, 2.0, 5.0}, 0.25), 2.0);
  EXPECT_EQ(WindowQuantile({4.0, 1.0, 3.0, 2.0, 5.0}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(WindowQuantile({1.0, 2.0}, 0.25), 1.25);
}

TEST(Ladder, CombineRungAtTheWindowQuantile) {
  LatencySummary quiet, stalled;
  quiet.count = stalled.count = 1000;
  quiet.p99 = 40.0;
  stalled.p99 = 5000.0;
  // Host stalls spoil some sub-windows: a quiet quarter still passes.
  RungResult r = CombineRung(100, {stalled, quiet, stalled, stalled, quiet},
                             {true, false, true, true, false}, 0.25);
  EXPECT_EQ(r.latency.count, 5000u);
  EXPECT_EQ(r.latency.p99, 40.0);
  EXPECT_FALSE(r.backlog_grows);
  EXPECT_TRUE(RungPasses(r, 500));
  // Overload spoils them all.
  r = CombineRung(100, {stalled, stalled, stalled, stalled, quiet},
                  {true, true, true, true, true}, 0.25);
  EXPECT_EQ(r.latency.p99, 5000.0);
  EXPECT_TRUE(r.backlog_grows);
  EXPECT_FALSE(RungPasses(r, 500));
  // At q = 0.5 the same rung is a median and a majority vote.
  r = CombineRung(100, {quiet, stalled, quiet}, {false, true, false}, 0.5);
  EXPECT_EQ(r.latency.p99, 40.0);
  EXPECT_FALSE(r.backlog_grows);
}

}  // namespace
}  // namespace perfbench
