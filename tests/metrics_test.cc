// Tests for the service metrics surface: the stable JSON key schema
// (kMetricsJsonKeys / kRegionMetricsJsonKeys, the key views of the
// descriptor tables), the cumulative histogram export, the Prometheus text format,
// JsonEscape over the full control-character range, and the
// QuantileFromBuckets estimator's monotonicity.

#include "service/metrics.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/sanitization_service.h"

namespace geopriv::service {
namespace {

// Asserts every key in `keys` appears in `json` as "key": at a strictly
// increasing position — presence and order in one pass.
template <class Keys>
void ExpectKeysInOrder(const std::string& json, const Keys& keys,
                       size_t from = 0) {
  size_t pos = from;
  for (const char* key : keys) {
    const std::string quoted = std::string("\"") + key + "\":";
    const size_t at = json.find(quoted, pos);
    ASSERT_NE(at, std::string::npos)
        << "key '" << key << "' missing (or out of order) in " << json;
    pos = at + quoted.size();
  }
}

TEST(MetricsSchemaTest, ToJsonEmitsExactlyTheDocumentedKeysInOrder) {
  Metrics metrics;
  metrics.RecordAccepted();
  metrics.RecordOk();
  metrics.RecordLatency(0.010);
  ExpectKeysInOrder(metrics.ToJson(), kMetricsJsonKeys);
}

TEST(MetricsSchemaTest, RecordBundleLoadFlowsIntoSnapshotJsonAndText) {
  Metrics metrics(2);
  metrics.RecordBundleLoad(/*seconds=*/0.25, /*bytes_mapped=*/1 << 20,
                           /*plan_nodes=*/21);
  metrics.RecordBundleLoad(/*seconds=*/0.50, /*bytes_mapped=*/2 << 20,
                           /*plan_nodes=*/21, /*slot=*/1);

  const MetricsSnapshot s = metrics.Snapshot();
  EXPECT_EQ(s.bundle_loads, 2u);
  EXPECT_DOUBLE_EQ(s.bundle_load_seconds, 0.75);
  EXPECT_EQ(s.bundle_bytes_mapped, 3u << 20);
  EXPECT_EQ(s.plan_warm_at_startup, 42u);

  const std::string json = metrics.ToJson();
  ExpectKeysInOrder(json, kMetricsJsonKeys);
  EXPECT_NE(json.find("\"bundle_loads\":2"), std::string::npos) << json;
  // The audit keys extended the schema past the bundle tail, so the
  // object continues after plan_warm_at_startup.
  EXPECT_NE(json.find("\"plan_warm_at_startup\":42,"), std::string::npos)
      << json;

  const std::string text = metrics.ToPrometheus("geopriv_");
  EXPECT_NE(text.find("# TYPE geopriv_bundle_loads_total counter\n"
                      "geopriv_bundle_loads_total 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE geopriv_bundle_bytes_mapped gauge"),
            std::string::npos);
  EXPECT_NE(text.find("geopriv_plan_warm_at_startup 42\n"),
            std::string::npos);
}

TEST(MetricsSchemaTest, ToJsonBucketArraysAreCumulativeAndConsistent) {
  Metrics metrics;
  metrics.RecordLatency(0.5e-6);  // first bucket
  metrics.RecordLatency(0.001);
  metrics.RecordLatency(0.001);
  metrics.RecordLatency(1e9);  // clamped into the open-ended top bucket

  const MetricsSnapshot s = metrics.Snapshot();
  EXPECT_EQ(s.latency_count, 4u);
  // Cumulative: non-decreasing, first bucket counts the sub-microsecond
  // sample, the last equals the total count.
  EXPECT_EQ(s.latency_buckets.front(), 1u);
  for (size_t i = 1; i < s.latency_buckets.size(); ++i) {
    EXPECT_GE(s.latency_buckets[i], s.latency_buckets[i - 1]);
  }
  EXPECT_EQ(s.latency_buckets.back(), s.latency_count);

  // The JSON mirrors the snapshot: kNumBuckets bounds and counts, and the
  // final cumulative count equals latency_count.
  const std::string json = metrics.ToJson();
  const size_t bounds_at = json.find("\"latency_bucket_le_s\":[");
  const size_t counts_at = json.find("\"latency_buckets_cumulative\":[");
  ASSERT_NE(bounds_at, std::string::npos);
  ASSERT_NE(counts_at, std::string::npos);
  // (The bundle keys extended the schema past the arrays, so the array
  // is followed by more keys, not the closing brace.)
  EXPECT_NE(json.find(",4],", counts_at), std::string::npos) << json;
}

TEST(MetricsSchemaTest, ServiceMetricsJsonFollowsTheDocumentedSchema) {
  ServiceOptions options;
  options.num_workers = 1;
  auto service = SanitizationService::Create(options);
  ASSERT_TRUE(service.ok());

  RegionConfig config;
  config.min_lat = 30.19;
  config.min_lon = -97.87;
  config.max_lat = 30.37;
  config.max_lon = -97.66;
  config.eps = 0.5;
  config.granularity = 3;
  config.prior_granularity = 16;
  ASSERT_TRUE((*service)->RegisterRegion("austin", config).ok());

  const std::string json = (*service)->MetricsJson();
  ExpectKeysInOrder(json, kServiceMetricsJsonKeys);
  ExpectKeysInOrder(json, kTraceMetricsJsonKeys,
                    json.find("\"trace\":"));
  ExpectKeysInOrder(json, kRegionMetricsJsonKeys,
                    json.find("\"regions\":"));
}

TEST(MetricsPrometheusTest, TextExpositionHasCountersAndHistogram) {
  Metrics metrics;
  for (int i = 0; i < 5; ++i) metrics.RecordAccepted();
  metrics.RecordOk();
  metrics.RecordDeadlineFallback();
  metrics.RecordLatency(0.001);
  metrics.RecordLatency(0.004);
  metrics.RecordLatency(2.0);

  const std::string text = metrics.ToPrometheus("geopriv_");
  EXPECT_NE(text.find("# TYPE geopriv_requests_total counter\n"
                      "geopriv_requests_total 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("geopriv_fallbacks_deadline_total 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE geopriv_request_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("geopriv_request_latency_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("geopriv_request_latency_seconds_count 3"),
            std::string::npos);
  EXPECT_NE(text.find("geopriv_request_latency_seconds_sum 2.005"),
            std::string::npos);

  // Bucket counts are cumulative: extract every le-bucket value and check
  // it never decreases, ending at the +Inf count.
  std::vector<unsigned long long> counts;
  size_t pos = 0;
  const std::string needle = "geopriv_request_latency_seconds_bucket{le=";
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    const size_t space = text.find("} ", pos);
    ASSERT_NE(space, std::string::npos);
    counts.push_back(std::stoull(text.substr(space + 2)));
    pos = space;
  }
  ASSERT_EQ(counts.size(),
            static_cast<size_t>(LatencyHistogram::kNumBuckets));
  for (size_t i = 1; i < counts.size(); ++i) {
    EXPECT_GE(counts[i], counts[i - 1]);
  }
  EXPECT_EQ(counts.back(), 3u);
}

TEST(MetricsPrometheusTest, ServiceTextCarriesRegionGaugesAndEpoch) {
  ServiceOptions options;
  options.num_workers = 1;
  options.trace.sample_one_in = 1;
  auto service = SanitizationService::Create(options);
  ASSERT_TRUE(service.ok());

  RegionConfig config;
  config.min_lat = 30.19;
  config.min_lon = -97.87;
  config.max_lat = 30.37;
  config.max_lon = -97.66;
  config.eps = 0.5;
  config.granularity = 3;
  config.prior_granularity = 16;
  ASSERT_TRUE((*service)->RegisterRegion("aus\"tin", config).ok());

  const std::string text = (*service)->MetricsText();
  EXPECT_NE(text.find("geopriv_snapshot_epoch 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE geopriv_trace_requests_started_total counter"),
            std::string::npos);
  // The hostile region id survives as an escaped label value.
  EXPECT_NE(text.find("geopriv_region_cache_size{region=\"aus\\\"tin\"}"),
            std::string::npos);
}

TEST(MetricsSchemaTest, AuditCountersFlowIntoBothExpositions) {
  Metrics metrics(2);
  metrics.RecordAuditRun(/*nodes_audited=*/10, /*nodes_skipped=*/2,
                         /*seconds=*/0.25);
  metrics.RecordAuditRun(/*nodes_audited=*/5, /*nodes_skipped=*/0,
                         /*seconds=*/0.50, /*slot=*/1);
  metrics.RecordAuditDrift();
  metrics.RecordAuditTaskRejected(/*slot=*/1);
  metrics.RecordAuditBaselineError();

  const MetricsSnapshot s = metrics.Snapshot();
  EXPECT_EQ(s.audit_runs, 2u);
  EXPECT_EQ(s.audit_nodes_audited, 15u);
  EXPECT_EQ(s.audit_skipped_nodes, 2u);
  EXPECT_EQ(s.audit_drift_events, 1u);
  EXPECT_EQ(s.audit_tasks_rejected, 1u);
  EXPECT_EQ(s.audit_baseline_errors, 1u);
  EXPECT_DOUBLE_EQ(s.audit_seconds, 0.75);

  const std::string json = metrics.ToJson();
  ExpectKeysInOrder(json, kMetricsJsonKeys);
  EXPECT_NE(json.find("\"audit_runs\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"audit_drift_events\":1"), std::string::npos);

  const std::string text = metrics.ToPrometheus("geopriv_");
  EXPECT_NE(text.find("# TYPE geopriv_audit_runs_total counter\n"
                      "geopriv_audit_runs_total 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("geopriv_audit_nodes_audited_total 15\n"),
            std::string::npos);
  EXPECT_NE(text.find("geopriv_audit_drift_events_total 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE geopriv_audit_seconds gauge"),
            std::string::npos);
}

TEST(MetricsPrometheusTest, ShardRoutingSurfacesInBothExpositions) {
  ServiceOptions options;
  options.num_workers = 1;
  options.num_shards = 4;
  auto service = SanitizationService::Create(options);
  ASSERT_TRUE(service.ok());

  const std::string json = (*service)->MetricsJson();
  ExpectKeysInOrder(json, kShardJsonKeys, json.find("\"shards\":"));

  const std::string text = (*service)->MetricsText();
  EXPECT_NE(text.find("geopriv_shard_count 4"), std::string::npos);
  EXPECT_NE(
      text.find("# TYPE geopriv_shard_requests_cumulative_total counter"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE geopriv_shard_imbalance_ratio gauge"),
            std::string::npos);
}

TEST(JsonEscapeTest, EscapesEveryControlCharacterAndJsonSpecials) {
  // The named short escapes.
  EXPECT_EQ(JsonEscape("\""), "\\\"");
  EXPECT_EQ(JsonEscape("\\"), "\\\\");
  EXPECT_EQ(JsonEscape("\b"), "\\b");
  EXPECT_EQ(JsonEscape("\f"), "\\f");
  EXPECT_EQ(JsonEscape("\n"), "\\n");
  EXPECT_EQ(JsonEscape("\r"), "\\r");
  EXPECT_EQ(JsonEscape("\t"), "\\t");
  // Every other control character becomes \u00XX — the whole range
  // 0x00..0x1F must come out escaped, nothing raw.
  for (int c = 0; c < 0x20; ++c) {
    const std::string escaped = JsonEscape(std::string(1, static_cast<char>(c)));
    ASSERT_GE(escaped.size(), 2u) << "control char " << c << " left raw";
    EXPECT_EQ(escaped[0], '\\') << "control char " << c;
    if (c != '\b' && c != '\f' && c != '\n' && c != '\r' && c != '\t') {
      char expect[8];
      std::snprintf(expect, sizeof(expect), "\\u%04x", c);
      EXPECT_EQ(escaped, expect);
    }
  }
  // Printable ASCII and high bytes (UTF-8 continuation range) pass through.
  EXPECT_EQ(JsonEscape("plain text 123"), "plain text 123");
  EXPECT_EQ(JsonEscape("\xc3\xa9"), "\xc3\xa9");
  // DEL (0x7F) is not a JSON control character and passes through.
  EXPECT_EQ(JsonEscape("\x7f"), "\x7f");
}

TEST(QuantileFromBucketsTest, MonotoneInQ) {
  LatencyHistogram::BucketCounts counts{};
  counts[2] = 10;
  counts[5] = 3;
  counts[11] = 40;
  counts[27] = 7;
  double prev = -1.0;
  for (int i = 0; i <= 100; ++i) {
    const double q = i / 100.0;
    const double v = LatencyHistogram::QuantileFromBuckets(counts, q);
    EXPECT_GE(v, prev) << "quantile regressed at q=" << q;
    prev = v;
  }
  // And clamping: out-of-range q behaves like the endpoints.
  EXPECT_EQ(LatencyHistogram::QuantileFromBuckets(counts, -3.0),
            LatencyHistogram::QuantileFromBuckets(counts, 0.0));
  EXPECT_EQ(LatencyHistogram::QuantileFromBuckets(counts, 42.0),
            LatencyHistogram::QuantileFromBuckets(counts, 1.0));
}

TEST(QuantileFromBucketsTest, EmptyBucketsYieldZeroForEveryQ) {
  const LatencyHistogram::BucketCounts counts{};
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(LatencyHistogram::QuantileFromBuckets(counts, q), 0.0);
  }
}

TEST(QuantileFromBucketsTest, SingleBucketInterpolatesWithinBounds) {
  LatencyHistogram::BucketCounts counts{};
  counts[4] = 100;  // all mass in bucket 4: (BucketBound(3), BucketBound(4)]
  const double lower = LatencyHistogram::BucketBound(3);
  const double upper = LatencyHistogram::BucketBound(4);
  for (const double q : {0.01, 0.5, 0.99}) {
    const double v = LatencyHistogram::QuantileFromBuckets(counts, q);
    EXPECT_GE(v, lower);
    EXPECT_LE(v, upper);
  }
}

}  // namespace
}  // namespace geopriv::service
