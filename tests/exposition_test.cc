// Golden tests for every metrics exposition. They pin the exact bytes of
// the JSON and Prometheus renderings of the service counters, an audit
// report, the shard routing table and a full service scrape (with every
// timing-valued number masked), so key names, key order, family names,
// `# TYPE` lines and label escaping cannot drift. Every Prometheus text is
// also checked for well-formedness: one `# TYPE` line per family, before
// the family's samples, and no family declared twice.

#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/audit.h"
#include "bundle/builder.h"
#include "service/metrics.h"
#include "service/sanitization_service.h"
#include "service/shard_router.h"

namespace geopriv {
namespace {

// Replaces the value (a number or an array) of each JSON key in the
// `keys` alternation by '#'.
std::string MaskJson(const std::string& json, const std::string& keys) {
  const std::regex value("(\"(?:" + keys + ")\":)(?:\\[[^\\]]*\\]|[^,}]*)");
  return std::regex_replace(json, value, "$1#");
}

// Replaces the value of every sample of the metrics in the `names`
// alternation by '#'.
std::string MaskProm(const std::string& text, const std::string& names) {
  const std::regex sample("(\n(?:" + names + ")(?:\\{[^}\n]*\\})? )[^\n]*");
  return std::regex_replace(text, sample, "$1#");
}

// Every sample belongs to a family declared by exactly one earlier
// `# TYPE` line; histogram samples carry the _bucket/_sum/_count suffix.
void ExpectWellFormedPrometheus(const std::string& text) {
  ASSERT_TRUE(!text.empty() && text.back() == '\n');
  std::map<std::string, std::string> types;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name, type, extra;
    if (line.rfind("# TYPE ", 0) == 0) {
      fields >> extra >> extra >> name >> type;
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "histogram")
          << line;
      EXPECT_FALSE(fields >> extra) << line;
      EXPECT_TRUE(types.emplace(name, type).second)
          << "family declared twice: " << line;
      continue;
    }
    name = line.substr(0, line.find_first_of("{ "));
    ASSERT_FALSE(name.empty() || name[0] == '#') << "not a sample: " << line;
    const std::string family =
        std::regex_replace(name, std::regex("_(bucket|sum|count)$"), "");
    ASSERT_TRUE(types.count(name) == 1 ||
                (types.count(family) == 1 && types[family] == "histogram"))
        << "sample before its # TYPE line: " << line;
    EXPECT_NE(line.back(), ' ') << "sample without a value: " << line;
  }
}

TEST(ExpositionGoldenTest, ServiceCountersOnTwoSlots) {
  service::Metrics metrics(2);
  for (int i = 0; i < 7; ++i) metrics.RecordAccepted(i % 2);
  metrics.RecordRejected(1);
  for (int i = 0; i < 4; ++i) metrics.RecordOk(0);
  metrics.RecordFailed(1);
  metrics.RecordDeadlineFallback(0);
  metrics.RecordMechanismFallback(1);
  metrics.RecordDeadlineOverrun(1);
  metrics.RecordLatency(0.5e-6, 0);
  metrics.RecordLatency(0.003, 1);
  metrics.RecordLatency(0.003, 0);
  metrics.RecordLatency(0.25, 1);
  metrics.RecordBundleLoad(0.125, 1 << 20, 21, 0);
  metrics.RecordBundleLoad(0.5, 3 << 20, 13, 1);
  metrics.RecordAuditRun(10, 2, 0.0625, 1);
  metrics.RecordAuditDrift(0);
  metrics.RecordAuditTaskRejected(1);
  metrics.RecordAuditBaselineError(0);

  EXPECT_EQ(metrics.ToJson(), R"GOLDEN({"requests_total":7,"requests_ok":4,"requests_rejected":1,"requests_failed":1,"fallbacks_total":2,"fallbacks_deadline":1,"fallbacks_mechanism":1,"deadline_overruns":1,"latency_count":4,"latency_p50_ms":3.072000,"latency_p90_ms":209.715200,"latency_p99_ms":256.901120,"latency_mean_ms":64.000125,"latency_sum_seconds":0.256001,"latency_bucket_le_s":[1e-06,2e-06,4e-06,8e-06,1.6e-05,3.2e-05,6.4e-05,0.000128,0.000256,0.000512,0.001024,0.002048,0.004096,0.008192,0.016384,0.032768,0.065536,0.131072,0.262144,0.524288,1.048576,2.097152,4.194304,8.388608,16.777216,33.554432,67.108864,134.217728],"latency_buckets_cumulative":[1,1,1,1,1,1,1,1,1,1,1,1,3,3,3,3,3,3,4,4,4,4,4,4,4,4,4,4],"bundle_loads":2,"bundle_load_seconds":0.625000,"bundle_bytes_mapped":4194304,"plan_warm_at_startup":34,"audit_runs":1,"audit_nodes_audited":10,"audit_skipped_nodes":2,"audit_drift_events":1,"audit_tasks_rejected":1,"audit_baseline_errors":1,"audit_seconds":0.062500})GOLDEN");
  const std::string text = metrics.ToPrometheus("geopriv_");
  ExpectWellFormedPrometheus(text);
  EXPECT_EQ(text, R"GOLDEN(# TYPE geopriv_requests_total counter
geopriv_requests_total 7
# TYPE geopriv_requests_ok_total counter
geopriv_requests_ok_total 4
# TYPE geopriv_requests_rejected_total counter
geopriv_requests_rejected_total 1
# TYPE geopriv_requests_failed_total counter
geopriv_requests_failed_total 1
# TYPE geopriv_fallbacks_total counter
geopriv_fallbacks_total 2
# TYPE geopriv_fallbacks_deadline_total counter
geopriv_fallbacks_deadline_total 1
# TYPE geopriv_fallbacks_mechanism_total counter
geopriv_fallbacks_mechanism_total 1
# TYPE geopriv_deadline_overruns_total counter
geopriv_deadline_overruns_total 1
# TYPE geopriv_request_latency_seconds histogram
geopriv_request_latency_seconds_bucket{le="1e-06"} 1
geopriv_request_latency_seconds_bucket{le="2e-06"} 1
geopriv_request_latency_seconds_bucket{le="4e-06"} 1
geopriv_request_latency_seconds_bucket{le="8e-06"} 1
geopriv_request_latency_seconds_bucket{le="1.6e-05"} 1
geopriv_request_latency_seconds_bucket{le="3.2e-05"} 1
geopriv_request_latency_seconds_bucket{le="6.4e-05"} 1
geopriv_request_latency_seconds_bucket{le="0.000128"} 1
geopriv_request_latency_seconds_bucket{le="0.000256"} 1
geopriv_request_latency_seconds_bucket{le="0.000512"} 1
geopriv_request_latency_seconds_bucket{le="0.001024"} 1
geopriv_request_latency_seconds_bucket{le="0.002048"} 1
geopriv_request_latency_seconds_bucket{le="0.004096"} 3
geopriv_request_latency_seconds_bucket{le="0.008192"} 3
geopriv_request_latency_seconds_bucket{le="0.016384"} 3
geopriv_request_latency_seconds_bucket{le="0.032768"} 3
geopriv_request_latency_seconds_bucket{le="0.065536"} 3
geopriv_request_latency_seconds_bucket{le="0.131072"} 3
geopriv_request_latency_seconds_bucket{le="0.262144"} 4
geopriv_request_latency_seconds_bucket{le="0.524288"} 4
geopriv_request_latency_seconds_bucket{le="1.048576"} 4
geopriv_request_latency_seconds_bucket{le="2.097152"} 4
geopriv_request_latency_seconds_bucket{le="4.194304"} 4
geopriv_request_latency_seconds_bucket{le="8.388608"} 4
geopriv_request_latency_seconds_bucket{le="16.777216"} 4
geopriv_request_latency_seconds_bucket{le="33.554432"} 4
geopriv_request_latency_seconds_bucket{le="67.108864"} 4
geopriv_request_latency_seconds_bucket{le="+Inf"} 4
geopriv_request_latency_seconds_sum 0.256000500
geopriv_request_latency_seconds_count 4
# TYPE geopriv_bundle_loads_total counter
geopriv_bundle_loads_total 2
# TYPE geopriv_bundle_load_seconds gauge
geopriv_bundle_load_seconds 0.625000000
# TYPE geopriv_bundle_bytes_mapped gauge
geopriv_bundle_bytes_mapped 4194304
# TYPE geopriv_plan_warm_at_startup gauge
geopriv_plan_warm_at_startup 34
# TYPE geopriv_audit_runs_total counter
geopriv_audit_runs_total 1
# TYPE geopriv_audit_nodes_audited_total counter
geopriv_audit_nodes_audited_total 10
# TYPE geopriv_audit_skipped_nodes_total counter
geopriv_audit_skipped_nodes_total 2
# TYPE geopriv_audit_drift_events_total counter
geopriv_audit_drift_events_total 1
# TYPE geopriv_audit_tasks_rejected_total counter
geopriv_audit_tasks_rejected_total 1
# TYPE geopriv_audit_baseline_errors_total counter
geopriv_audit_baseline_errors_total 1
# TYPE geopriv_audit_seconds gauge
geopriv_audit_seconds 0.062500000
)GOLDEN");
}

audit::RegionAuditReport TwoLevelReport() {
  const audit::LevelAudit root{1, 1, 1.0, 0.2, 0.04, 0.0, 0.5, 0.3, 0.0, 0.0};
  const audit::LevelAudit leaf{
      2, 4, 2.0 / 3.0, 0.1, 1.0 / 3.0 - 0.04, 2.5e-3, 1.75, 12345.678, -1e-9,
      1e-9};
  return {2,    5,         1,     3,    0.1 + 0.2,    1.0 / 3.0, 2.5e-3,
          1.75, 12345.678, -1e-9, 1e-9, {root, leaf}, {}};
}

TEST(ExpositionGoldenTest, AuditReportWithTwoLevels) {
  const audit::RegionAuditReport report = TwoLevelReport();
  EXPECT_EQ(audit::ReportJson(report),
            R"GOLDEN({"height":2,"audited_nodes":5,"skipped_nodes":1,"cold_nodes_skipped":3,"expected_loss_euclidean":0.30000000000000004,"expected_loss_squared":0.33333333333333331,"adversary_error":0.0025000000000000001,"conditional_entropy_bits":1.75,"worst_case_loss":12345.678,"min_slack":-1.0000000000000001e-09,"max_violation":1.0000000000000001e-09,"levels":[{"level":1,"nodes":1,"weight":1,"expected_loss_euclidean":0.20000000000000001,"expected_loss_squared":0.040000000000000001,"adversary_error":0,"conditional_entropy_bits":0.5,"worst_case_loss":0.29999999999999999,"min_slack":0,"max_violation":0},{"level":2,"nodes":4,"weight":0.66666666666666663,"expected_loss_euclidean":0.10000000000000001,"expected_loss_squared":0.29333333333333333,"adversary_error":0.0025000000000000001,"conditional_entropy_bits":1.75,"worst_case_loss":12345.678,"min_slack":-1.0000000000000001e-09,"max_violation":1.0000000000000001e-09}]})GOLDEN");
  const std::string text = audit::ReportPrometheus(report);
  ExpectWellFormedPrometheus(text);
  EXPECT_EQ(text, R"GOLDEN(# TYPE geopriv_audit_height gauge
geopriv_audit_height 2
# TYPE geopriv_audit_audited_nodes gauge
geopriv_audit_audited_nodes 5
# TYPE geopriv_audit_skipped_nodes gauge
geopriv_audit_skipped_nodes 1
# TYPE geopriv_audit_cold_nodes_skipped gauge
geopriv_audit_cold_nodes_skipped 3
# TYPE geopriv_audit_expected_loss_euclidean gauge
geopriv_audit_expected_loss_euclidean 0.30000000000000004
# TYPE geopriv_audit_expected_loss_squared gauge
geopriv_audit_expected_loss_squared 0.33333333333333331
# TYPE geopriv_audit_adversary_error gauge
geopriv_audit_adversary_error 0.0025000000000000001
# TYPE geopriv_audit_conditional_entropy_bits gauge
geopriv_audit_conditional_entropy_bits 1.75
# TYPE geopriv_audit_worst_case_loss gauge
geopriv_audit_worst_case_loss 12345.678
# TYPE geopriv_audit_min_slack gauge
geopriv_audit_min_slack -1.0000000000000001e-09
# TYPE geopriv_audit_max_violation gauge
geopriv_audit_max_violation 1.0000000000000001e-09
# TYPE geopriv_audit_level_nodes gauge
geopriv_audit_level_nodes{level="1"} 1
geopriv_audit_level_nodes{level="2"} 4
# TYPE geopriv_audit_level_weight gauge
geopriv_audit_level_weight{level="1"} 1
geopriv_audit_level_weight{level="2"} 0.66666666666666663
# TYPE geopriv_audit_level_expected_loss_euclidean gauge
geopriv_audit_level_expected_loss_euclidean{level="1"} 0.20000000000000001
geopriv_audit_level_expected_loss_euclidean{level="2"} 0.10000000000000001
# TYPE geopriv_audit_level_expected_loss_squared gauge
geopriv_audit_level_expected_loss_squared{level="1"} 0.040000000000000001
geopriv_audit_level_expected_loss_squared{level="2"} 0.29333333333333333
# TYPE geopriv_audit_level_adversary_error gauge
geopriv_audit_level_adversary_error{level="1"} 0
geopriv_audit_level_adversary_error{level="2"} 0.0025000000000000001
# TYPE geopriv_audit_level_conditional_entropy_bits gauge
geopriv_audit_level_conditional_entropy_bits{level="1"} 0.5
geopriv_audit_level_conditional_entropy_bits{level="2"} 1.75
# TYPE geopriv_audit_level_worst_case_loss gauge
geopriv_audit_level_worst_case_loss{level="1"} 0.29999999999999999
geopriv_audit_level_worst_case_loss{level="2"} 12345.678
# TYPE geopriv_audit_level_min_slack gauge
geopriv_audit_level_min_slack{level="1"} 0
geopriv_audit_level_min_slack{level="2"} -1.0000000000000001e-09
# TYPE geopriv_audit_level_max_violation gauge
geopriv_audit_level_max_violation{level="1"} 0
geopriv_audit_level_max_violation{level="2"} 1.0000000000000001e-09
)GOLDEN");
}

TEST(ExpositionGoldenTest, ShardRoutingTable) {
  service::ShardRouter router(3, 8);
  for (int i = 0; i < 5; ++i) router.RecordRequest(0);
  router.RecordRequest(2);
  EXPECT_EQ(router.RoutingTableJson(),
            R"GOLDEN({"num_shards":3,"vnodes_per_shard":8,"requests":[5,0,1],"requests_total":6,"shard_imbalance_ratio":2.500000})GOLDEN");
}

// Keys and metrics whose values are wall-clock times (or histogram
// counts of them) and so differ between runs.
const std::string kTimedJsonKeys =
    "latency_p50_ms|latency_p90_ms|latency_p99_ms|latency_mean_ms|"
    "latency_sum_seconds|latency_buckets_cumulative|bundle_load_seconds|"
    "audit_seconds|lp_seconds|lp_pricing_seconds|lp_simplex_seconds|"
    "lp_refactor_seconds";
const std::string kTimedPromNames =
    "geopriv_request_latency_seconds_bucket|"
    "geopriv_request_latency_seconds_sum|geopriv_bundle_load_seconds|"
    "geopriv_audit_seconds|geopriv_region_lp_seconds|"
    "geopriv_region_lp_refactor_seconds";

TEST(ExpositionGoldenTest, ServiceScrapeWithTracingShardsAndAudit) {
  // A ~1.1 km box at granularity 2: one node, warm in the bundle.
  bundle::RegionSpec spec;
  spec.min_lat = 30.19;
  spec.min_lon = -97.87;
  spec.max_lat = 30.20;
  spec.max_lon = -97.86;
  spec.eps = 1.2;
  spec.granularity = 2;
  spec.prior_granularity = 16;
  for (int i = 0; i < 200; ++i) {
    spec.checkins.push_back(
        {30.19 + 0.01 * (i % 10) / 10.0, -97.87 + 0.01 * (i % 7) / 7.0});
  }
  const std::string path = ::testing::TempDir() + "/exposition_golden.gpb";
  ASSERT_TRUE(bundle::BuildRegionBundle(spec, {}, path).ok());

  service::ServiceOptions options;
  options.num_workers = 2;
  options.num_shards = 4;
  options.trace.sample_one_in = 1;
  auto service = service::SanitizationService::Create(options);
  ASSERT_TRUE(service.ok());
  // The second id exercises both escapers: quote, backslash and newline.
  const std::string hostile = "aus\"tin\\2\n";
  for (const std::string& id : {std::string("austin"), hostile}) {
    ASSERT_TRUE((*service)->LoadRegionFromBundle(id, path).ok());
  }
  std::vector<core::LatLon> batch;
  for (int i = 0; i < 24; ++i) {
    batch.push_back({30.19 + 0.01 * (i % 6) / 6.0, -97.865});
  }
  for (const auto& r : (*service)->SanitizeBatch("austin", batch)) {
    ASSERT_TRUE(r.status.ok());
  }
  batch.resize(9);
  for (const auto& r : (*service)->SanitizeBatch(hostile, batch)) {
    ASSERT_TRUE(r.status.ok());
  }
  ASSERT_TRUE((*service)->AuditRegionNow("austin").ok());

  EXPECT_EQ(MaskJson((*service)->MetricsJson(), kTimedJsonKeys),
            R"GOLDEN({"service":{"requests_total":33,"requests_ok":33,"requests_rejected":0,"requests_failed":0,"fallbacks_total":0,"fallbacks_deadline":0,"fallbacks_mechanism":0,"deadline_overruns":0,"latency_count":33,"latency_p50_ms":#,"latency_p90_ms":#,"latency_p99_ms":#,"latency_mean_ms":#,"latency_sum_seconds":#,"latency_bucket_le_s":[1e-06,2e-06,4e-06,8e-06,1.6e-05,3.2e-05,6.4e-05,0.000128,0.000256,0.000512,0.001024,0.002048,0.004096,0.008192,0.016384,0.032768,0.065536,0.131072,0.262144,0.524288,1.048576,2.097152,4.194304,8.388608,16.777216,33.554432,67.108864,134.217728],"latency_buckets_cumulative":#,"bundle_loads":2,"bundle_load_seconds":#,"bundle_bytes_mapped":7080,"plan_warm_at_startup":2,"audit_runs":1,"audit_nodes_audited":1,"audit_skipped_nodes":0,"audit_drift_events":0,"audit_tasks_rejected":0,"audit_baseline_errors":0,"audit_seconds":#},"snapshot_epoch":2,"trace":{"enabled":1,"sample_one_in":1,"requests_started":34,"requests_retained":34,"requests_forced":0,"spans_committed":133,"spans_dropped":0},"regions":{"aus\"tin\\2\n":{"eps":1.200000,"height":1,"leaf_cells_per_axis":2,"lp_solves":0,"lp_seconds":#,"lp_pricing_seconds":#,"lp_simplex_seconds":#,"lp_refactor_seconds":#,"lp_violations":0,"degraded_rows":0,"uniform_prior_fallbacks":0,"cache_hits":0,"cache_size":1,"cache_bytes_resident":608,"cache_byte_budget":0,"cache_evictions":0,"cache_hit_rate":0.000000,"prewarmed_nodes":1,"singleflight_waits":0,"plan_builds":1,"plan_levels":9,"fallthrough_levels":0,"bundle_bytes_mapped":3540,"plan_warm_at_startup":1,"audit_runs":0,"audit_expected_loss_euclidean":0,"audit_expected_loss_squared":0,"audit_adversary_error":0,"audit_conditional_entropy_bits":0,"audit_worst_case_loss":0,"audit_min_slack":0,"audit_max_violation":0,"audit_audited_nodes":0,"audit_skipped_nodes":0,"audit_drift_events":0},"austin":{"eps":1.200000,"height":1,"leaf_cells_per_axis":2,"lp_solves":0,"lp_seconds":#,"lp_pricing_seconds":#,"lp_simplex_seconds":#,"lp_refactor_seconds":#,"lp_violations":0,"degraded_rows":0,"uniform_prior_fallbacks":0,"cache_hits":0,"cache_size":1,"cache_bytes_resident":608,"cache_byte_budget":0,"cache_evictions":0,"cache_hit_rate":0.000000,"prewarmed_nodes":1,"singleflight_waits":0,"plan_builds":1,"plan_levels":24,"fallthrough_levels":0,"bundle_bytes_mapped":3540,"plan_warm_at_startup":1,"audit_runs":1,"audit_expected_loss_euclidean":0.343675848,"audit_expected_loss_squared":0.201511964,"audit_adversary_error":0.343675848,"audit_conditional_entropy_bits":1.89796533,"audit_worst_case_loss":0.414469612,"audit_min_slack":-1.11022302e-16,"audit_max_violation":1.11022302e-16,"audit_audited_nodes":1,"audit_skipped_nodes":0,"audit_drift_events":0}},"shards":{"num_shards":4,"vnodes_per_shard":64,"requests":[0,9,0,24],"requests_total":33,"shard_imbalance_ratio":2.909091}})GOLDEN");
  const std::string text = (*service)->MetricsText();
  ExpectWellFormedPrometheus(text);
  EXPECT_EQ(MaskProm(text, kTimedPromNames),
            R"GOLDEN(# TYPE geopriv_requests_total counter
geopriv_requests_total 33
# TYPE geopriv_requests_ok_total counter
geopriv_requests_ok_total 33
# TYPE geopriv_requests_rejected_total counter
geopriv_requests_rejected_total 0
# TYPE geopriv_requests_failed_total counter
geopriv_requests_failed_total 0
# TYPE geopriv_fallbacks_total counter
geopriv_fallbacks_total 0
# TYPE geopriv_fallbacks_deadline_total counter
geopriv_fallbacks_deadline_total 0
# TYPE geopriv_fallbacks_mechanism_total counter
geopriv_fallbacks_mechanism_total 0
# TYPE geopriv_deadline_overruns_total counter
geopriv_deadline_overruns_total 0
# TYPE geopriv_request_latency_seconds histogram
geopriv_request_latency_seconds_bucket{le="1e-06"} #
geopriv_request_latency_seconds_bucket{le="2e-06"} #
geopriv_request_latency_seconds_bucket{le="4e-06"} #
geopriv_request_latency_seconds_bucket{le="8e-06"} #
geopriv_request_latency_seconds_bucket{le="1.6e-05"} #
geopriv_request_latency_seconds_bucket{le="3.2e-05"} #
geopriv_request_latency_seconds_bucket{le="6.4e-05"} #
geopriv_request_latency_seconds_bucket{le="0.000128"} #
geopriv_request_latency_seconds_bucket{le="0.000256"} #
geopriv_request_latency_seconds_bucket{le="0.000512"} #
geopriv_request_latency_seconds_bucket{le="0.001024"} #
geopriv_request_latency_seconds_bucket{le="0.002048"} #
geopriv_request_latency_seconds_bucket{le="0.004096"} #
geopriv_request_latency_seconds_bucket{le="0.008192"} #
geopriv_request_latency_seconds_bucket{le="0.016384"} #
geopriv_request_latency_seconds_bucket{le="0.032768"} #
geopriv_request_latency_seconds_bucket{le="0.065536"} #
geopriv_request_latency_seconds_bucket{le="0.131072"} #
geopriv_request_latency_seconds_bucket{le="0.262144"} #
geopriv_request_latency_seconds_bucket{le="0.524288"} #
geopriv_request_latency_seconds_bucket{le="1.048576"} #
geopriv_request_latency_seconds_bucket{le="2.097152"} #
geopriv_request_latency_seconds_bucket{le="4.194304"} #
geopriv_request_latency_seconds_bucket{le="8.388608"} #
geopriv_request_latency_seconds_bucket{le="16.777216"} #
geopriv_request_latency_seconds_bucket{le="33.554432"} #
geopriv_request_latency_seconds_bucket{le="67.108864"} #
geopriv_request_latency_seconds_bucket{le="+Inf"} #
geopriv_request_latency_seconds_sum #
geopriv_request_latency_seconds_count 33
# TYPE geopriv_bundle_loads_total counter
geopriv_bundle_loads_total 2
# TYPE geopriv_bundle_load_seconds gauge
geopriv_bundle_load_seconds #
# TYPE geopriv_bundle_bytes_mapped gauge
geopriv_bundle_bytes_mapped 7080
# TYPE geopriv_plan_warm_at_startup gauge
geopriv_plan_warm_at_startup 2
# TYPE geopriv_audit_runs_total counter
geopriv_audit_runs_total 1
# TYPE geopriv_audit_nodes_audited_total counter
geopriv_audit_nodes_audited_total 1
# TYPE geopriv_audit_skipped_nodes_total counter
geopriv_audit_skipped_nodes_total 0
# TYPE geopriv_audit_drift_events_total counter
geopriv_audit_drift_events_total 0
# TYPE geopriv_audit_tasks_rejected_total counter
geopriv_audit_tasks_rejected_total 0
# TYPE geopriv_audit_baseline_errors_total counter
geopriv_audit_baseline_errors_total 0
# TYPE geopriv_audit_seconds gauge
geopriv_audit_seconds #
# TYPE geopriv_snapshot_epoch gauge
geopriv_snapshot_epoch 2
# TYPE geopriv_trace_requests_started_total counter
geopriv_trace_requests_started_total 34
# TYPE geopriv_trace_requests_retained_total counter
geopriv_trace_requests_retained_total 34
# TYPE geopriv_trace_requests_forced_total counter
geopriv_trace_requests_forced_total 0
# TYPE geopriv_trace_spans_committed_total counter
geopriv_trace_spans_committed_total 133
# TYPE geopriv_trace_spans_dropped_total counter
geopriv_trace_spans_dropped_total 0
# TYPE geopriv_shard_count gauge
geopriv_shard_count 4
# TYPE geopriv_shard_requests counter
geopriv_shard_requests{shard="0"} 0
geopriv_shard_requests{shard="1"} 9
geopriv_shard_requests{shard="2"} 0
geopriv_shard_requests{shard="3"} 24
# TYPE geopriv_shard_requests_cumulative_total counter
geopriv_shard_requests_cumulative_total 33
# TYPE geopriv_shard_imbalance_ratio gauge
geopriv_shard_imbalance_ratio 2.909091
# TYPE geopriv_region_lp_solves counter
geopriv_region_lp_solves{region="aus\"tin\\2\n"} 0
geopriv_region_lp_solves{region="austin"} 0
# TYPE geopriv_region_lp_seconds counter
geopriv_region_lp_seconds{region="aus\"tin\\2\n"} #
geopriv_region_lp_seconds{region="austin"} #
# TYPE geopriv_region_lp_refactor_seconds counter
geopriv_region_lp_refactor_seconds{region="aus\"tin\\2\n"} #
geopriv_region_lp_refactor_seconds{region="austin"} #
# TYPE geopriv_region_cache_hits counter
geopriv_region_cache_hits{region="aus\"tin\\2\n"} 0
geopriv_region_cache_hits{region="austin"} 0
# TYPE geopriv_region_cache_size gauge
geopriv_region_cache_size{region="aus\"tin\\2\n"} 1
geopriv_region_cache_size{region="austin"} 1
# TYPE geopriv_region_cache_bytes_resident gauge
geopriv_region_cache_bytes_resident{region="aus\"tin\\2\n"} 608
geopriv_region_cache_bytes_resident{region="austin"} 608
# TYPE geopriv_region_cache_evictions counter
geopriv_region_cache_evictions{region="aus\"tin\\2\n"} 0
geopriv_region_cache_evictions{region="austin"} 0
# TYPE geopriv_region_singleflight_waits counter
geopriv_region_singleflight_waits{region="aus\"tin\\2\n"} 0
geopriv_region_singleflight_waits{region="austin"} 0
# TYPE geopriv_region_plan_builds counter
geopriv_region_plan_builds{region="aus\"tin\\2\n"} 1
geopriv_region_plan_builds{region="austin"} 1
# TYPE geopriv_region_bundle_bytes_mapped gauge
geopriv_region_bundle_bytes_mapped{region="aus\"tin\\2\n"} 3540
geopriv_region_bundle_bytes_mapped{region="austin"} 3540
# TYPE geopriv_region_plan_warm_at_startup gauge
geopriv_region_plan_warm_at_startup{region="aus\"tin\\2\n"} 1
geopriv_region_plan_warm_at_startup{region="austin"} 1
# TYPE geopriv_region_audit_runs counter
geopriv_region_audit_runs{region="aus\"tin\\2\n"} 0
geopriv_region_audit_runs{region="austin"} 1
# TYPE geopriv_region_audit_expected_loss_euclidean gauge
geopriv_region_audit_expected_loss_euclidean{region="aus\"tin\\2\n"} 0
geopriv_region_audit_expected_loss_euclidean{region="austin"} 0.343675848
# TYPE geopriv_region_audit_expected_loss_squared gauge
geopriv_region_audit_expected_loss_squared{region="aus\"tin\\2\n"} 0
geopriv_region_audit_expected_loss_squared{region="austin"} 0.201511964
# TYPE geopriv_region_audit_adversary_error gauge
geopriv_region_audit_adversary_error{region="aus\"tin\\2\n"} 0
geopriv_region_audit_adversary_error{region="austin"} 0.343675848
# TYPE geopriv_region_audit_conditional_entropy_bits gauge
geopriv_region_audit_conditional_entropy_bits{region="aus\"tin\\2\n"} 0
geopriv_region_audit_conditional_entropy_bits{region="austin"} 1.89796533
# TYPE geopriv_region_audit_worst_case_loss gauge
geopriv_region_audit_worst_case_loss{region="aus\"tin\\2\n"} 0
geopriv_region_audit_worst_case_loss{region="austin"} 0.414469612
# TYPE geopriv_region_audit_min_slack gauge
geopriv_region_audit_min_slack{region="aus\"tin\\2\n"} 0
geopriv_region_audit_min_slack{region="austin"} -1.11022302e-16
# TYPE geopriv_region_audit_max_violation gauge
geopriv_region_audit_max_violation{region="aus\"tin\\2\n"} 0
geopriv_region_audit_max_violation{region="austin"} 1.11022302e-16
# TYPE geopriv_region_audit_audited_nodes gauge
geopriv_region_audit_audited_nodes{region="aus\"tin\\2\n"} 0
geopriv_region_audit_audited_nodes{region="austin"} 1
# TYPE geopriv_region_audit_skipped_nodes gauge
geopriv_region_audit_skipped_nodes{region="aus\"tin\\2\n"} 0
geopriv_region_audit_skipped_nodes{region="austin"} 0
# TYPE geopriv_region_audit_drift_events counter
geopriv_region_audit_drift_events{region="aus\"tin\\2\n"} 0
geopriv_region_audit_drift_events{region="austin"} 0
)GOLDEN");
}

}  // namespace
}  // namespace geopriv
