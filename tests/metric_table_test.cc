// Tests for the metric descriptor tables and their renderers
// (base/metric_table.h): value printing, the JSON object, unlabelled and
// labelled Prometheus families, the key views, PromLabelEscape, the custom
// rows (histogram, per-shard counts, audit levels), and the well-formedness
// of every table the service and the auditor export.

#include "base/metric_table.h"

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "audit/audit.h"
#include "service/metrics.h"
#include "service/sanitization_service.h"
#include "service/shard_router.h"

namespace geopriv {
namespace {

using metric::Value;

std::string Render(const Value& value) {
  std::string out;
  metric::AppendValue(out, value);
  return out;
}

// A toy surface: two integers, a real, a JSON-only field and a custom row.
struct Toy {
  uint64_t hits = 0;
  int64_t delta = 0;
  double ratio = 0.0;
  int mode = 0;
  std::vector<int> parts;
};

void AppendPartsJson(const Toy& t, std::string& out) {
  out += '[';
  for (size_t i = 0; i < t.parts.size(); ++i) {
    if (i > 0) out += ',';
    metric::AppendValue(out, metric::Int(t.parts[i]));
  }
  out += ']';
}

void AppendPartsProm(const Toy& t, std::string_view prefix, std::string& out) {
  const metric::Family family = metric::Gauge("parts");
  metric::AppendTypeLine(out, prefix, family);
  for (size_t i = 0; i < t.parts.size(); ++i) {
    metric::AppendSample(out, prefix, family.name,
                         "{part=\"" + std::to_string(i) + "\"}",
                         metric::Int(t.parts[i]), {});
  }
}

constexpr metric::Row<Toy> kToyTable[] = {
    {"hits", metric::Counter("hits_total"),
     [](const Toy& t) { return metric::Int(t.hits); }},
    {"delta", metric::Gauge("delta"),
     [](const Toy& t) { return metric::Int(t.delta); }},
    {"mode", metric::kJsonOnly,
     [](const Toy& t) { return metric::Int(t.mode); }},
    {.json_key = "parts",
     .emit_json = AppendPartsJson,
     .emit_prom = AppendPartsProm},
    {"ratio", metric::Gauge("ratio"),
     [](const Toy& t) { return metric::Fixed6(t.ratio); }},
};

// The same rows minus the custom one's Prometheus emitter: a JSON-only
// custom row.
constexpr metric::Row<Toy> kToyJsonOnlyCustomTable[] = {
    {"hits", metric::Counter("hits_total"),
     [](const Toy& t) { return metric::Int(t.hits); }},
    {.json_key = "parts", .emit_json = AppendPartsJson},
};

Toy SampleToy() {
  Toy t;
  t.hits = 7;
  t.delta = -2;
  t.ratio = 0.25;
  t.mode = 3;
  t.parts = {4, 5};
  return t;
}

// ---------------------------------------------------------------------------
// Values.

TEST(MetricValueTest, IntPicksSignednessFromTheArgumentType) {
  const Value s = metric::Int(int32_t{-5});
  EXPECT_EQ(s.kind, Value::Kind::kSigned);
  EXPECT_EQ(s.s, -5);
  const Value u = metric::Int(uint8_t{200});
  EXPECT_EQ(u.kind, Value::Kind::kUnsigned);
  EXPECT_EQ(u.u, 200u);
  EXPECT_EQ(u.format, nullptr);
}

TEST(MetricValueTest, SignedExtremesPrintInDecimal) {
  EXPECT_EQ(Render(metric::Int(int64_t{-1})), "-1");
  EXPECT_EQ(Render(metric::Int(std::numeric_limits<int64_t>::min())),
            "-9223372036854775808");
  EXPECT_EQ(Render(metric::Int(std::numeric_limits<int64_t>::max())),
            "9223372036854775807");
}

TEST(MetricValueTest, UnsignedMaxPrintsInDecimal) {
  EXPECT_EQ(Render(metric::Int(std::numeric_limits<uint64_t>::max())),
            "18446744073709551615");
  EXPECT_EQ(Render(metric::Int(uint64_t{0})), "0");
}

TEST(MetricValueTest, RealPrintsWithItsOwnFormat) {
  EXPECT_EQ(Render(metric::Fixed6(1.5)), "1.500000");
  EXPECT_EQ(Render(metric::General9(0.1)), "0.1");
  EXPECT_EQ(Render(metric::General9(123456789012.0)), "1.23456789e+11");
  EXPECT_EQ(Render(metric::RoundTrip(0.1)), "0.10000000000000001");
  EXPECT_EQ(Render(metric::Real(2.0, metric::kFixed9)), "2.000000000");
}

TEST(MetricValueTest, RoundTripPrecisionSeparatesAdjacentDoubles) {
  const double a = 0.3;
  const double b = std::nextafter(a, 1.0);
  const std::string ra = Render(metric::RoundTrip(a));
  const std::string rb = Render(metric::RoundTrip(b));
  EXPECT_NE(ra, rb);
  EXPECT_EQ(std::strtod(ra.c_str(), nullptr), a);
  EXPECT_EQ(std::strtod(rb.c_str(), nullptr), b);
}

TEST(MetricValueTest, LargestDoublesPrintUntruncatedInFixedNine) {
  for (const double v : {DBL_MAX, -DBL_MAX}) {
    const std::string out = Render(metric::Real(v, metric::kFixed9));
    EXPECT_EQ(out.size(), (v < 0 ? 1u : 0u) + 309u + 1u + 9u) << out;
    EXPECT_EQ(out.substr(out.size() - 10), ".000000000");
    EXPECT_EQ(std::strtod(out.c_str(), nullptr), v);
  }
}

TEST(MetricValueTest, AppendValueAppendsWithoutClearing) {
  std::string out = "x=";
  metric::AppendValue(out, metric::Int(42));
  metric::AppendValue(out, metric::Fixed6(0.5));
  EXPECT_EQ(out, "x=420.500000");
}

TEST(MetricFamilyTest, CounterAndGaugeCarryTheirType) {
  constexpr metric::Family c = metric::Counter("c_total");
  constexpr metric::Family g = metric::Gauge("g");
  EXPECT_STREQ(c.name, "c_total");
  EXPECT_STREQ(c.type, "counter");
  EXPECT_STREQ(g.name, "g");
  EXPECT_STREQ(g.type, "gauge");
}

TEST(MetricFamilyTest, JsonOnlyHasNoFamily) {
  EXPECT_EQ(metric::kJsonOnly.name, nullptr);
  EXPECT_EQ(metric::kJsonOnly.type, nullptr);
}

// ---------------------------------------------------------------------------
// Prometheus lines.

TEST(MetricPrometheusTest, TypeLinePrefixesTheFamilyName) {
  std::string out;
  metric::AppendTypeLine(out, "geopriv_", metric::Counter("hits_total"));
  metric::AppendTypeLine(out, "", metric::Gauge("depth"));
  EXPECT_EQ(out,
            "# TYPE geopriv_hits_total counter\n"
            "# TYPE depth gauge\n");
}

TEST(MetricPrometheusTest, SampleDefaultsToTheJsonRendering) {
  std::string out;
  metric::AppendSample(out, "p_", "a", "", metric::Int(uint64_t{3}), {});
  metric::AppendSample(out, "p_", "b", "", metric::Int(int64_t{-3}), {});
  metric::AppendSample(out, "p_", "c", "", metric::Fixed6(0.125), {});
  EXPECT_EQ(out,
            "p_a 3\n"
            "p_b -3\n"
            "p_c 0.125000\n");
}

TEST(MetricPrometheusTest, RealFormatReplacesOnlyRealValues) {
  const metric::PromFormat format{metric::kFixed9};
  std::string out;
  metric::AppendSample(out, "", "n", "", metric::Int(uint64_t{12}), format);
  metric::AppendSample(out, "", "r", "", metric::Fixed6(0.125), format);
  EXPECT_EQ(out,
            "n 12\n"
            "r 0.125000000\n");
}

TEST(MetricPrometheusTest, AllRealPrintsIntegersAsDoubles) {
  const metric::PromFormat format{metric::kGeneral9, /*all_real=*/true};
  std::string out;
  metric::AppendSample(out, "", "u", "", metric::Int(uint64_t{7}), format);
  metric::AppendSample(out, "", "s", "", metric::Int(int64_t{-3}), format);
  metric::AppendSample(out, "", "big", "",
                       metric::Int(uint64_t{12345678901}), format);
  metric::AppendSample(out, "", "r", "", metric::Fixed6(0.1), format);
  EXPECT_EQ(out,
            "u 7\n"
            "s -3\n"
            "big 1.23456789e+10\n"
            "r 0.1\n");
}

TEST(MetricPrometheusTest, SampleCarriesLabelsVerbatim) {
  std::string out;
  metric::AppendSample(out, "p_", "hits", "{region=\"a\\\"b\"}",
                       metric::Int(1), {});
  EXPECT_EQ(out, "p_hits{region=\"a\\\"b\"} 1\n");
}

// ---------------------------------------------------------------------------
// Table renderers over the toy table.

TEST(MetricTableRenderTest, JsonObjectFollowsTableOrder) {
  std::string out;
  metric::AppendJson(kToyTable, SampleToy(), out);
  EXPECT_EQ(out,
            "{\"hits\":7,\"delta\":-2,\"mode\":3,\"parts\":[4,5],"
            "\"ratio\":0.250000}");
}

TEST(MetricTableRenderTest, JsonCustomRowEmitsAfterItsKey) {
  Toy t = SampleToy();
  t.parts.clear();
  std::string out;
  metric::AppendJson(kToyJsonOnlyCustomTable, t, out);
  EXPECT_EQ(out, "{\"hits\":7,\"parts\":[]}");
}

TEST(MetricTableRenderTest, JsonAppendsToExistingOutput) {
  std::string out = "[";
  metric::AppendJson(kToyJsonOnlyCustomTable, SampleToy(), out);
  out += ',';
  metric::AppendJson(kToyJsonOnlyCustomTable, Toy{}, out);
  out += ']';
  EXPECT_EQ(out, "[{\"hits\":7,\"parts\":[4,5]},{\"hits\":0,\"parts\":[]}]");
}

TEST(MetricTableRenderTest, PrometheusSkipsJsonOnlyRows) {
  std::string out;
  metric::AppendPrometheus(kToyTable, SampleToy(), "t_", out);
  EXPECT_EQ(out.find("mode"), std::string::npos) << out;
}

TEST(MetricTableRenderTest, PrometheusCustomRowEmitsAtItsPlace) {
  std::string out;
  metric::AppendPrometheus(kToyTable, SampleToy(), "t_", out);
  EXPECT_EQ(out,
            "# TYPE t_hits_total counter\n"
            "t_hits_total 7\n"
            "# TYPE t_delta gauge\n"
            "t_delta -2\n"
            "# TYPE t_parts gauge\n"
            "t_parts{part=\"0\"} 4\n"
            "t_parts{part=\"1\"} 5\n"
            "# TYPE t_ratio gauge\n"
            "t_ratio 0.250000\n");
}

TEST(MetricTableRenderTest, PrometheusCustomRowWithoutEmitterIsJsonOnly) {
  std::string out;
  metric::AppendPrometheus(kToyJsonOnlyCustomTable, SampleToy(), "t_", out);
  EXPECT_EQ(out,
            "# TYPE t_hits_total counter\n"
            "t_hits_total 7\n");
}

TEST(MetricTableRenderTest, PrometheusAppliesTheTableFormat) {
  std::string out;
  metric::AppendPrometheus(kToyTable, SampleToy(), "", out,
                           {metric::kRoundTrip, /*all_real=*/false});
  EXPECT_NE(out.find("\nhits_total 7\n"), std::string::npos) << out;
  EXPECT_NE(out.find("\nratio 0.25\n"), std::string::npos) << out;
}

TEST(MetricTableRenderTest, LabelledPrometheusIsFamilyMajor) {
  Toy a = SampleToy();
  Toy b;
  b.hits = 9;
  b.delta = 4;
  b.ratio = 1.0;
  const std::vector<Toy> items = {a, b};
  const std::vector<std::string> labels = {"a", "b\\\"c"};
  std::string out;
  metric::AppendLabelledPrometheus(kToyTable, items, "id", labels, "t_", out);
  EXPECT_EQ(out,
            "# TYPE t_hits_total counter\n"
            "t_hits_total{id=\"a\"} 7\n"
            "t_hits_total{id=\"b\\\"c\"} 9\n"
            "# TYPE t_delta gauge\n"
            "t_delta{id=\"a\"} -2\n"
            "t_delta{id=\"b\\\"c\"} 4\n"
            "# TYPE t_ratio gauge\n"
            "t_ratio{id=\"a\"} 0.250000\n"
            "t_ratio{id=\"b\\\"c\"} 1.000000\n");
}

TEST(MetricTableRenderTest, LabelledPrometheusSkipsJsonOnlyAndCustomRows) {
  const std::vector<Toy> items = {SampleToy()};
  const std::vector<std::string> labels = {"x"};
  std::string out;
  metric::AppendLabelledPrometheus(kToyTable, items, "id", labels, "t_", out);
  EXPECT_EQ(out.find("mode"), std::string::npos) << out;
  EXPECT_EQ(out.find("parts"), std::string::npos) << out;
}

TEST(MetricTableRenderTest, LabelledPrometheusAppliesTheTableFormat) {
  const std::vector<Toy> items = {SampleToy()};
  const std::vector<std::string> labels = {"x"};
  std::string out;
  metric::AppendLabelledPrometheus(kToyTable, items, "id", labels, "", out,
                                   {metric::kGeneral9, /*all_real=*/true});
  EXPECT_NE(out.find("hits_total{id=\"x\"} 7\n"), std::string::npos) << out;
  EXPECT_NE(out.find("ratio{id=\"x\"} 0.25\n"), std::string::npos) << out;
}

TEST(MetricTableRenderTest, JsonKeysFollowTableOrder) {
  constexpr auto keys = metric::JsonKeys(kToyTable);
  static_assert(keys.size() == 5);
  const std::vector<std::string> got(keys.begin(), keys.end());
  EXPECT_EQ(got,
            (std::vector<std::string>{"hits", "delta", "mode", "parts",
                                      "ratio"}));
}

// ---------------------------------------------------------------------------
// Escaping.

// Inverse of PromLabelEscape, for the round-trip check.
std::string PromLabelUnescape(const std::string& s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 == s.size()) {
      out += s[i];
      continue;
    }
    const char next = s[++i];
    out += next == 'n' ? '\n' : next;
  }
  return out;
}

TEST(PromLabelEscapeTest, EscapesBackslashQuoteAndNewline) {
  EXPECT_EQ(metric::PromLabelEscape("\\"), "\\\\");
  EXPECT_EQ(metric::PromLabelEscape("\""), "\\\"");
  EXPECT_EQ(metric::PromLabelEscape("\n"), "\\n");
  EXPECT_EQ(metric::PromLabelEscape("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
}

TEST(PromLabelEscapeTest, LeavesEverythingElseAlone) {
  EXPECT_EQ(metric::PromLabelEscape(""), "");
  EXPECT_EQ(metric::PromLabelEscape("\t\r"), "\t\r");
  EXPECT_EQ(metric::PromLabelEscape("caf\xc3\xa9 {x=1}"), "caf\xc3\xa9 {x=1}");
}

TEST(PromLabelEscapeTest, EveryByteRoundTripsAndLeavesNoBareSpecials) {
  std::string all;
  for (int c = 1; c < 256; ++c) all += static_cast<char>(c);
  const std::string escaped = metric::PromLabelEscape(all);
  EXPECT_EQ(PromLabelUnescape(escaped), all);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  // Every quote is preceded by an odd run of backslashes.
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '"') continue;
    size_t run = 0;
    while (run < i && escaped[i - 1 - run] == '\\') ++run;
    EXPECT_EQ(run % 2, 1u) << "bare quote at " << i;
  }
}

TEST(MetricJsonEscapeTest, MixedStringEscapesEachSpecialInPlace) {
  EXPECT_EQ(metric::JsonEscape(""), "");
  EXPECT_EQ(metric::JsonEscape("a\"b\\c\nd\x01" "e"),
            "a\\\"b\\\\c\\nd\\u0001e");
  EXPECT_EQ(service::JsonEscape("x\ty"), metric::JsonEscape("x\ty"));
}

// ---------------------------------------------------------------------------
// Custom rows of the exported tables.

TEST(MetricCustomRowTest, ShardRequestsJsonIsAnArrayPerShard) {
  service::RoutingSnapshot s;
  std::string out;
  service::AppendShardRequestsJson(s, out);
  EXPECT_EQ(out, "[]");
  s.requests = {3, 0, 5};
  out.clear();
  service::AppendShardRequestsJson(s, out);
  EXPECT_EQ(out, "[3,0,5]");
}

TEST(MetricCustomRowTest, ShardRequestsPromLabelsEachShard) {
  service::RoutingSnapshot s;
  s.requests = {3, 0};
  std::string out;
  service::AppendShardRequestsProm(s, "p_", out);
  EXPECT_EQ(out,
            "# TYPE p_shard_requests counter\n"
            "p_shard_requests{shard=\"0\"} 3\n"
            "p_shard_requests{shard=\"1\"} 0\n");
}

TEST(MetricCustomRowTest, RoutingOffImbalancePrintsBareZero) {
  std::string out;
  metric::AppendJson(service::kShardTable, service::RoutingSnapshot{}, out);
  EXPECT_EQ(out,
            "{\"num_shards\":0,\"vnodes_per_shard\":0,\"requests\":[],"
            "\"requests_total\":0,\"shard_imbalance_ratio\":0}");
  service::RoutingSnapshot on;
  on.num_shards = 2;
  on.requests = {1, 1};
  on.requests_total = 2;
  on.imbalance_ratio = 1.0;
  out.clear();
  metric::AppendJson(service::kShardTable, on, out);
  EXPECT_NE(out.find("\"shard_imbalance_ratio\":1.000000}"),
            std::string::npos)
      << out;
}

audit::RegionAuditReport TwoLevelReport() {
  audit::RegionAuditReport report;
  report.height = 2;
  audit::LevelAudit l1;
  l1.level = 1;
  l1.nodes = 1;
  l1.weight = 1.0;
  audit::LevelAudit l2;
  l2.level = 2;
  l2.nodes = 3;
  l2.weight = 0.5;
  report.levels = {l1, l2};
  return report;
}

TEST(MetricCustomRowTest, LevelsJsonIsAnArrayOfLevelObjects) {
  std::string out;
  audit::AppendLevelsJson(audit::RegionAuditReport{}, out);
  EXPECT_EQ(out, "[]");
  out.clear();
  const audit::RegionAuditReport report = TwoLevelReport();
  audit::AppendLevelsJson(report, out);
  std::string expected = "[";
  metric::AppendJson(audit::kAuditLevelTable, report.levels[0], expected);
  expected += ',';
  metric::AppendJson(audit::kAuditLevelTable, report.levels[1], expected);
  expected += ']';
  EXPECT_EQ(out, expected);
  EXPECT_EQ(out.find("{\"level\":1,\"nodes\":1,\"weight\":1,"), 1u) << out;
}

TEST(MetricCustomRowTest, LevelsPromLabelsEachLevel) {
  std::string out;
  audit::AppendLevelsProm(TwoLevelReport(), "p_", out);
  EXPECT_EQ(out.rfind("# TYPE p_level_nodes gauge\n"
                      "p_level_nodes{level=\"1\"} 1\n"
                      "p_level_nodes{level=\"2\"} 3\n"
                      "# TYPE p_level_weight gauge\n"
                      "p_level_weight{level=\"1\"} 1\n"
                      "p_level_weight{level=\"2\"} 0.5\n",
                      0),
            0u)
      << out;
  // "level" itself is JSON-only: it is the label, not a family.
  EXPECT_EQ(out.find("p_level "), std::string::npos) << out;
  EXPECT_EQ(out.find("p_level{"), std::string::npos) << out;
}

TEST(MetricCustomRowTest, LatencyBoundsJsonHasOneIncreasingBoundPerBucket) {
  std::string out;
  service::AppendLatencyBoundsJson(service::MetricsSnapshot{}, out);
  ASSERT_GE(out.size(), 2u);
  ASSERT_EQ(out.front(), '[');
  ASSERT_EQ(out.back(), ']');
  std::vector<double> bounds;
  const char* p = out.c_str() + 1;
  while (*p != ']' && *p != '\0') {
    char* end = nullptr;
    bounds.push_back(std::strtod(p, &end));
    ASSERT_NE(end, p) << out;
    p = *end == ',' ? end + 1 : end;
  }
  ASSERT_EQ(bounds.size(),
            static_cast<size_t>(service::LatencyHistogram::kNumBuckets));
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]) << "bucket " << i;
  }
}

TEST(MetricCustomRowTest, LatencyHistogramPromEndsWithInfSumAndCount) {
  service::MetricsSnapshot s;
  s.latency_count = 4;
  s.latency_sum_seconds = 0.5;
  for (size_t i = 0; i < s.latency_buckets.size(); ++i) {
    s.latency_buckets[i] = i < 3 ? i : 4;
  }
  std::string out;
  service::AppendLatencyHistogramProm(s, "p_", out);
  EXPECT_EQ(out.rfind("# TYPE p_request_latency_seconds histogram\n", 0), 0u);
  const std::string tail =
      "p_request_latency_seconds_bucket{le=\"+Inf\"} 4\n"
      "p_request_latency_seconds_sum 0.500000000\n"
      "p_request_latency_seconds_count 4\n";
  ASSERT_GE(out.size(), tail.size());
  EXPECT_EQ(out.substr(out.size() - tail.size()), tail);
  // One `le` bucket per histogram slot, the overflow slot's as +Inf.
  size_t buckets = 0;
  for (size_t at = out.find("_bucket{le=\""); at != std::string::npos;
       at = out.find("_bucket{le=\"", at + 1)) {
    ++buckets;
  }
  EXPECT_EQ(buckets,
            static_cast<size_t>(service::LatencyHistogram::kNumBuckets));
}

// ---------------------------------------------------------------------------
// Every exported table is well formed.

bool IsPrometheusName(std::string_view name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':';
    const bool digit = c >= '0' && c <= '9';
    if (!alpha && !(digit && i > 0)) return false;
  }
  return true;
}

// Checks each row of `rows` against a default `snapshot`: a non-empty key
// that needs no JSON escaping and appears once; exactly one of a getter
// and a custom JSON emitter; families only on getter rows, typed counter
// or gauge, with valid names; Prometheus emitters only on custom rows; and
// getters whose real values carry a format and integers none.
template <class S, size_t N>
void ExpectWellFormed(const metric::Row<S> (&rows)[N], const S& snapshot) {
  std::set<std::string> keys;
  std::set<std::string> families;
  for (const metric::Row<S>& row : rows) {
    ASSERT_NE(row.json_key, nullptr);
    const std::string key = row.json_key;
    SCOPED_TRACE("key " + key);
    EXPECT_FALSE(key.empty());
    EXPECT_EQ(metric::JsonEscape(key), key);
    EXPECT_TRUE(keys.insert(key).second) << "duplicate JSON key";
    EXPECT_NE(row.get == nullptr, row.emit_json == nullptr)
        << "a row needs exactly one of a getter and a JSON emitter";
    if (row.family.name != nullptr) {
      EXPECT_NE(row.get, nullptr) << "family rows print one value";
      EXPECT_TRUE(IsPrometheusName(row.family.name)) << row.family.name;
      ASSERT_NE(row.family.type, nullptr);
      const std::string type = row.family.type;
      EXPECT_TRUE(type == "counter" || type == "gauge") << type;
      EXPECT_TRUE(families.insert(row.family.name).second)
          << "duplicate family " << row.family.name;
    } else {
      EXPECT_EQ(row.family.type, nullptr);
    }
    if (row.emit_prom != nullptr) {
      EXPECT_EQ(row.get, nullptr) << "only custom rows emit families";
    }
    if (row.get != nullptr) {
      const Value value = row.get(snapshot);
      EXPECT_EQ(value.kind == Value::Kind::kReal, value.format != nullptr);
    }
  }
}

TEST(MetricTableSchemaTest, MetricsTableIsWellFormed) {
  ExpectWellFormed(service::kMetricsTable, service::MetricsSnapshot{});
}

TEST(MetricTableSchemaTest, ServiceTableIsWellFormed) {
  ExpectWellFormed(service::kServiceTable, service::ServiceScrape{});
}

TEST(MetricTableSchemaTest, TraceTableIsWellFormed) {
  ExpectWellFormed(service::kTraceTable, service::ServiceScrape{});
}

TEST(MetricTableSchemaTest, RegionTableIsWellFormed) {
  ExpectWellFormed(service::kRegionTable, service::RegionScrape{});
}

TEST(MetricTableSchemaTest, ShardTableIsWellFormed) {
  ExpectWellFormed(service::kShardTable, service::RoutingSnapshot{});
}

TEST(MetricTableSchemaTest, AuditReportTableIsWellFormed) {
  ExpectWellFormed(audit::kAuditReportTable, audit::RegionAuditReport{});
}

TEST(MetricTableSchemaTest, AuditLevelTableIsWellFormed) {
  ExpectWellFormed(audit::kAuditLevelTable, audit::LevelAudit{});
}

template <class S, size_t N>
void CollectFamilies(const metric::Row<S> (&rows)[N],
                     std::vector<std::string>& out) {
  for (const metric::Row<S>& row : rows) {
    if (row.family.name != nullptr) out.push_back(row.family.name);
  }
}

TEST(MetricTableSchemaTest, ServiceFamiliesAreUniqueAcrossTables) {
  // Everything MetricsText() can declare under its one prefix, including
  // the families the custom rows emit.
  std::vector<std::string> names = {"request_latency_seconds",
                                    "shard_requests"};
  CollectFamilies(service::kMetricsTable, names);
  CollectFamilies(service::kServiceTable, names);
  CollectFamilies(service::kTraceTable, names);
  CollectFamilies(service::kRegionTable, names);
  CollectFamilies(service::kShardTable, names);
  std::set<std::string> seen;
  for (const std::string& name : names) {
    EXPECT_TRUE(seen.insert(name).second) << "family declared twice: " << name;
    // A histogram family owns its _bucket/_sum/_count series.
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      EXPECT_NE(name, std::string("request_latency_seconds") + suffix);
    }
  }
}

TEST(MetricTableSchemaTest, AuditFamiliesAreUniqueAcrossReportAndLevels) {
  std::vector<std::string> names;
  CollectFamilies(audit::kAuditReportTable, names);
  CollectFamilies(audit::kAuditLevelTable, names);
  const std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
  // Level families are told apart from report families by their prefix.
  for (const metric::Row<audit::LevelAudit>& row : audit::kAuditLevelTable) {
    if (row.family.name == nullptr) continue;
    EXPECT_EQ(std::string_view(row.family.name).substr(0, 6), "level_")
        << row.family.name;
  }
}

TEST(MetricTableSchemaTest, RegionJsonOnlyKeysAreTheDocumentedThirteen) {
  std::vector<std::string> json_only;
  for (const auto& row : service::kRegionTable) {
    if (row.family.name == nullptr) json_only.push_back(row.json_key);
  }
  EXPECT_EQ(std::size(service::kRegionTable), 35u);
  EXPECT_EQ(json_only,
            (std::vector<std::string>{
                "eps", "height", "leaf_cells_per_axis", "lp_pricing_seconds",
                "lp_simplex_seconds", "lp_violations", "degraded_rows",
                "uniform_prior_fallbacks", "cache_byte_budget",
                "cache_hit_rate", "prewarmed_nodes", "plan_levels",
                "fallthrough_levels"}));
}

TEST(MetricTableSchemaTest, AuditLevelsRowStaysLast) {
  const auto& last =
      audit::kAuditReportTable[std::size(audit::kAuditReportTable) - 1];
  EXPECT_STREQ(last.json_key, "levels");
  EXPECT_NE(last.emit_json, nullptr);
  EXPECT_NE(last.emit_prom, nullptr);
  for (size_t i = 0; i + 1 < std::size(audit::kAuditReportTable); ++i) {
    EXPECT_NE(audit::kAuditReportTable[i].get, nullptr)
        << audit::kAuditReportTable[i].json_key;
  }
}

}  // namespace
}  // namespace geopriv
