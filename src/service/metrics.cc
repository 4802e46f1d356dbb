#include "service/metrics.h"

#include <algorithm>
#include <cmath>

namespace geopriv::service {

double LatencyHistogram::BucketBound(int i) {
  return kFirstBoundSeconds * static_cast<double>(1ull << i);
}

void LatencyHistogram::Record(double seconds) {
  if (!(seconds >= 0.0)) {
    seconds = 0.0;  // NaN or negative
  } else if (!std::isfinite(seconds)) {
    seconds = BucketBound(kNumBuckets - 1);  // +inf: clamp, don't poison
  }
  int bucket = 0;
  while (bucket < kNumBuckets - 1 && seconds > BucketBound(bucket)) {
    ++bucket;
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_seconds_.fetch_add(seconds, std::memory_order_relaxed);
}

void LatencyHistogram::AccumulateBuckets(BucketCounts& counts) const {
  for (int i = 0; i < kNumBuckets; ++i) {
    counts[static_cast<size_t>(i)] +=
        buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }
}

double LatencyHistogram::QuantileFromBuckets(const BucketCounts& counts,
                                             double q) {
  q = std::clamp(q, 0.0, 1.0);
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    const uint64_t c = counts[static_cast<size_t>(i)];
    if (c == 0) continue;
    const uint64_t next = seen + c;
    if (static_cast<double>(next) >= target) {
      // Linear interpolation inside the bucket's [lower, upper) span.
      const double lower = i == 0 ? 0.0 : BucketBound(i - 1);
      const double upper = BucketBound(i);
      const double within = (target - static_cast<double>(seen)) / c;
      return lower + within * (upper - lower);
    }
    seen = next;
  }
  return BucketBound(kNumBuckets - 1);
}

Metrics::Metrics(int num_slots)
    : slots_(static_cast<size_t>(num_slots > 0 ? num_slots : 1)) {}

MetricsSnapshot Metrics::Snapshot() const {
  MetricsSnapshot s;
  LatencyHistogram::BucketCounts buckets{};
  double latency_sum_seconds = 0.0;
  for (const Slot& slot : slots_) {
    s.requests_total += slot.requests_total.load(std::memory_order_relaxed);
    s.requests_ok += slot.requests_ok.load(std::memory_order_relaxed);
    s.requests_rejected +=
        slot.requests_rejected.load(std::memory_order_relaxed);
    s.requests_failed += slot.requests_failed.load(std::memory_order_relaxed);
    s.fallbacks_total += slot.fallbacks_total.load(std::memory_order_relaxed);
    s.fallbacks_deadline +=
        slot.fallbacks_deadline.load(std::memory_order_relaxed);
    s.fallbacks_mechanism +=
        slot.fallbacks_mechanism.load(std::memory_order_relaxed);
    s.deadline_overruns +=
        slot.deadline_overruns.load(std::memory_order_relaxed);
    s.bundle_loads += slot.bundle_loads.load(std::memory_order_relaxed);
    s.bundle_load_seconds +=
        slot.bundle_load_seconds.load(std::memory_order_relaxed);
    s.bundle_bytes_mapped +=
        slot.bundle_bytes_mapped.load(std::memory_order_relaxed);
    s.plan_warm_at_startup +=
        slot.plan_warm_at_startup.load(std::memory_order_relaxed);
    s.audit_runs += slot.audit_runs.load(std::memory_order_relaxed);
    s.audit_nodes_audited +=
        slot.audit_nodes_audited.load(std::memory_order_relaxed);
    s.audit_skipped_nodes +=
        slot.audit_skipped_nodes.load(std::memory_order_relaxed);
    s.audit_drift_events +=
        slot.audit_drift_events.load(std::memory_order_relaxed);
    s.audit_tasks_rejected +=
        slot.audit_tasks_rejected.load(std::memory_order_relaxed);
    s.audit_baseline_errors +=
        slot.audit_baseline_errors.load(std::memory_order_relaxed);
    s.audit_seconds += slot.audit_seconds.load(std::memory_order_relaxed);
    s.latency_count += slot.latency.count();
    latency_sum_seconds += slot.latency.total_seconds();
    slot.latency.AccumulateBuckets(buckets);
  }
  s.latency_sum_seconds = latency_sum_seconds;
  // Per-bucket counts -> cumulative (Prometheus `le`) counts.
  uint64_t running = 0;
  for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    running += buckets[static_cast<size_t>(i)];
    s.latency_buckets[static_cast<size_t>(i)] = running;
  }
  s.latency_p50_ms = LatencyHistogram::QuantileFromBuckets(buckets, 0.50) * 1e3;
  s.latency_p90_ms = LatencyHistogram::QuantileFromBuckets(buckets, 0.90) * 1e3;
  s.latency_p99_ms = LatencyHistogram::QuantileFromBuckets(buckets, 0.99) * 1e3;
  s.latency_mean_ms =
      s.latency_count == 0
          ? 0.0
          : latency_sum_seconds / static_cast<double>(s.latency_count) * 1e3;
  return s;
}

std::string Metrics::ToJson() const {
  std::string json;
  metric::AppendJson(kMetricsTable, Snapshot(), json);
  return json;
}

std::string Metrics::ToPrometheus(const std::string& prefix) const {
  std::string text;
  metric::AppendPrometheus(kMetricsTable, Snapshot(), prefix, text,
                           kMetricsPromFormat);
  return text;
}

// Bucket upper bounds in seconds. The last bucket is open-ended; its bound
// here is nominal.
void AppendLatencyBoundsJson(const MetricsSnapshot&, std::string& out) {
  for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    out += i == 0 ? '[' : ',';
    metric::AppendValue(out,
                        metric::General9(LatencyHistogram::BucketBound(i)));
  }
  out += ']';
}

// Cumulative counts; the last equals latency_count.
void AppendLatencyCountsJson(const MetricsSnapshot& s, std::string& out) {
  for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    out += i == 0 ? '[' : ',';
    metric::AppendValue(
        out, metric::Int(s.latency_buckets[static_cast<size_t>(i)]));
  }
  out += ']';
}

void AppendLatencyHistogramProm(const MetricsSnapshot& s,
                                std::string_view prefix, std::string& out) {
  metric::AppendTypeLine(out, prefix,
                         {"request_latency_seconds", "histogram"});
  const auto sample = [&](const char* suffix, const std::string& labels,
                          const metric::Value& value) {
    const std::string name = std::string("request_latency_seconds") + suffix;
    metric::AppendSample(out, prefix, name.c_str(), labels, value, {});
  };
  // The top bucket is the histogram's overflow bucket, so its exposition
  // bound is +Inf (not the nominal BucketBound of the last slot).
  for (int i = 0; i + 1 < LatencyHistogram::kNumBuckets; ++i) {
    std::string le;
    metric::AppendValue(le,
                        metric::General9(LatencyHistogram::BucketBound(i)));
    sample("_bucket", "{le=\"" + le + "\"}",
           metric::Int(s.latency_buckets[static_cast<size_t>(i)]));
  }
  sample("_bucket", "{le=\"+Inf\"}", metric::Int(s.latency_count));
  sample("_sum", "", metric::Real(s.latency_sum_seconds, metric::kFixed9));
  sample("_count", "", metric::Int(s.latency_count));
}

}  // namespace geopriv::service
