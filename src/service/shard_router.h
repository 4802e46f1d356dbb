// ShardRouter: deterministic consistent-hash routing of region ids onto a
// fixed set of virtual serving shards.
//
// The build/serve split (src/bundle/) makes regions cheap to load anywhere
// — a serving process mmaps a bundle and is warm in milliseconds — so a
// fleet can spread regions across processes instead of packing every
// region into one. The router is the placement function: it hashes each
// region id onto a ring of `vnodes_per_shard` points per shard and routes
// to the owner of the first ring point at or after the id's hash. The
// ring is built from the shard count alone (FNV-1a of "shard-<s>:<v>"),
// so every process that constructs a ShardRouter with the same
// (num_shards, vnodes_per_shard) computes the same placement — no
// coordination service, no routing-table distribution.
//
// Consistent hashing keeps the map stable under resizing: growing from N
// to N+1 shards moves only ~1/(N+1) of the regions, so a fleet can scale
// out without re-mapping (and thus re-loading) every region's bundle.
// Virtual nodes smooth the per-shard load imbalance to O(1/sqrt(vnodes)).
//
// Per-shard request counters are cache-line padded and relaxed — the
// recording path is one hash + binary search + one fetch_add, safe to
// call from every worker concurrently. RoutingTableJson() exposes the
// table and counters for dashboards.

#ifndef GEOPRIV_SERVICE_SHARD_ROUTER_H_
#define GEOPRIV_SERVICE_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/metric_table.h"
#include "base/sharded_counter.h"

namespace geopriv::service {

// The router's counters read in one pass, so the per-shard counts, the
// total and the imbalance ratio agree even under concurrent recording.
struct RoutingSnapshot {
  int num_shards = 0;
  int vnodes_per_shard = 0;
  std::vector<uint64_t> requests;  // per shard
  uint64_t requests_total = 0;
  // Max per-shard count over the even share (total / num_shards): 1.0 =
  // perfectly balanced, num_shards = everything on one shard, 0 while no
  // requests have been recorded.
  double imbalance_ratio = 0.0;
};

// The "requests" row of kShardTable (shard_router.cc): a JSON array, and
// one counter sample per shard labelled {shard="<s>"}.
void AppendShardRequestsJson(const RoutingSnapshot& s, std::string& out);
void AppendShardRequestsProm(const RoutingSnapshot& s,
                             std::string_view prefix, std::string& out);

// The schema of ShardRouter::RoutingTableJson() (the "shards" object in
// SanitizationService::MetricsJson()) and of the service's shard families,
// in emission order. Extend at the end only.
inline constexpr metric::Row<RoutingSnapshot> kShardTable[] = {
    {"num_shards", metric::Gauge("shard_count"),
     [](const auto& s) { return metric::Int(s.num_shards); }},
    {"vnodes_per_shard", metric::kJsonOnly,
     [](const auto& s) { return metric::Int(s.vnodes_per_shard); }},
    {.json_key = "requests",
     .emit_json = AppendShardRequestsJson,
     .emit_prom = AppendShardRequestsProm},
    {"requests_total", metric::Counter("shard_requests_cumulative_total"),
     [](const auto& s) { return metric::Int(s.requests_total); }},
    // With routing off the empty table prints a bare 0.
    {"shard_imbalance_ratio", metric::Gauge("shard_imbalance_ratio"),
     [](const auto& s) {
       return s.num_shards == 0 ? metric::Int(0)
                                : metric::Fixed6(s.imbalance_ratio);
     }},
};
inline constexpr auto kShardJsonKeys = metric::JsonKeys(kShardTable);

class ShardRouter {
 public:
  // `num_shards` >= 1; `vnodes_per_shard` >= 1 (64 is a good default:
  // ~12% relative load spread at 8 shards). Deterministic: same
  // arguments, same ring, in every process.
  explicit ShardRouter(int num_shards, int vnodes_per_shard = 64);

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  // The shard owning `region_id`, in [0, num_shards()). Pure function of
  // (ring, region_id); never records anything.
  int ShardFor(std::string_view region_id) const;

  // Counts one request against `shard` (as returned by ShardFor).
  // Relaxed, contention-free across workers; out-of-range shards are
  // ignored rather than UB.
  void RecordRequest(int shard) {
    if (shard < 0 || shard >= num_shards_) return;
    counters_[static_cast<size_t>(shard)].requests.fetch_add(
        1, std::memory_order_relaxed);
  }

  uint64_t requests(int shard) const {
    if (shard < 0 || shard >= num_shards_) return 0;
    return counters_[static_cast<size_t>(shard)].requests.load(
        std::memory_order_relaxed);
  }

  // Every counter in one relaxed pass (counters may be a few events
  // apart under concurrent recording, the standard trade).
  RoutingSnapshot Snapshot() const;

  int num_shards() const { return num_shards_; }
  int vnodes_per_shard() const { return vnodes_per_shard_; }

  // Snapshot() rendered from kShardTable.
  std::string RoutingTableJson() const;

 private:
  // One ring point: a shard replicated at position `hash`.
  struct VirtualNode {
    uint64_t hash;
    int shard;
  };

  struct alignas(kCounterSlotAlign) ShardCounters {
    std::atomic<uint64_t> requests{0};
  };

  int num_shards_;
  int vnodes_per_shard_;
  // Sorted by hash; lookup is a binary search with wraparound.
  std::vector<VirtualNode> ring_;
  // vector, not array: shard count is a runtime choice. Constructed once,
  // never resized — the atomics stay put.
  std::vector<ShardCounters> counters_;
};

}  // namespace geopriv::service

#endif  // GEOPRIV_SERVICE_SHARD_ROUTER_H_
