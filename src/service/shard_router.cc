#include "service/shard_router.h"

#include <algorithm>
#include <cstdio>
#include <string>

namespace geopriv::service {

namespace {

// FNV-1a over bytes, finished with a splitmix64-style mixer. std::hash
// is implementation-defined, which would make placement differ across
// standard libraries; the router's whole point is that every process
// computes the same ring. Raw FNV-1a alone is not enough: its avalanche
// on short, similar strings ("shard-0:1" vs "shard-0:2") is weak, which
// clusters ring points into long same-shard arcs and skews placement
// badly. The finalizer spreads those near-collisions across the full
// 64-bit ring.
uint64_t Mix64(uint64_t h) {
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 31;
  return h;
}

uint64_t RingHash(std::string_view bytes) {
  uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return Mix64(h);
}

}  // namespace

ShardRouter::ShardRouter(int num_shards, int vnodes_per_shard)
    : num_shards_(std::max(1, num_shards)),
      vnodes_per_shard_(std::max(1, vnodes_per_shard)),
      counters_(static_cast<size_t>(num_shards_)) {
  ring_.reserve(static_cast<size_t>(num_shards_) *
                static_cast<size_t>(vnodes_per_shard_));
  char label[48];
  for (int s = 0; s < num_shards_; ++s) {
    for (int v = 0; v < vnodes_per_shard_; ++v) {
      std::snprintf(label, sizeof(label), "shard-%d:%d", s, v);
      ring_.push_back({RingHash(label), s});
    }
  }
  // Sort by hash; break the (astronomically unlikely) hash ties by shard
  // id so the ring order — and therefore placement — is fully determined.
  std::sort(ring_.begin(), ring_.end(),
            [](const VirtualNode& a, const VirtualNode& b) {
              return a.hash != b.hash ? a.hash < b.hash : a.shard < b.shard;
            });
}

int ShardRouter::ShardFor(std::string_view region_id) const {
  const uint64_t h = RingHash(region_id);
  // First ring point at or after h, wrapping to the start past the end —
  // the standard consistent-hash successor lookup.
  auto it = std::lower_bound(ring_.begin(), ring_.end(), h,
                             [](const VirtualNode& node, uint64_t key) {
                               return node.hash < key;
                             });
  if (it == ring_.end()) it = ring_.begin();
  return it->shard;
}

RoutingSnapshot ShardRouter::Snapshot() const {
  RoutingSnapshot s;
  s.num_shards = num_shards_;
  s.vnodes_per_shard = vnodes_per_shard_;
  s.requests.reserve(static_cast<size_t>(num_shards_));
  uint64_t max_shard = 0;
  for (int shard = 0; shard < num_shards_; ++shard) {
    const uint64_t r = requests(shard);
    s.requests.push_back(r);
    s.requests_total += r;
    max_shard = std::max(max_shard, r);
  }
  if (s.requests_total > 0) {
    s.imbalance_ratio = static_cast<double>(max_shard) * num_shards_ /
                        static_cast<double>(s.requests_total);
  }
  return s;
}

std::string ShardRouter::RoutingTableJson() const {
  std::string json;
  metric::AppendJson(kShardTable, Snapshot(), json);
  return json;
}

void AppendShardRequestsJson(const RoutingSnapshot& s, std::string& out) {
  out += '[';
  for (size_t i = 0; i < s.requests.size(); ++i) {
    if (i > 0) out += ',';
    metric::AppendValue(out, metric::Int(s.requests[i]));
  }
  out += ']';
}

void AppendShardRequestsProm(const RoutingSnapshot& s,
                             std::string_view prefix, std::string& out) {
  const metric::Family family = metric::Counter("shard_requests");
  metric::AppendTypeLine(out, prefix, family);
  for (size_t i = 0; i < s.requests.size(); ++i) {
    metric::AppendSample(out, prefix, family.name,
                         "{shard=\"" + std::to_string(i) + "\"}",
                         metric::Int(s.requests[i]), {});
  }
}

}  // namespace geopriv::service
