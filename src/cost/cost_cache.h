#ifndef CDPD_COST_COST_CACHE_H_
#define CDPD_COST_COST_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "common/metrics.h"
#include "common/resource_tracker.h"

namespace cdpd {

/// Persistent what-if cost cache: (statement fingerprint, configuration
/// bitmask) -> per-statement estimated cost. A CostCache outlives
/// individual Solve() calls and engines: a caller owns one, passes it
/// via SolveOptions::cost_cache, and every solve over the same cost
/// model and candidate universe reuses the costs of earlier solves — a
/// warm re-solve of an unchanged workload answers every shape-cost
/// column entry from the cache and costs nothing.
///
/// Keys. The statement fingerprint identifies a literal-erased
/// statement *shape* (the unit the what-if profiles collapse segments
/// into); the configuration bitmask is the CandidateSpace packed
/// identity. Both are 64-bit. Keying is sound only while masks are
/// exact (CandidateSpace::exact_masks()); the engine skips the cache
/// otherwise.
///
/// Invalidation. Cached costs are valid for exactly one cost-model
/// state. EnsureValid(token) compares the caller's validity token —
/// the WhatIfEngine derives it from CostModel::Fingerprint(), which
/// covers the schema, the row count, the cost parameters, and any
/// attached TableStats — and clears the cache (counting the dropped
/// entries as evictions and bumping invalidations()) when it changed:
/// a catalog or table-stats change silently refreshes rather than
/// serving stale costs.
///
/// Memory. Entries are accounted at kEntryBytes apiece (key + value +
/// amortized hash-table overhead). Two budgets apply:
///  * the cache's own `max_bytes` (constructor; 0 = unbounded): an
///    insert that would pass it evicts whole shards (coarse,
///    deterministic sweep order) until the new entry fits;
///  * the *solve's* SolveOptions::memory_limit_bytes: inserts
///    performed during a solve are charged to the solve's
///    ResourceTracker under MemComponent::kCostCache; a refused
///    reservation skips the insert (reads still work) and trips the
///    tracker's limit flag, so the solve degrades through the same
///    anytime machinery as a deadline.
///
/// Thread-safe: the table is sharded, each shard behind its own mutex,
/// and every counter is a relaxed atomic — concurrent solves may share
/// one cache (hits/misses observed across solves are then interleaved,
/// which is inherent to a shared cache).
class CostCache {
 public:
  /// `max_bytes` caps the cache's own footprint; <= 0 = unbounded.
  explicit CostCache(int64_t max_bytes = 0)
      : max_bytes_(max_bytes > 0 ? max_bytes : 0) {}
  CostCache(const CostCache&) = delete;
  CostCache& operator=(const CostCache&) = delete;

  /// Accounted bytes per entry: 16-byte key + 8-byte value + amortized
  /// node/bucket overhead of the unordered_map shards.
  static constexpr int64_t kEntryBytes = 64;

  /// Drops every entry unless the cache is already valid for `token`.
  /// Returns true when the cache was (re)validated by clearing, false
  /// when it was already valid. Call before a batch of Lookup/Insert
  /// against one cost-model state. `tracker` (optional) is the calling
  /// solve's ResourceTracker: the dropped entries' accounted bytes are
  /// returned to it under MemComponent::kCostCache, clamped to what
  /// that tracker is actually carrying (entries charged by an earlier,
  /// possibly dead tracker release nothing — see
  /// ResourceTracker::ReleaseUpTo).
  bool EnsureValid(uint64_t token, ResourceTracker* tracker = nullptr);

  /// Cached cost of (statement fingerprint, config mask), if present.
  /// Counts a hit or a miss.
  bool Lookup(uint64_t statement_fp, uint64_t config_mask,
              double* cost) const;

  /// Inserts a computed cost. `tracker` (optional) is the charging
  /// solve's ResourceTracker: the entry's bytes are reserved under
  /// MemComponent::kCostCache first, and a refusal (the solve's soft
  /// memory limit would be passed) skips the insert entirely — the
  /// cache never grows past a solve's budget. Returns true when the
  /// entry was stored. Idempotent for an existing key (no double
  /// charge; last write wins, and all writers compute the same value
  /// for a given validity token).
  bool Insert(uint64_t statement_fp, uint64_t config_mask, double cost,
              ResourceTracker* tracker = nullptr);

  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Times EnsureValid dropped a stale cache (token change).
  int64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }
  int64_t entries() const { return entries_.load(std::memory_order_relaxed); }
  /// Accounted footprint (entries() * kEntryBytes).
  int64_t ApproxBytes() const { return entries() * kEntryBytes; }
  int64_t max_bytes() const { return max_bytes_; }

  /// The validity token the cache currently holds (0 = never
  /// validated).
  uint64_t validity_token() const {
    return token_.load(std::memory_order_relaxed);
  }

  /// Mirrors the cache's *resident state* into `registry`: the
  /// "cost_cache.entries" and "cost_cache.bytes" gauges plus the
  /// "cost_cache.invalidations" gauge. The per-solve hit/miss/evict
  /// traffic is published as "cost_cache.hits" / "cost_cache.misses" /
  /// "cost_cache.evictions" counters by SolveStats::PublishTo (deltas
  /// of one solve, so the registry accumulates exactly the traffic it
  /// observed). No-op when `registry` is null.
  void PublishTo(MetricsRegistry* registry) const;

 private:
  struct Key {
    uint64_t statement_fp = 0;
    uint64_t config_mask = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const {
      // splitmix64-style mix of the two halves; both inputs are
      // already well-spread 64-bit values.
      uint64_t x = key.statement_fp ^ (key.config_mask * 0x9e3779b97f4a7c15ULL);
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ULL;
      x ^= x >> 27;
      x *= 0x94d049bb133111ebULL;
      x ^= x >> 31;
      return static_cast<size_t>(x);
    }
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, double, KeyHash> map;
  };
  static constexpr size_t kShards = 32;

  Shard& ShardFor(const Key& key) const {
    return shards_[KeyHash()(key) % kShards];
  }

  /// Evicts whole shards — resuming from where the previous sweep
  /// stopped (a rotating cursor, so repeated cap-pressure episodes
  /// visit every shard instead of starving the ones far from a hot
  /// insert shard) — until at least `needed` accounted bytes are free
  /// under max_bytes_. The dropped entries' bytes are returned to
  /// `tracker` (clamped; see ReleaseUpTo) so the inserting solve's
  /// kCostCache gauge tracks resident entries, not historical inserts.
  /// Caller must not hold any shard lock.
  void EvictForSpace(int64_t needed, ResourceTracker* tracker);

  const int64_t max_bytes_;
  std::atomic<size_t> sweep_cursor_{0};
  mutable std::array<Shard, kShards> shards_;
  std::atomic<uint64_t> token_{0};
  std::atomic<int64_t> entries_{0};
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> invalidations_{0};
  std::mutex validate_mu_;
};

}  // namespace cdpd

#endif  // CDPD_COST_COST_CACHE_H_
