#ifndef CDPD_COST_WHAT_IF_H_
#define CDPD_COST_WHAT_IF_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "advisor/candidate_space.h"
#include "catalog/configuration.h"
#include "common/budget.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/progress.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/tracing.h"
#include "cost/cost_cache.h"
#include "cost/cost_model.h"
#include "workload/workload.h"

namespace cdpd {

/// One literal-erased statement shape aggregated over the *whole*
/// workload: the representative statement, its total multiplicity
/// across every segment, and its 64-bit fingerprint (the persistent
/// cost cache's statement key). Because every segment's EXEC cost is a
/// nonnegative-weighted sum of per-shape costs, any pointwise
/// inequality over these shapes transfers to every segment — the fact
/// dominance pruning (advisor/dominance.h) is built on.
struct WorkloadShape {
  BoundStatement representative;
  int64_t count = 0;
  uint64_t fingerprint = 0;
};

/// Dense EXEC/TRANS lookup tables over a pinned CandidateSpace —
/// the read-only phase the graph solvers consume after
/// WhatIfEngine::PrecomputeCostMatrix. Once built, every cost probe of
/// a solver inner loop is a plain array read: no hashing, no locks, no
/// shared mutable state. Configurations are addressed by ConfigId
/// only; the solvers materialize Configuration objects from the space
/// at the API boundary (the returned schedule), never inside the DP.
///
/// The tables are stored structure-of-arrays: the EXEC matrix row-major
/// by segment, a per-config prefix-sum table for O(1) range sums, and
/// the TRANS matrix in both orientations so a relaxation sweep over
/// predecessors reads one contiguous row (TransInto) instead of a
/// stride-m column.
class CostMatrix {
 public:
  CostMatrix() = default;
  CostMatrix(size_t num_segments, size_t num_configs)
      : num_segments_(num_segments),
        num_configs_(num_configs),
        exec_(num_segments * num_configs, 0.0),
        trans_(num_configs * num_configs, 0.0) {}

  size_t num_segments() const { return num_segments_; }
  size_t num_configs() const { return num_configs_; }

  /// Bytes the EXEC + prefix + TRANS (both orientations) tables of an
  /// (n x m) matrix occupy — what a solver charges to
  /// MemComponent::kCostMatrix before the precompute.
  static int64_t EstimateBytes(size_t num_segments, size_t num_configs) {
    return static_cast<int64_t>(
        (num_segments * num_configs +              // EXEC
         (num_segments + 1) * num_configs +        // prefix sums
         2 * num_configs * num_configs) *          // TRANS + transposed
        sizeof(double));
  }

  /// EXEC(S_segment, candidates[config]).
  double Exec(size_t segment, size_t config) const {
    return exec_[segment * num_configs_ + config];
  }
  /// EXEC(S_begin ∪ ... ∪ S_{end-1}, candidates[config]), computed as
  /// a difference of two precomputed per-config prefix sums (built by
  /// Finalize()) — O(1) whatever the range width. Equal to the
  /// segment-order forward sum up to floating-point re-association;
  /// every caller that reports a schedule cost recomputes the total
  /// through EvaluateScheduleCost, so the rounding difference never
  /// reaches a reported cost.
  double ExecRange(size_t begin, size_t end, size_t config) const {
    return exec_prefix_[end * num_configs_ + config] -
           exec_prefix_[begin * num_configs_ + config];
  }
  /// TRANS(candidates[from], candidates[to]).
  double Trans(size_t from, size_t to) const {
    return trans_[from * num_configs_ + to];
  }
  /// Contiguous row of transition costs *into* `to`: TransInto(to)[p]
  /// == Trans(p, to). This is the orientation the relaxation inner
  /// loops sweep (for a fixed destination, scan all predecessors), so
  /// the scan is a unit-stride read instead of a stride-m gather.
  const double* TransInto(size_t to) const {
    return trans_transposed_.data() + to * num_configs_;
  }

  double& MutableExec(size_t segment, size_t config) {
    return exec_[segment * num_configs_ + config];
  }
  double& MutableTrans(size_t from, size_t to) {
    return trans_[from * num_configs_ + to];
  }

  /// Per-universe-index build and drop costs of an exact-mask space:
  /// index_build_costs()[i] = BuildCost(universe()[i]), likewise drop.
  /// Every TRANS cell is the sum of these terms over the created and
  /// dropped bits, which is what lets the DP kernel's lattice path
  /// (core/relax_stage.h) price change edges without the m x m table.
  /// Empty for fingerprint-mask spaces.
  const std::vector<double>& index_build_costs() const { return build_; }
  const std::vector<double>& index_drop_costs() const { return drop_; }
  void SetIndexCosts(std::vector<double> build, std::vector<double> drop) {
    build_ = std::move(build);
    drop_ = std::move(drop);
  }

  /// Builds the derived SoA tables (per-config EXEC prefix sums and
  /// the transposed TRANS matrix) from the raw cells. Must be called
  /// after the fill and before ExecRange/TransInto; PrecomputeCostMatrix
  /// does this, so only hand-built matrices (tests) call it directly.
  void Finalize();

  /// False when a budget expired mid-precompute, leaving some cells
  /// unwritten. An incomplete matrix must not be read — the solvers
  /// check this and report DeadlineExceeded instead of consuming
  /// garbage costs.
  bool complete() const { return complete_; }
  void set_complete(bool complete) { complete_ = complete; }

 private:
  size_t num_segments_ = 0;
  size_t num_configs_ = 0;
  bool complete_ = true;
  std::vector<double> exec_;   // [segment * num_configs + config]
  std::vector<double> trans_;  // [from * num_configs + to]
  // Derived by Finalize():
  // exec_prefix_[(s) * m + c] = sum of exec over segments [0, s).
  std::vector<double> exec_prefix_;
  std::vector<double> trans_transposed_;  // [to * num_configs + from]
  std::vector<double> build_;  // [universe index]
  std::vector<double> drop_;   // [universe index]
};

/// The what-if oracle the design optimizers query: EXEC(S_i, C) for
/// workload segments S_i and hypothetical configurations C, plus
/// TRANS(C, C'). Two optimizations make the optimizers fast:
///
///  * per-segment statement *profiles* — a point statement's estimated
///    cost depends only on its shape (type and columns), not on its
///    literal, so a segment of 500 queries collapses into a handful of
///    (shape, count) pairs, each carrying a 64-bit shape fingerprint;
///  * per-(segment, configuration) memoization across the many times
///    the graph algorithms revisit the same node.
///
/// Thread-safe: the memo cache is sharded across kCacheShards maps,
/// each behind its own mutex, and the counters are atomic. A cost is
/// computed exactly once per distinct (segment, configuration) pair —
/// the owning shard's lock is held across the computation — so
/// costings() matches a serial run whatever the thread count. For the
/// hot solver loops, prefer PrecomputeCostMatrix(): it fills the full
/// n × |candidates| EXEC matrix (and the |candidates|² TRANS matrix)
/// in parallel up front, after which the solvers touch only the dense
/// read-only tables.
class WhatIfEngine {
 public:
  /// `model` must outlive the engine. `statements` are copied into the
  /// profiles; `segments` define the stages S_1..S_n.
  WhatIfEngine(const CostModel* model,
               std::span<const BoundStatement> statements,
               std::vector<Segment> segments);

  const CostModel& model() const { return *model_; }
  size_t num_segments() const { return segments_.size(); }
  const std::vector<Segment>& segments() const { return segments_; }

  /// The workload-wide shape profile: every distinct literal-erased
  /// statement shape with its total multiplicity, in first-appearance
  /// (= statement) order. EXEC(S_i, C) is, for every segment i, a
  /// nonnegative-weighted sum of StatementCost over a subset of these
  /// shapes — dominance pruning probes them instead of the full n x m
  /// EXEC matrix, so its cost is |shapes| x m costings however long
  /// the statement sequence is.
  const std::vector<WorkloadShape>& workload_profile() const {
    return workload_profile_;
  }

  /// StatementCost(shape.representative, config), counted as one
  /// what-if costing (it is one model probe, same as the profile
  /// entries behind SegmentCost). Not memoized — callers (dominance
  /// pruning) probe each (shape, config) pair once.
  double ShapeCost(const WorkloadShape& shape,
                   const Configuration& config) const;

  /// EXEC(S_i, config), memoized. Safe to call concurrently.
  double SegmentCost(size_t segment, const Configuration& config) const;

  /// EXEC(S_begin ∪ ... ∪ S_{end-1}, config) — the merged-segment cost
  /// the sequential-merging heuristic needs. Not memoized (sums the
  /// memoized per-segment costs).
  double RangeCost(size_t begin, size_t end, const Configuration& config) const;

  /// TRANS(from, to), forwarded to the cost model.
  double TransitionCost(const Configuration& from,
                        const Configuration& to) const {
    return model_->TransitionCost(from, to);
  }

  /// Fills the dense EXEC matrix over all (segment, ConfigId) pairs
  /// and the TRANS matrix over all ConfigId pairs of the pinned
  /// `candidates` space, fanning the what-if probes out across `pool`
  /// (serial when pool is null), then finalizes the SoA tables (prefix
  /// sums, transposed TRANS). This is the single enumeration entry
  /// point: the solvers never cost materialized Configuration vectors.
  /// Results are identical for any thread count, with or without
  /// `tracer`: tracing only changes the fan-out granularity (one span
  /// per work shard) and observes timestamps, never values.
  ///
  /// With exact masks (candidates.exact_masks()), the TRANS matrix is
  /// computed additively from per-universe-index build/drop costs via
  /// mask arithmetic — O(popcount) per pair, no Configuration diffs —
  /// summing the per-index terms in universe (= sorted) order, which is
  /// the exact summation order of CostModel::TransitionCost, so the
  /// cells are bit-identical to the materialized path.
  ///
  /// Every cell is validated with std::isfinite as it is written: a
  /// NaN or infinite cost would silently corrupt the solvers'
  /// shortest-path ordering (their reachability checks only compare
  /// against +inf), so a non-finite probe fails the whole precompute
  /// with an Internal status naming the offending segment/transition
  /// and configuration (the lowest flattened cell index wins, so the
  /// error is deterministic for any thread count).
  ///
  /// `budget` (optional) makes the fill cooperatively interruptible:
  /// on expiry the remaining cells are skipped and the returned matrix
  /// has complete() == false. Cancellation is polled between work
  /// chunks, so mid-precompute Cancel() from another thread is safe.
  ///
  /// `progress` (optional) receives "whatif.precompute" updates as
  /// work shards complete — invoked from worker threads, so the
  /// callback must be thread-safe (see common/progress.h). `logger`
  /// (optional) records precompute start/end events. Like the tracer,
  /// neither perturbs values; attaching progress only switches the
  /// fill to the coarser sharded fan-out tracing already uses.
  ///
  /// `cost_cache` (optional) is the persistent cross-solve cache: EXEC
  /// cells are then assembled from per-(statement fingerprint, config
  /// mask) entries — looked up before costing, inserted after — so a
  /// warm precompute over an unchanged model answers essentially every
  /// probe from the cache. The cache is validated first against a
  /// token derived from CostModel::Fingerprint() and the space's
  /// universe fingerprint, and is silently skipped when
  /// candidates.exact_masks() is false (fingerprint masks would make
  /// keying unsound). `tracker` (optional) charges cache growth to
  /// MemComponent::kCostCache; a refused reservation skips the insert
  /// and trips the solve's memory limit (see cost/cost_cache.h).
  /// Cached and uncached fills produce bit-identical matrices.
  Result<CostMatrix> PrecomputeCostMatrix(
      const CandidateSpace& candidates, ThreadPool* pool = nullptr,
      Tracer* tracer = nullptr, const Budget* budget = nullptr,
      const ProgressFn* progress = nullptr, Logger* logger = nullptr,
      CostCache* cost_cache = nullptr,
      ResourceTracker* tracker = nullptr) const;

  /// Mirrors the engine's activity into `registry` — counters
  /// "whatif.costings" / "whatif.cache_hits" and the
  /// "whatif.segment_cost_us" costing-latency histogram. Pass nullptr
  /// to detach. Safe to call concurrently with probes and with other
  /// SetMetrics calls (the sink pointers are atomic): an engine shared
  /// by concurrent Solve() calls over the same registry — the serving
  /// path — is race-free. Const because it only touches observational
  /// state (like the memo/counter members); no-op when metrics are
  /// compiled out.
  void SetMetrics(MetricsRegistry* registry) const;

  /// Number of what-if statement costings performed so far (for the
  /// optimizer-cost experiments: the dominant work unit).
  int64_t costings() const {
    return costings_.load(std::memory_order_relaxed);
  }

  /// Number of SegmentCost calls answered from the engine's own memo
  /// cache (distinct from the persistent CostCache's hits()).
  int64_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }

 private:
  /// A statement shape with literals erased, plus its multiplicity and
  /// 64-bit fingerprint (the persistent cost cache's statement key).
  struct ProfileEntry {
    BoundStatement representative;
    int64_t count = 0;
    uint64_t fingerprint = 0;
  };

  /// Memo key: one (segment, configuration) what-if probe.
  struct CacheKey {
    size_t segment;
    Configuration config;
    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey& key) const {
      const size_t h = ConfigurationHash()(key.config);
      return h ^ (key.segment + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    }
  };
  struct CacheShard {
    std::mutex mu;
    std::unordered_map<CacheKey, double, CacheKeyHash> memo;
  };
  static constexpr size_t kCacheShards = 64;

  CacheShard& ShardFor(size_t segment, const Configuration& config) const {
    return shards_[CacheKeyHash()(CacheKey{segment, config}) % kCacheShards];
  }

  /// The uncached cost computation (pure; reads only immutable state).
  double ComputeSegmentCost(size_t segment, const Configuration& config) const;

  /// EXEC(S_segment, config) assembled from the persistent cache:
  /// per profile entry, look up (entry.fingerprint, config_mask), cost
  /// and insert on miss. Summation runs in profile order — the same
  /// order as ComputeSegmentCost — so the result is bit-identical to
  /// the uncached path.
  double CachedSegmentCost(size_t segment, const Configuration& config,
                           uint64_t config_mask, CostCache* cache,
                           ResourceTracker* tracker) const;

  const CostModel* model_;
  std::vector<Segment> segments_;
  std::vector<std::vector<ProfileEntry>> profiles_;  // Per segment.
  // The per-segment profiles merged by fingerprint, first appearance
  // first (built once in the constructor; immutable afterwards).
  std::vector<WorkloadShape> workload_profile_;
  mutable std::array<CacheShard, kCacheShards> shards_;
  mutable std::atomic<int64_t> costings_{0};
  mutable std::atomic<int64_t> cache_hits_{0};
  // Optional metric sinks (null until SetMetrics). Atomic because
  // every concurrent Solve() over a shared engine re-attaches them
  // while other solves' probes read them; the registry hands out
  // stable pointers, so concurrent attaches of the same registry are
  // idempotent.
  mutable std::atomic<Counter*> metrics_costings_{nullptr};
  mutable std::atomic<Counter*> metrics_cache_hits_{nullptr};
  mutable std::atomic<Histogram*> metrics_segment_cost_us_{nullptr};
};

}  // namespace cdpd

#endif  // CDPD_COST_WHAT_IF_H_
