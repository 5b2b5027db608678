#include "cost/what_if.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cmath>
#include <optional>
#include <string>

namespace cdpd {

namespace {

/// Erases the literal values of a statement, keeping only the shape
/// that determines its estimated cost.
BoundStatement ShapeOf(const BoundStatement& statement) {
  BoundStatement shape = statement;
  shape.where_value = 0;
  shape.set_value = 0;
  if (shape.type == StatementType::kSelectRange) {
    // Range cost depends only on the width; normalize the position.
    shape.where_hi = shape.where_hi - shape.where_lo;
    shape.where_lo = 0;
  }
  if (shape.type == StatementType::kInsert) {
    shape.insert_values.assign(shape.insert_values.size(), 0);
  }
  return shape;
}

/// 64-bit FNV-1a identity of a literal-erased statement shape — the
/// statement half of the persistent cost cache's key. Hashes every
/// cost-relevant field of the (already normalized) shape.
uint64_t ShapeFingerprint(const BoundStatement& shape) {
  constexpr uint64_t kFnvPrime = 0x100000001b3ULL;
  uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (byte * 8)) & 0xff;
      hash *= kFnvPrime;
    }
  };
  mix(static_cast<uint64_t>(shape.type));
  mix(static_cast<uint64_t>(shape.select_column));
  mix(static_cast<uint64_t>(shape.where_column));
  mix(static_cast<uint64_t>(shape.where_lo));
  mix(static_cast<uint64_t>(shape.where_hi));
  mix(static_cast<uint64_t>(shape.set_column));
  mix(shape.insert_values.size());
  return hash;
}

}  // namespace

void CostMatrix::Finalize() {
  const size_t n = num_segments_;
  const size_t m = num_configs_;
  exec_prefix_.assign((n + 1) * m, 0.0);
  for (size_t s = 0; s < n; ++s) {
    const double* row = exec_.data() + s * m;
    const double* prefix = exec_prefix_.data() + s * m;
    double* next = exec_prefix_.data() + (s + 1) * m;
    for (size_t c = 0; c < m; ++c) next[c] = prefix[c] + row[c];
  }
  trans_transposed_.assign(m * m, 0.0);
  for (size_t from = 0; from < m; ++from) {
    const double* row = trans_.data() + from * m;
    for (size_t to = 0; to < m; ++to) {
      trans_transposed_[to * m + from] = row[to];
    }
  }
}

WhatIfEngine::WhatIfEngine(const CostModel* model,
                           std::span<const BoundStatement> statements,
                           std::vector<Segment> segments)
    : model_(model), segments_(std::move(segments)) {
  profiles_.resize(segments_.size());
  for (size_t s = 0; s < segments_.size(); ++s) {
    const Segment& segment = segments_[s];
    assert(segment.begin <= segment.end && segment.end <= statements.size());
    std::vector<ProfileEntry>& profile = profiles_[s];
    for (size_t i = segment.begin; i < segment.end; ++i) {
      const BoundStatement shape = ShapeOf(statements[i]);
      bool found = false;
      for (ProfileEntry& entry : profile) {
        if (entry.representative == shape) {
          ++entry.count;
          found = true;
          break;
        }
      }
      if (!found) {
        profile.push_back(ProfileEntry{shape, 1, ShapeFingerprint(shape)});
      }
    }
  }
  // Workload-wide profile: the per-segment profiles merged by
  // fingerprint (with a full equality check so a fingerprint collision
  // cannot merge distinct shapes), keeping first-appearance order —
  // segment order, then within-segment profile order — so the profile
  // is deterministic for a given statement sequence.
  std::unordered_map<uint64_t, std::vector<size_t>> by_fingerprint;
  for (const std::vector<ProfileEntry>& profile : profiles_) {
    for (const ProfileEntry& entry : profile) {
      bool merged = false;
      for (const size_t at : by_fingerprint[entry.fingerprint]) {
        if (workload_profile_[at].representative == entry.representative) {
          workload_profile_[at].count += entry.count;
          merged = true;
          break;
        }
      }
      if (!merged) {
        by_fingerprint[entry.fingerprint].push_back(workload_profile_.size());
        workload_profile_.push_back(WorkloadShape{
            entry.representative, entry.count, entry.fingerprint});
      }
    }
  }
}

double WhatIfEngine::ShapeCost(const WorkloadShape& shape,
                               const Configuration& config) const {
  costings_.fetch_add(1, std::memory_order_relaxed);
  if (Counter* sink = metrics_costings_.load(std::memory_order_relaxed)) {
    sink->Add(1);
  }
  return model_->StatementCost(shape.representative, config);
}

double WhatIfEngine::ComputeSegmentCost(size_t segment,
                                        const Configuration& config) const {
  Histogram* const latency_sink =
      metrics_segment_cost_us_.load(std::memory_order_relaxed);
  const auto start = latency_sink != nullptr
                         ? std::chrono::steady_clock::now()
                         : std::chrono::steady_clock::time_point{};
  double cost = 0.0;
  int64_t costed = 0;
  for (const ProfileEntry& entry : profiles_[segment]) {
    cost += static_cast<double>(entry.count) *
            model_->StatementCost(entry.representative, config);
    ++costed;
  }
  costings_.fetch_add(costed, std::memory_order_relaxed);
  if (Counter* sink = metrics_costings_.load(std::memory_order_relaxed)) {
    sink->Add(costed);
  }
  if (latency_sink != nullptr) {
    latency_sink->Record(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - start)
                             .count());
  }
  return cost;
}

double WhatIfEngine::CachedSegmentCost(size_t segment,
                                       const Configuration& config,
                                       uint64_t config_mask, CostCache* cache,
                                       ResourceTracker* tracker) const {
  double cost = 0.0;
  int64_t costed = 0;
  for (const ProfileEntry& entry : profiles_[segment]) {
    double statement_cost = 0.0;
    if (!cache->Lookup(entry.fingerprint, config_mask, &statement_cost)) {
      statement_cost = model_->StatementCost(entry.representative, config);
      cache->Insert(entry.fingerprint, config_mask, statement_cost, tracker);
      ++costed;
    }
    // Summing in profile order, like ComputeSegmentCost: a cached
    // value is the exact double a miss computed, so the assembled cell
    // is bit-identical however the hit/miss pattern falls.
    cost += static_cast<double>(entry.count) * statement_cost;
  }
  if (costed > 0) {
    costings_.fetch_add(costed, std::memory_order_relaxed);
    if (Counter* sink = metrics_costings_.load(std::memory_order_relaxed)) {
      sink->Add(costed);
    }
  }
  return cost;
}

double WhatIfEngine::SegmentCost(size_t segment,
                                 const Configuration& config) const {
  assert(segment < segments_.size());
  CacheShard& shard = ShardFor(segment, config);
  // The shard lock is held across the (pure) computation so each
  // distinct (segment, config) pair is costed exactly once — costings()
  // is then independent of the thread count. Distinct pairs land on
  // distinct shards with high probability, so concurrent probes still
  // proceed in parallel.
  std::lock_guard<std::mutex> lock(shard.mu);
  CacheKey key{segment, config};
  if (auto it = shard.memo.find(key); it != shard.memo.end()) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    if (Counter* sink = metrics_cache_hits_.load(std::memory_order_relaxed)) {
      sink->Add(1);
    }
    return it->second;
  }
  const double cost = ComputeSegmentCost(segment, config);
  shard.memo.emplace(std::move(key), cost);
  return cost;
}

double WhatIfEngine::RangeCost(size_t begin, size_t end,
                               const Configuration& config) const {
  assert(begin <= end && end <= segments_.size());
  double cost = 0.0;
  for (size_t s = begin; s < end; ++s) {
    cost += SegmentCost(s, config);
  }
  return cost;
}

namespace {

/// Lowest-cell-index-wins record of a non-finite cost, so the error a
/// parallel fill reports is the one the serial fill would hit first.
class NonFiniteCell {
 public:
  void Record(size_t cell) {
    int64_t seen = cell_.load(std::memory_order_relaxed);
    const auto mine = static_cast<int64_t>(cell);
    while (seen < 0 || mine < seen) {
      if (cell_.compare_exchange_weak(seen, mine,
                                      std::memory_order_relaxed)) {
        return;
      }
    }
  }
  /// The offending flattened cell index, or nullopt when all finite.
  std::optional<size_t> cell() const {
    const int64_t cell = cell_.load(std::memory_order_relaxed);
    return cell < 0 ? std::nullopt
                    : std::optional<size_t>(static_cast<size_t>(cell));
  }

 private:
  std::atomic<int64_t> cell_{-1};
};

}  // namespace

Result<CostMatrix> WhatIfEngine::PrecomputeCostMatrix(
    const CandidateSpace& candidates, ThreadPool* pool, Tracer* tracer,
    const Budget* budget, const ProgressFn* progress, Logger* logger,
    CostCache* cost_cache, ResourceTracker* tracker) const {
  const size_t n = segments_.size();
  const size_t m = candidates.size();
  CostMatrix matrix(n, m);
  // The persistent cache is sound only while config masks are exact
  // bijections; with fingerprint masks (universe > 64) it is skipped
  // and the fill runs through the engine memo exactly as before.
  CostCache* cache =
      (cost_cache != nullptr && candidates.exact_masks()) ? cost_cache
                                                          : nullptr;
  if (cache != nullptr) {
    // The token covers everything a cached statement cost depends on:
    // the cost-model state (schema, rows, params, table stats) and the
    // universe that defines the masks' bit assignment.
    uint64_t token = model_->Fingerprint();
    token ^= candidates.universe_fingerprint() * 0x9e3779b97f4a7c15ULL;
    if (token == 0) token = 1;  // 0 is CostCache's never-validated state.
    cache->EnsureValid(token, tracker);
  }
  CDPD_LOG(logger, LogLevel::kInfo, "whatif.precompute.start",
           LogField("segments", n), LogField("configs", m),
           LogField("exec_cells", n * m), LogField("trans_cells", m * m),
           LogField("cost_cache", cache != nullptr));
  NonFiniteCell bad_exec;
  NonFiniteCell bad_trans;
  const auto fill_exec = [&](size_t i) {
    const size_t segment = i / m;
    const size_t config = i % m;
    const double cost =
        cache != nullptr
            ? CachedSegmentCost(segment, candidates[config],
                                candidates.mask(config), cache, tracker)
            : SegmentCost(segment, candidates[config]);
    if (!std::isfinite(cost)) bad_exec.Record(i);
    matrix.MutableExec(segment, config) = cost;
  };
  // EXEC over all (segment, config) pairs: each flattened index writes
  // one disjoint matrix cell, so the fill is race-free and the values
  // are identical for any thread count. With a tracer or progress
  // callback attached the same cells are filled through coarser work
  // shards (one span / one progress update each); either way every
  // cell computes the same value.
  bool complete = true;
  const bool sharded = tracer != nullptr || progress != nullptr;
  if (!sharded) {
    complete = ParallelFor(pool, 0, n * m, fill_exec, budget);
  } else {
    CDPD_TRACE_SPAN(tracer, "whatif.exec_matrix", "whatif",
                    static_cast<int64_t>(n * m));
    const size_t threads = static_cast<size_t>(
        std::max(1, pool == nullptr ? 1 : pool->num_threads()));
    const size_t num_shards =
        std::min(n * m, std::max<size_t>(1, threads * 4));
    const size_t per_shard = (n * m + num_shards - 1) / num_shards;
    std::atomic<size_t> shards_done{0};
    complete = ParallelFor(
        pool, 0, num_shards,
        [&](size_t shard) {
          CDPD_TRACE_SPAN(tracer, "whatif.exec_shard", "whatif",
                          static_cast<int64_t>(shard));
          const size_t lo = shard * per_shard;
          const size_t hi = std::min(n * m, lo + per_shard);
          for (size_t i = lo; i < hi; ++i) fill_exec(i);
          // Reported from whichever worker finishes the shard — the
          // callback contract requires thread safety.
          const size_t done =
              shards_done.fetch_add(1, std::memory_order_relaxed) + 1;
          ReportProgress(progress, "whatif.precompute",
                         static_cast<double>(done) /
                             static_cast<double>(num_shards));
        },
        budget);
  }
  // TRANS over all candidate pairs (pure model arithmetic; no memo).
  {
    CDPD_TRACE_SPAN(tracer, "whatif.trans_matrix", "whatif",
                    static_cast<int64_t>(m * m));
    bool trans_complete = true;
    if (candidates.exact_masks()) {
      // Mask path: TRANS is additive over the created/dropped index
      // sets, so per-universe-index build/drop costs turn each pair
      // into two mask differences summed over set bits. Bits are
      // consumed in ascending (= universe = sorted-index) order — the
      // exact order CostModel::TransitionCost sums the materialized
      // delta in — so the cells are bit-identical to the slow path.
      const size_t u = candidates.num_indexes();
      std::vector<double> build_cost(u, 0.0);
      std::vector<double> drop_cost(u, 0.0);
      for (size_t i = 0; i < u; ++i) {
        build_cost[i] = model_->BuildCost(candidates.universe()[i]);
        drop_cost[i] = model_->DropCost(candidates.universe()[i]);
      }
      const std::vector<uint64_t>& masks = candidates.masks();
      trans_complete = ParallelFor(
          pool, 0, m,
          [&](size_t from) {
            const uint64_t from_mask = masks[from];
            for (size_t to = 0; to < m; ++to) {
              double cost = 0.0;
              if (to != from) {
                const uint64_t to_mask = masks[to];
                for (uint64_t created = to_mask & ~from_mask; created != 0;
                     created &= created - 1) {
                  cost += build_cost[static_cast<size_t>(
                      std::countr_zero(created))];
                }
                for (uint64_t dropped = from_mask & ~to_mask; dropped != 0;
                     dropped &= dropped - 1) {
                  cost += drop_cost[static_cast<size_t>(
                      std::countr_zero(dropped))];
                }
              }
              if (!std::isfinite(cost)) bad_trans.Record(from * m + to);
              matrix.MutableTrans(from, to) = cost;
            }
          },
          budget);
      matrix.SetIndexCosts(std::move(build_cost), std::move(drop_cost));
    } else {
      trans_complete = ParallelFor(
          pool, 0, m * m,
          [&](size_t i) {
            const size_t from = i / m;
            const size_t to = i % m;
            const double cost =
                from == to
                    ? 0.0
                    : model_->TransitionCost(candidates[from],
                                             candidates[to]);
            if (!std::isfinite(cost)) bad_trans.Record(i);
            matrix.MutableTrans(from, to) = cost;
          },
          budget);
    }
    complete = complete && trans_complete;
  }
  // A non-finite cost is a corrupt oracle whatever the budget said:
  // report it even when the fill was cut short (the bad cell was
  // actually written, so the error is real, though an interrupted fill
  // may not name the lowest bad cell of the full matrix).
  if (const std::optional<size_t> cell = bad_exec.cell()) {
    const size_t segment = *cell / m;
    const size_t config = *cell % m;
    return Status::Internal(
        "what-if EXEC cost is not finite for segment " +
        std::to_string(segment) + " (statements " +
        std::to_string(segments_[segment].begin) + ".." +
        std::to_string(segments_[segment].end) + "), candidate configuration #" +
        std::to_string(config));
  }
  if (const std::optional<size_t> cell = bad_trans.cell()) {
    return Status::Internal(
        "what-if TRANS cost is not finite for transition from candidate "
        "configuration #" +
        std::to_string(*cell / m) + " to #" + std::to_string(*cell % m));
  }
  matrix.set_complete(complete);
  matrix.Finalize();
  if (!complete) {
    CDPD_LOG(logger, LogLevel::kWarn, "whatif.precompute.interrupted",
             LogField("segments", n), LogField("configs", m));
  }
  CDPD_LOG(logger, LogLevel::kInfo, "whatif.precompute.end",
           LogField("complete", complete),
           LogField("costings", costings()),
           LogField("cache_hits", cache_hits()));
  return matrix;
}

void WhatIfEngine::SetMetrics(MetricsRegistry* registry) const {
  if constexpr (!kMetricsCompiledIn) return;
  if (registry == nullptr) {
    metrics_costings_.store(nullptr, std::memory_order_relaxed);
    metrics_cache_hits_.store(nullptr, std::memory_order_relaxed);
    metrics_segment_cost_us_.store(nullptr, std::memory_order_relaxed);
    return;
  }
  // The registry hands out stable pointers, so concurrent attaches of
  // the same registry store identical values.
  metrics_costings_.store(registry->counter("whatif.costings"),
                          std::memory_order_relaxed);
  metrics_cache_hits_.store(registry->counter("whatif.cache_hits"),
                            std::memory_order_relaxed);
  metrics_segment_cost_us_.store(
      registry->histogram("whatif.segment_cost_us"),
      std::memory_order_relaxed);
}

}  // namespace cdpd
