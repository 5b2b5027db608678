#include "cost/what_if.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>
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

/// ShapeOf(statement) == shape for a `shape` ShapeOf produced, without
/// building the statement's shape.
bool HasShape(const BoundStatement& statement, const BoundStatement& shape) {
  const bool range = statement.type == StatementType::kSelectRange;
  return statement.type == shape.type &&
         statement.select_column == shape.select_column &&
         statement.where_column == shape.where_column &&
         statement.set_column == shape.set_column &&
         (range ? statement.where_hi - statement.where_lo == shape.where_hi
                : statement.where_lo == shape.where_lo &&
                      statement.where_hi == shape.where_hi) &&
         (statement.type == StatementType::kInsert
              ? statement.insert_values.size() == shape.insert_values.size()
              : statement.insert_values == shape.insert_values);
}

/// 64-bit FNV-1a identity of a literal-erased statement shape, the key
/// the engine deduplicates workload shapes by. Hashes every
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
  const size_t m = num_configs_;
  const size_t stride = ChangeStride(m);
  change_trans_.assign(m * stride, std::numeric_limits<double>::infinity());
  for (size_t from = 0; from < m; ++from) {
    double* row = change_trans_.data() + from * stride;
    std::copy_n(trans_.data() + from * m, m, row);
    row[from] = std::numeric_limits<double>::infinity();
  }
}

WhatIfEngine::WhatIfEngine(const CostModel* model,
                           std::span<const BoundStatement> statements,
                           std::vector<Segment> segments)
    : model_(model), segments_(std::move(segments)) {
  profile_begin_.reserve(segments_.size() + 1);
  profile_begin_.push_back(0);
  // Workload shapes by fingerprint, with a full equality check so a
  // fingerprint collision cannot merge distinct shapes. Shape ids are
  // assigned in first-appearance (= statement) order.
  std::multimap<uint64_t, uint32_t> by_fingerprint;
  for (const Segment& segment : segments_) {
    assert(segment.begin <= segment.end && segment.end <= statements.size());
    const size_t first = profile_entries_.size();
    for (size_t i = segment.begin; i < segment.end; ++i) {
      const BoundStatement& statement = statements[i];
      size_t e = first;
      while (e < profile_entries_.size() &&
             !HasShape(statement,
                       workload_profile_[profile_entries_[e].shape]
                           .representative)) {
        ++e;
      }
      if (e < profile_entries_.size()) {
        ++profile_entries_[e].count;
        continue;
      }
      const BoundStatement shape = ShapeOf(statement);
      const uint64_t fingerprint = ShapeFingerprint(shape);
      auto [it, last] = by_fingerprint.equal_range(fingerprint);
      while (it != last &&
             !(workload_profile_[it->second].representative == shape)) {
        ++it;
      }
      uint32_t id = 0;
      if (it != last) {
        id = it->second;
      } else {
        id = static_cast<uint32_t>(workload_profile_.size());
        by_fingerprint.emplace(fingerprint, id);
        workload_profile_.push_back(WorkloadShape{shape, 0});
      }
      profile_entries_.push_back(ProfileEntry{id, 1});
    }
    profile_begin_.push_back(profile_entries_.size());
  }
  for (const ProfileEntry& entry : profile_entries_) {
    workload_profile_[entry.shape].count += entry.count;
  }
}

void WhatIfEngine::CountCostings(int64_t costed) const {
  if (costed == 0) return;
  costings_.fetch_add(costed, std::memory_order_relaxed);
  if (Counter* sink = metrics_costings_.load(std::memory_order_relaxed)) {
    sink->Add(costed);
  }
}

double WhatIfEngine::ShapeCost(const WorkloadShape& shape,
                               const Configuration& config) const {
  CountCostings(1);
  return model_->StatementCost(shape.representative, config);
}

void WhatIfEngine::FillColumn(const Configuration& config,
                              std::span<double> column) const {
  for (size_t s = 0; s < workload_profile_.size(); ++s) {
    column[s] =
        model_->StatementCost(workload_profile_[s].representative, config);
  }
  CountCostings(static_cast<int64_t>(workload_profile_.size()));
}

std::vector<double> WhatIfEngine::ShapeColumn(
    const Configuration& config) const {
  std::vector<double> column(workload_profile_.size());
  FillColumn(config, column);
  return column;
}

double WhatIfEngine::SegmentCost(size_t segment,
                                 std::span<const double> column) const {
  assert(segment < segments_.size());
  assert(column.size() == workload_profile_.size());
  double cost = 0.0;
  for (const ProfileEntry& entry : Profile(segment)) {
    cost += static_cast<double>(entry.count) * column[entry.shape];
  }
  return cost;
}

double WhatIfEngine::SegmentCost(size_t segment,
                                 const Configuration& config) const {
  assert(segment < segments_.size());
  const std::span<const ProfileEntry> profile = Profile(segment);
  double cost = 0.0;
  for (const ProfileEntry& entry : profile) {
    cost += static_cast<double>(entry.count) *
            model_->StatementCost(workload_profile_[entry.shape].representative,
                                  config);
  }
  CountCostings(static_cast<int64_t>(profile.size()));
  return cost;
}

double WhatIfEngine::RangeCost(size_t begin, size_t end,
                               std::span<const double> column) const {
  assert(begin <= end && end <= segments_.size());
  double cost = 0.0;
  for (size_t s = begin; s < end; ++s) {
    cost += SegmentCost(s, column);
  }
  return cost;
}

std::span<const double> ScheduleColumns::For(const Configuration& config) {
  if (last_ < columns_.size() && columns_[last_].first == config) {
    return columns_[last_].second;
  }
  for (last_ = 0; last_ < columns_.size(); ++last_) {
    if (columns_[last_].first == config) return columns_[last_].second;
  }
  columns_.emplace_back(config, engine_.ShapeColumn(config));
  return columns_.back().second;
}

namespace {

/// EXEC rows one precompute task fills: enough cells that a task
/// outweighs its dispatch, few enough that a 10k-stage window still
/// spreads over a pool.
constexpr size_t kExecRowsPerTask = 512;

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
    const CandidateSpace& candidates, const SolveContext& ctx) const {
  const size_t n = segments_.size();
  const size_t m = candidates.size();
  CostMatrix matrix(n, m);
  CDPD_LOG(ctx.logger, LogLevel::kInfo, "whatif.precompute.start",
           LogField("segments", n), LogField("configs", m),
           LogField("exec_cells", n * m), LogField("trans_cells", m * m));
  NonFiniteCell bad_exec;
  NonFiniteCell bad_trans;
  // EXEC in two passes. First every configuration's shape-cost column
  // (one costing per (shape, configuration) pair), stored shape-major:
  // shape_costs[shape * m + config]. Then the cells segment-major, each
  // task owning a contiguous range of rows, so no two threads write one
  // cache line; a cell sums its segment's profile in SegmentCost's
  // order. Values and costings are identical for any thread count.
  std::atomic<size_t> tasks_done{0};
  bool complete = false;
  {
    CDPD_TRACE_SPAN(ctx.tracer, "whatif.exec_matrix", "whatif",
                    static_cast<int64_t>(n * m));
    const size_t shapes = workload_profile_.size();
    std::vector<double> shape_costs(shapes * m);
    complete = ParallelFor(
        ctx.pool, 0, m,
        [&](size_t config) {
          std::vector<double> column(shapes);
          FillColumn(candidates[config], column);
          for (size_t shape = 0; shape < shapes; ++shape) {
            shape_costs[shape * m + config] = column[shape];
          }
        },
        ctx.budget);
    const size_t tasks = (n + kExecRowsPerTask - 1) / kExecRowsPerTask;
    const auto fill_rows = [&](size_t task) {
      const size_t end = std::min(n, (task + 1) * kExecRowsPerTask);
      for (size_t segment = task * kExecRowsPerTask; segment < end;
           ++segment) {
        double* row = matrix.MutableExecRow(segment);
        for (const ProfileEntry& entry : Profile(segment)) {
          const auto count = static_cast<double>(entry.count);
          const double* costs = shape_costs.data() + entry.shape * m;
          for (size_t config = 0; config < m; ++config) {
            row[config] += count * costs[config];
          }
        }
        for (size_t config = 0; config < m; ++config) {
          if (!std::isfinite(row[config])) {
            bad_exec.Record(segment * m + config);
          }
        }
      }
      const size_t done =
          tasks_done.fetch_add(1, std::memory_order_relaxed) + 1;
      ReportProgress(ctx.progress, "whatif.precompute",
                     static_cast<double>(done) / static_cast<double>(tasks));
    };
    if (complete) {
      complete = ParallelFor(ctx.pool, 0, tasks, fill_rows, ctx.budget);
    }
  }
  // TRANS over all candidate pairs (pure model arithmetic).
  {
    CDPD_TRACE_SPAN(ctx.tracer, "whatif.trans_matrix", "whatif",
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
          ctx.pool, 0, m,
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
          ctx.budget);
      matrix.SetIndexCosts(std::move(build_cost), std::move(drop_cost));
    } else {
      trans_complete = ParallelFor(
          ctx.pool, 0, m * m,
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
          ctx.budget);
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
    CDPD_LOG(ctx.logger, LogLevel::kWarn, "whatif.precompute.interrupted",
             LogField("segments", n), LogField("configs", m));
  }
  CDPD_LOG(ctx.logger, LogLevel::kInfo, "whatif.precompute.end",
           LogField("complete", complete),
           LogField("costings", costings()));
  return matrix;
}

void WhatIfEngine::SetMetrics(MetricsRegistry* registry) const {
  if constexpr (!kMetricsCompiledIn) return;
  metrics_costings_.store(
      registry != nullptr ? registry->counter("whatif.costings") : nullptr,
      std::memory_order_relaxed);
}

}  // namespace cdpd
