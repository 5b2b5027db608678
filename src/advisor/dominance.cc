#include "advisor/dominance.h"

#include <atomic>

#include "cost/what_if.h"

namespace cdpd {

namespace {

DominanceResult Identity(size_t m) {
  DominanceResult result;
  result.survivors.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    result.survivors.push_back(static_cast<ConfigId>(i));
  }
  return result;
}

}  // namespace

DominanceResult PruneDominatedConfigs(const DesignProblem& problem,
                                      const SolveContext& ctx) {
  const CandidateSpace& space = problem.candidates;
  const size_t m = space.size();
  if (m <= 1 || problem.what_if == nullptr) return Identity(m);
  const WhatIfEngine& what_if = *problem.what_if;
  const std::vector<WorkloadShape>& shapes = what_if.workload_profile();
  const size_t num_shapes = shapes.size();

  const int64_t scratch_bytes = static_cast<int64_t>(
      (num_shapes * m + m * m + 2 * m) * sizeof(double));
  ScopedReservation scratch = ScopedReservation::Try(
      ctx.tracker, MemComponent::kCandidates, scratch_bytes);
  if (!scratch.ok()) {
    CDPD_LOG(ctx.logger, LogLevel::kWarn, "dominance.memory_limit",
             LogField("scratch_bytes", scratch_bytes),
             LogField("fallback", "unpruned"));
    return Identity(m);
  }

  // Probe tables: per-(shape, config) statement costs, the full member
  // TRANS matrix, and the boundary transition vectors. Disjoint writes
  // per config, so the parallel fill is race-free and deterministic.
  std::vector<double> shape_cost(num_shapes * m, 0.0);  // [shape * m + c]
  std::vector<double> trans(m * m, 0.0);                // [from * m + to]
  std::vector<double> init_trans(m, 0.0);
  std::vector<double> final_trans(m, 0.0);
  const bool filled = ParallelFor(
      ctx.pool, 0, m,
      [&](size_t c) {
        const Configuration& config = space[c];
        for (size_t s = 0; s < num_shapes; ++s) {
          shape_cost[s * m + c] = what_if.ShapeCost(shapes[s], config);
        }
        for (size_t to = 0; to < m; ++to) {
          trans[c * m + to] =
              to == c ? 0.0 : what_if.TransitionCost(config, space[to]);
        }
        init_trans[c] = what_if.TransitionCost(problem.initial, config);
        if (problem.final_config.has_value()) {
          final_trans[c] =
              what_if.TransitionCost(config, *problem.final_config);
        }
      },
      ctx.budget);
  if (!filled) {
    CDPD_LOG(ctx.logger, LogLevel::kWarn, "dominance.deadline",
             LogField("phase", "probe"), LogField("fallback", "unpruned"));
    return Identity(m);
  }

  // Sequential accept/prune scan over ascending ConfigId; each
  // candidate is tested only against already-accepted survivors, so
  // every pruned configuration has a *surviving* dominator (see the
  // header's replacement argument). The existence test over survivors
  // fans out on the pool — existence is order-independent, so the
  // outcome is thread-count-invariant.
  DominanceResult result;
  result.survivors.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    if (BudgetExpired(ctx.budget)) {
      // Accept the rest unpruned: a truncated pass is still exact.
      CDPD_LOG(ctx.logger, LogLevel::kWarn, "dominance.deadline",
               LogField("phase", "scan"), LogField("at", i));
      for (size_t rest = i; rest < m; ++rest) {
        result.survivors.push_back(static_cast<ConfigId>(rest));
      }
      return result;
    }
    if (space[i] == problem.initial) {
      // The layer-0 start of the count_initial_change DP; never prune.
      result.survivors.push_back(static_cast<ConfigId>(i));
      continue;
    }
    std::atomic<bool> dominated{false};
    ParallelFor(ctx.pool, 0, result.survivors.size(), [&](size_t sj) {
      if (dominated.load(std::memory_order_relaxed)) return;
      const size_t j = result.survivors[sj];
      for (size_t s = 0; s < num_shapes; ++s) {
        if (shape_cost[s * m + j] > shape_cost[s * m + i]) return;
      }
      if (init_trans[j] > init_trans[i]) return;
      if (problem.final_config.has_value() &&
          final_trans[j] > final_trans[i]) {
        return;
      }
      for (size_t p = 0; p < m; ++p) {
        if (p == i || p == j) continue;
        if (trans[p * m + j] > trans[p * m + i]) return;  // Reachability.
        if (trans[j * m + p] > trans[i * m + p]) return;  // Leavability.
      }
      dominated.store(true, std::memory_order_relaxed);
    });
    if (dominated.load(std::memory_order_relaxed)) {
      ++result.pruned;
    } else {
      result.survivors.push_back(static_cast<ConfigId>(i));
    }
  }
  CDPD_LOG(ctx.logger, LogLevel::kInfo, "dominance.pruned",
           LogField("candidates", m), LogField("pruned", result.pruned),
           LogField("shapes", num_shapes));
  return result;
}

}  // namespace cdpd
