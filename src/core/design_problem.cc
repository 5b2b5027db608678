#include "core/design_problem.h"

namespace cdpd {

Status DesignProblem::Validate() const {
  if (what_if == nullptr) {
    return Status::InvalidArgument("design problem has no what-if oracle");
  }
  if (candidates.empty()) {
    return Status::InvalidArgument("design problem has no candidate "
                                   "configurations");
  }
  const int64_t rows = what_if->model().num_rows();
  for (const Configuration& config : candidates) {
    if (config.SizePages(rows) > space_bound_pages) {
      return Status::InvalidArgument(
          "candidate configuration " +
          config.ToString(what_if->model().schema()) +
          " violates the space bound");
    }
  }
  if (initial.SizePages(rows) > space_bound_pages) {
    return Status::InvalidArgument("initial configuration violates the "
                                   "space bound");
  }
  if (final_config.has_value() &&
      final_config->SizePages(rows) > space_bound_pages) {
    return Status::InvalidArgument("final configuration violates the "
                                   "space bound");
  }
  return Status::OK();
}

int64_t CountChanges(const DesignProblem& problem,
                     const std::vector<Configuration>& configs) {
  if (configs.empty()) return 0;
  int64_t changes = 0;
  if (problem.count_initial_change && !(configs.front() == problem.initial)) {
    ++changes;
  }
  for (size_t i = 1; i < configs.size(); ++i) {
    if (!(configs[i - 1] == configs[i])) ++changes;
  }
  return changes;
}

Result<DesignSchedule> BestStaticSchedule(const DesignProblem& problem,
                                          std::optional<int64_t> k) {
  CDPD_RETURN_IF_ERROR(problem.Validate());
  const WhatIfEngine& what_if = *problem.what_if;
  const size_t n = problem.num_segments();
  double best = std::numeric_limits<double>::infinity();
  const Configuration* best_config = nullptr;
  for (const Configuration& config : problem.candidates) {
    // A static design makes at most one change — the initial build —
    // and only when that build is charged against k.
    const int64_t changes =
        problem.count_initial_change && !(config == problem.initial) ? 1 : 0;
    if (k.has_value() && changes > *k) continue;
    double cost = what_if.TransitionCost(problem.initial, config) +
                  what_if.RangeCost(0, n, config);
    if (problem.final_config.has_value()) {
      cost += what_if.TransitionCost(config, *problem.final_config);
    }
    if (cost < best) {
      best = cost;
      best_config = &config;
    }
  }
  if (best_config == nullptr) {
    return Status::FailedPrecondition(
        "no candidate configuration admits a static design within the "
        "change bound (k = 0 with a counted initial change requires the "
        "initial configuration to be a candidate)");
  }
  DesignSchedule schedule;
  schedule.configs.assign(n, *best_config);
  schedule.total_cost = EvaluateScheduleCost(problem, schedule.configs);
  return schedule;
}

double EvaluateScheduleCost(const DesignProblem& problem,
                            const std::vector<Configuration>& configs) {
  const WhatIfEngine& what_if = *problem.what_if;
  ScheduleColumns columns(what_if);
  double cost = 0.0;
  const Configuration* previous = &problem.initial;
  for (size_t i = 0; i < configs.size(); ++i) {
    cost += what_if.TransitionCost(*previous, configs[i]);
    cost += what_if.SegmentCost(i, columns.For(configs[i]));
    previous = &configs[i];
  }
  if (problem.final_config.has_value()) {
    cost += what_if.TransitionCost(*previous, *problem.final_config);
  }
  return cost;
}

}  // namespace cdpd
