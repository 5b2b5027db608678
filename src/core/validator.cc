#include "core/validator.h"

#include <algorithm>
#include <cmath>

namespace cdpd {

Status ValidateSchedule(const DesignProblem& problem,
                        const DesignSchedule& schedule,
                        std::optional<int64_t> k) {
  CDPD_RETURN_IF_ERROR(problem.Validate());
  if (schedule.configs.size() != problem.num_segments()) {
    return Status::InvalidArgument(
        "schedule covers " + std::to_string(schedule.configs.size()) +
        " segments; problem has " + std::to_string(problem.num_segments()));
  }
  const Schema& schema = problem.what_if->model().schema();
  const int64_t rows = problem.what_if->model().num_rows();
  for (size_t i = 0; i < schedule.configs.size(); ++i) {
    const Configuration& config = schedule.configs[i];
    // Checked once per run of equal configurations: the run's first
    // segment is the first one that could offend.
    if (i > 0 && config == schedule.configs[i - 1]) continue;
    if (std::find(problem.candidates.begin(), problem.candidates.end(),
                  config) == problem.candidates.end()) {
      return Status::InvalidArgument("segment " + std::to_string(i + 1) +
                                     " uses non-candidate configuration " +
                                     config.ToString(schema));
    }
    if (config.SizePages(rows) > problem.space_bound_pages) {
      return Status::InvalidArgument("segment " + std::to_string(i + 1) +
                                     " configuration " +
                                     config.ToString(schema) +
                                     " violates the space bound");
    }
  }
  const int64_t changes = CountChanges(problem, schedule.configs);
  if (k.has_value() && changes > *k) {
    return Status::InvalidArgument("schedule has " + std::to_string(changes) +
                                   " changes; bound is " + std::to_string(*k));
  }
  const double expected = EvaluateScheduleCost(problem, schedule.configs);
  const double tolerance =
      1e-9 * std::max({1.0, std::abs(expected), std::abs(schedule.total_cost)});
  if (std::abs(expected - schedule.total_cost) > tolerance) {
    return Status::Internal(
        "schedule reports cost " + std::to_string(schedule.total_cost) +
        " but evaluates to " + std::to_string(expected));
  }
  return Status::OK();
}

}  // namespace cdpd
