#include "core/solve_stats.h"

#include <cmath>

namespace cdpd {

void SolveStats::PublishTo(MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  const int64_t wall_us = static_cast<int64_t>(std::llround(
      wall_seconds * 1e6));
  registry->counter("solver.solves")->Add(1);
  registry->counter("solver.wall_us")->Add(wall_us);
  registry->counter("solver.costings")->Add(costings);
  registry->counter("solver.nodes_expanded")->Add(nodes_expanded);
  registry->counter("solver.relaxations")->Add(relaxations);
  registry->counter("solver.paths_enumerated")->Add(paths_enumerated);
  registry->counter("solver.merge_steps")->Add(merge_steps);
  registry->counter("solver.candidate_evaluations")
      ->Add(candidate_evaluations);
  registry->counter("solver.pruned_configs")->Add(pruned_configs);
  registry->gauge("solver.segment_chunks")->UpdateMax(segment_chunks);
  registry->gauge("solver.stitch_window")->UpdateMax(stitch_window);
  registry->counter("solver.deadline_hit")->Add(deadline_hit ? 1 : 0);
  registry->counter("solver.best_effort")->Add(best_effort ? 1 : 0);
  registry->counter("solver.cpu_us")
      ->Add(static_cast<int64_t>(std::llround(cpu_seconds * 1e6)));
  registry->counter("solver.memory_limit_hit")->Add(memory_limit_hit ? 1 : 0);
  registry->gauge("solver.peak_bytes_total")->UpdateMax(peak_bytes_total);
  for (int i = 0; i < kNumMemComponents; ++i) {
    if (component_peak_bytes[i] == 0) continue;
    registry
        ->gauge("solver.peak_bytes_" +
                std::string(MemComponentName(static_cast<MemComponent>(i))))
        ->UpdateMax(component_peak_bytes[i]);
  }
  registry->gauge("solver.threads_used")->UpdateMax(threads_used);
  registry->histogram("solver.solve_wall_us")
      ->Record(static_cast<double>(wall_us));
}

std::string SolveStats::ToJson() const {
  const int64_t wall_us =
      static_cast<int64_t>(std::llround(wall_seconds * 1e6));
  std::string out = "{";
  out += "\"wall_us\": " + std::to_string(wall_us);
  out += ", \"costings\": " + std::to_string(costings);
  out += ", \"threads_used\": " + std::to_string(threads_used);
  out += ", \"nodes_expanded\": " + std::to_string(nodes_expanded);
  out += ", \"relaxations\": " + std::to_string(relaxations);
  out += ", \"paths_enumerated\": " + std::to_string(paths_enumerated);
  out += ", \"merge_steps\": " + std::to_string(merge_steps);
  out += ", \"candidate_evaluations\": " + std::to_string(candidate_evaluations);
  out += ", \"pruned_configs\": " + std::to_string(pruned_configs);
  out += ", \"segment_chunks\": " + std::to_string(segment_chunks);
  out += ", \"stitch_window\": " + std::to_string(stitch_window);
  out += std::string(", \"deadline_hit\": ") +
         (deadline_hit ? "true" : "false");
  out += std::string(", \"best_effort\": ") + (best_effort ? "true" : "false");
  out += ", \"cpu_us\": " +
         std::to_string(static_cast<int64_t>(std::llround(cpu_seconds * 1e6)));
  out += ", \"peak_bytes_total\": " + std::to_string(peak_bytes_total);
  for (int i = 0; i < kNumMemComponents; ++i) {
    out += ", \"peak_bytes_" +
           std::string(MemComponentName(static_cast<MemComponent>(i))) +
           "\": " + std::to_string(component_peak_bytes[i]);
  }
  out += std::string(", \"memory_limit_hit\": ") +
         (memory_limit_hit ? "true" : "false");
  out += "}";
  return out;
}

SolveStats SolveStats::FromSnapshot(const MetricsSnapshot& snapshot) {
  SolveStats stats;
  stats.wall_seconds =
      static_cast<double>(snapshot.CounterValue("solver.wall_us")) / 1e6;
  stats.costings = snapshot.CounterValue("solver.costings");
  stats.nodes_expanded = snapshot.CounterValue("solver.nodes_expanded");
  stats.relaxations = snapshot.CounterValue("solver.relaxations");
  stats.paths_enumerated = snapshot.CounterValue("solver.paths_enumerated");
  stats.merge_steps = snapshot.CounterValue("solver.merge_steps");
  stats.candidate_evaluations =
      snapshot.CounterValue("solver.candidate_evaluations");
  stats.pruned_configs = snapshot.CounterValue("solver.pruned_configs");
  stats.segment_chunks = snapshot.GaugeValue("solver.segment_chunks");
  stats.stitch_window = snapshot.GaugeValue("solver.stitch_window");
  stats.deadline_hit = snapshot.CounterValue("solver.deadline_hit") > 0;
  stats.best_effort = snapshot.CounterValue("solver.best_effort") > 0;
  stats.cpu_seconds =
      static_cast<double>(snapshot.CounterValue("solver.cpu_us")) / 1e6;
  stats.memory_limit_hit =
      snapshot.CounterValue("solver.memory_limit_hit") > 0;
  stats.peak_bytes_total = snapshot.GaugeValue("solver.peak_bytes_total");
  for (int i = 0; i < kNumMemComponents; ++i) {
    stats.component_peak_bytes[i] = snapshot.GaugeValue(
        "solver.peak_bytes_" +
        std::string(MemComponentName(static_cast<MemComponent>(i))));
  }
  const int64_t threads = snapshot.GaugeValue("solver.threads_used");
  stats.threads_used = threads > 0 ? static_cast<int>(threads) : 1;
  return stats;
}

}  // namespace cdpd
