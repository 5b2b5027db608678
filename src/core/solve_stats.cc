#include "core/solve_stats.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <type_traits>

namespace cdpd {

namespace {

/// How a field combines across solves, in Accumulate and the registry:
/// a counter sums, a gauge keeps the maximum, a flag ORs (published as
/// a 0/1 counter), and a peak is a gauge left unpublished while it is 0.
enum class Kind { kCounter, kGauge, kFlag, kPeak };

/// The one field table: calls fn(key, kind, field...) for every field,
/// in JSON order, with that field of each of `stats`. The key is the
/// metric name without its "solver." prefix; the two time fields are
/// seconds, carried as rounded microseconds.
template <typename Fn, typename... Stats>
void ForEachField(Fn&& fn, Stats&... stats) {
  fn("wall_us", Kind::kCounter, stats.wall_seconds...);
  fn("costings", Kind::kCounter, stats.costings...);
  fn("threads_used", Kind::kGauge, stats.threads_used...);
  fn("nodes_expanded", Kind::kCounter, stats.nodes_expanded...);
  fn("relaxations", Kind::kCounter, stats.relaxations...);
  fn("paths_enumerated", Kind::kCounter, stats.paths_enumerated...);
  fn("merge_steps", Kind::kCounter, stats.merge_steps...);
  fn("candidate_evaluations", Kind::kCounter,
     stats.candidate_evaluations...);
  fn("pruned_configs", Kind::kCounter, stats.pruned_configs...);
  fn("segment_chunks", Kind::kGauge, stats.segment_chunks...);
  fn("deadline_hit", Kind::kFlag, stats.deadline_hit...);
  fn("best_effort", Kind::kFlag, stats.best_effort...);
  fn("cpu_us", Kind::kCounter, stats.cpu_seconds...);
  fn("peak_bytes_total", Kind::kGauge, stats.peak_bytes_total...);
  for (int i = 0; i < kNumMemComponents; ++i) {
    fn("peak_bytes_" +
           std::string(MemComponentName(static_cast<MemComponent>(i))),
       Kind::kPeak, stats.component_peak_bytes[i]...);
  }
  fn("memory_limit_hit", Kind::kFlag, stats.memory_limit_hit...);
}

/// A field as the JSON and the registry carry it.
template <typename T>
int64_t Exported(T value) {
  if constexpr (std::is_floating_point_v<T>) {
    return std::llround(value * 1e6);
  } else {
    return static_cast<int64_t>(value);
  }
}

}  // namespace

void SolveStats::Accumulate(const SolveStats& other) {
  ForEachField(
      [](std::string_view, Kind kind, auto& mine, const auto& theirs) {
        if (kind == Kind::kCounter) {
          mine += theirs;
        } else if (kind == Kind::kFlag) {
          mine = mine || theirs;
        } else {
          mine = std::max(mine, theirs);
        }
      },
      *this, other);
}

void SolveStats::PublishTo(MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  registry->counter("solver.solves")->Add(1);
  ForEachField(
      [&](std::string_view key, Kind kind, const auto& field) {
        const std::string name = "solver." + std::string(key);
        const int64_t value = Exported(field);
        if (kind == Kind::kCounter || kind == Kind::kFlag) {
          registry->counter(name)->Add(value);
        } else if (kind == Kind::kGauge || value != 0) {
          registry->gauge(name)->UpdateMax(value);
        }
      },
      *this);
  registry->histogram("solver.solve_wall_us")
      ->Record(static_cast<double>(Exported(wall_seconds)));
}

std::string SolveStats::ToJson() const {
  std::string out;
  ForEachField(
      [&](std::string_view key, Kind kind, const auto& field) {
        out += out.empty() ? "{\"" : ", \"";
        out += key;
        out += "\": ";
        if (kind == Kind::kFlag) {
          out += field ? "true" : "false";
        } else {
          out += std::to_string(Exported(field));
        }
      },
      *this);
  return out + "}";
}

SolveStats SolveStats::FromSnapshot(const MetricsSnapshot& snapshot) {
  SolveStats stats;
  ForEachField(
      [&](std::string_view key, Kind kind, auto& field) {
        const std::string name = "solver." + std::string(key);
        const int64_t value = kind == Kind::kCounter || kind == Kind::kFlag
                                  ? snapshot.CounterValue(name)
                                  : snapshot.GaugeValue(name);
        // A metric never published reads 0 and leaves the default, so
        // threads_used stays 1.
        if (value == 0) return;
        using T = std::remove_reference_t<decltype(field)>;
        if constexpr (std::is_floating_point_v<T>) {
          field = static_cast<T>(value) / 1e6;
        } else {
          field = static_cast<T>(value);
        }
      },
      stats);
  return stats;
}

}  // namespace cdpd
