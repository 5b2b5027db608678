// SolveStats::ToJson and its contract with the metrics round trip: a
// publish into a registry followed by FromSnapshot must reproduce the
// JSON bit-for-bit (both sides round wall time to whole microseconds),
// so external consumers of the metrics export and in-process callers
// serialize identical numbers.

#include "core/solve_stats.h"

#include <string>

#include <gtest/gtest.h>

#include "common/metrics.h"

namespace cdpd {
namespace {

SolveStats MakeStats() {
  SolveStats stats;
  stats.wall_seconds = 0.123456789;  // Rounds to 123457 us.
  stats.cpu_seconds = 0.5;           // 500000 us exactly.
  stats.costings = 1200;
  stats.threads_used = 8;
  stats.nodes_expanded = 77;
  stats.relaxations = 13;
  stats.paths_enumerated = 5;
  stats.merge_steps = 4;
  stats.candidate_evaluations = 9;
  stats.pruned_configs = 3;
  stats.segment_chunks = 6;
  stats.deadline_hit = true;
  stats.best_effort = true;
  stats.peak_bytes_total = 4096;
  stats.component_peak_bytes[static_cast<size_t>(
      MemComponent::kCostMatrix)] = 1024;
  stats.component_peak_bytes[static_cast<size_t>(
      MemComponent::kKAwareTable)] = 3072;
  stats.memory_limit_hit = true;
  return stats;
}

TEST(SolveStatsTest, ToJsonEmitsEveryFieldWithMicrosecondRounding) {
  const std::string json = MakeStats().ToJson();
  EXPECT_NE(json.find("\"wall_us\": 123457"), std::string::npos);
  EXPECT_NE(json.find("\"costings\": 1200"), std::string::npos);
  EXPECT_NE(json.find("\"threads_used\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"nodes_expanded\": 77"), std::string::npos);
  EXPECT_NE(json.find("\"relaxations\": 13"), std::string::npos);
  EXPECT_NE(json.find("\"paths_enumerated\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"merge_steps\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"candidate_evaluations\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"pruned_configs\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"segment_chunks\": 6"), std::string::npos);
  EXPECT_NE(json.find("\"deadline_hit\": true"), std::string::npos);
  EXPECT_NE(json.find("\"best_effort\": true"), std::string::npos);
  EXPECT_NE(json.find("\"cpu_us\": 500000"), std::string::npos);
  EXPECT_NE(json.find("\"peak_bytes_total\": 4096"), std::string::npos);
  EXPECT_NE(json.find("\"peak_bytes_cost_matrix\": 1024"), std::string::npos);
  EXPECT_NE(json.find("\"peak_bytes_kaware_table\": 3072"),
            std::string::npos);
  EXPECT_NE(json.find("\"memory_limit_hit\": true"), std::string::npos);
  // There is no cost cache; its always-zero fields are not serialized.
  EXPECT_EQ(json.find("cost_cache"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(SolveStatsTest, DefaultStatsSerializeAsZeros) {
  const std::string json = SolveStats{}.ToJson();
  EXPECT_NE(json.find("\"wall_us\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"threads_used\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"deadline_hit\": false"), std::string::npos);
  EXPECT_NE(json.find("\"best_effort\": false"), std::string::npos);
}

TEST(SolveStatsTest, JsonSurvivesThePublishSnapshotRoundTripBitForBit) {
  const SolveStats stats = MakeStats();
  MetricsRegistry registry;
  stats.PublishTo(&registry);
  const SolveStats back = SolveStats::FromSnapshot(registry.Snapshot());
  // Wall time crosses the boundary as integer microseconds, so the
  // reconstructed JSON is byte-identical even though wall_seconds
  // itself changed (0.123456789 -> 0.123457).
  EXPECT_EQ(back.ToJson(), stats.ToJson());
  EXPECT_NE(back.wall_seconds, stats.wall_seconds);
}

TEST(SolveStatsTest, AccumulatedSolvesSerializeTheirSums) {
  MetricsRegistry registry;
  SolveStats first;
  first.wall_seconds = 0.25;
  first.costings = 100;
  first.threads_used = 2;
  first.pruned_configs = 2;
  first.segment_chunks = 8;
  SolveStats second;
  second.wall_seconds = 0.5;
  second.costings = 50;
  second.threads_used = 4;
  second.pruned_configs = 3;
  second.segment_chunks = 4;
  first.PublishTo(&registry);
  second.PublishTo(&registry);

  SolveStats summed = first;
  summed.Accumulate(second);
  const SolveStats back = SolveStats::FromSnapshot(registry.Snapshot());
  // The registry accumulates exactly like Accumulate: counters add,
  // shape gauges (threads_used, segment_chunks) keep the max — so the
  // JSON views agree.
  EXPECT_EQ(summed.pruned_configs, 5);
  EXPECT_EQ(summed.segment_chunks, 8);
  EXPECT_EQ(back.ToJson(), summed.ToJson());
}

}  // namespace
}  // namespace cdpd
