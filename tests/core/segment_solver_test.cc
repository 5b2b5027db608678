#include "core/segment_solver.h"

#include <optional>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/k_aware_graph.h"
#include "core/solver.h"
#include "test_util.h"
#include "workload/workload.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;

TEST(SegmentSolveOptionsTest, Validate) {
  SegmentSolveOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.num_chunks = -1;
  EXPECT_FALSE(options.Validate().ok());
  options.num_chunks = 1;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(SegmentSolveOptionsTest, ResolveNumChunks) {
  // Automatic mode is the monolithic pass at every length: chunking
  // costs about (m + 1)x the relaxations and is a caller's memory
  // bound, never picked for speed.
  const SegmentSolveOptions options;  // Auto.
  for (size_t stages : {0u, 1u, 100u, 255u, 256u, 1280u, 1'000'000u}) {
    EXPECT_EQ(ResolveNumChunks(options, stages), 1u) << stages;
  }
  // Explicit values are unchanged: the monolithic off-switch, and
  // forced counts clamped to the stage count.
  SegmentSolveOptions forced;
  forced.num_chunks = 1;
  EXPECT_EQ(ResolveNumChunks(forced, 1'000'000), 1u);
  forced.num_chunks = 4;
  EXPECT_EQ(ResolveNumChunks(forced, 100), 4u);
  EXPECT_EQ(ResolveNumChunks(forced, 3), 3u);
  EXPECT_EQ(ResolveNumChunks(forced, 1), 1u);
}

TEST(SegmentSolveOptionsTest, AutoModeIsOnePassForAnyPoolSize) {
  // Automatic mode is the monolithic pass whatever the pool size, with
  // one schedule.
  auto fixture = MakeRandomProblem(29, /*num_segments=*/300, /*block_size=*/2);
  std::optional<SolveResult> serial;
  for (int threads : {1, 2, 4}) {
    SolveOptions options;
    options.k = 2;
    options.num_threads = threads;
    auto result = Solve(fixture->problem, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->stats.segment_chunks, 0) << threads;
    EXPECT_EQ(result->method_detail, "k-aware sequence graph") << threads;
    if (!serial.has_value()) {
      serial = std::move(result).value();
      continue;
    }
    EXPECT_EQ(result->schedule.configs, serial->schedule.configs) << threads;
    EXPECT_EQ(result->schedule.total_cost, serial->schedule.total_cost);
  }
}

TEST(SplitStagesBalancedTest, CoversExactlyAndBalances) {
  const std::vector<Segment> stages = SegmentFixed(1000, 10);  // 100 stages.
  for (size_t chunks : {1u, 2u, 3u, 7u, 100u, 200u}) {
    const std::vector<Segment> split = SplitStagesBalanced(stages, chunks);
    ASSERT_EQ(split.size(), std::min<size_t>(chunks, stages.size()));
    EXPECT_EQ(split.front().begin, 0u);
    EXPECT_EQ(split.back().end, stages.size());
    for (size_t t = 1; t < split.size(); ++t) {
      EXPECT_EQ(split[t].begin, split[t - 1].end);
      EXPECT_GE(split[t].size(), 1u);
    }
  }
}

TEST(SplitStagesBalancedTest, BalancesByStatementWeight) {
  // Stages of very different statement counts: the cuts should track
  // statement weight, not stage count.
  std::vector<Segment> stages;
  size_t begin = 0;
  for (size_t len : {200u, 1u, 1u, 1u, 1u, 1u, 1u, 100u}) {
    stages.push_back(Segment{begin, begin + len});
    begin += len;
  }
  const std::vector<Segment> split = SplitStagesBalanced(stages, 2);
  ASSERT_EQ(split.size(), 2u);
  // The first heavy stage alone reaches half the total weight.
  EXPECT_EQ(split[0], (Segment{0, 1}));
  EXPECT_EQ(split[1], (Segment{1, 8}));
}

TEST(SegmentSolverTest, MatchesMonolithicCostForAllChunkCounts) {
  auto fixture = MakeRandomProblem(7, /*num_segments=*/24, /*block_size=*/10);
  for (int64_t k = 0; k <= 4; ++k) {
    auto mono = SolveKAware(fixture->problem, k);
    ASSERT_TRUE(mono.ok()) << mono.status().ToString();
    for (size_t chunks : {2u, 3u, 5u, 8u, 24u}) {
      SolveStats stats;
      auto seg = SolveKAwareSegmented(fixture->problem, k, chunks, &stats);
      ASSERT_TRUE(seg.ok()) << "k=" << k << " chunks=" << chunks << ": "
                            << seg.status().ToString();
      EXPECT_NEAR(seg->total_cost, mono->total_cost, 1e-9 * mono->total_cost)
          << "k=" << k << " chunks=" << chunks;
      EXPECT_LE(CountChanges(fixture->problem, seg->configs), k);
      EXPECT_EQ(stats.segment_chunks, static_cast<int64_t>(chunks));
      EXPECT_GT(stats.stitch_window, 0);
    }
  }
}

TEST(SegmentSolverTest, ScheduleIdenticalForAnyThreadCount) {
  auto fixture = MakeRandomProblem(11, /*num_segments=*/20, /*block_size=*/8);
  SolveStats serial_stats;
  auto serial =
      SolveKAwareSegmented(fixture->problem, 3, 4, &serial_stats);
  ASSERT_TRUE(serial.ok());
  for (int threads : {2, 4}) {
    ThreadPool pool(threads);
    SolveStats stats;
    auto parallel =
        SolveKAwareSegmented(fixture->problem, 3, 4, &stats, &pool);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->configs, serial->configs) << threads << " threads";
    EXPECT_EQ(parallel->total_cost, serial->total_cost);
    EXPECT_EQ(stats.relaxations, serial_stats.relaxations);
    EXPECT_EQ(stats.nodes_expanded, serial_stats.nodes_expanded);
  }
}

TEST(SegmentSolverTest, HonorsFinalConfigAndInitialChangePolicy) {
  auto fixture = MakeRandomProblem(13, /*num_segments=*/16, /*block_size=*/8);
  fixture->problem.final_config = Configuration::Empty();
  fixture->problem.count_initial_change = true;
  for (int64_t k : {0, 1, 3}) {
    auto mono = SolveKAware(fixture->problem, k);
    ASSERT_TRUE(mono.ok()) << mono.status().ToString();
    auto seg = SolveKAwareSegmented(fixture->problem, k, 4);
    ASSERT_TRUE(seg.ok()) << seg.status().ToString();
    EXPECT_NEAR(seg->total_cost, mono->total_cost,
                1e-9 * (1.0 + mono->total_cost))
        << "k=" << k;
    EXPECT_LE(CountChanges(fixture->problem, seg->configs), k);
  }
}

TEST(SegmentSolverTest, DegenerateChunkCountsDelegateToMonolithic) {
  auto fixture = MakeRandomProblem(17, /*num_segments=*/6, /*block_size=*/10);
  auto mono = SolveKAware(fixture->problem, 2);
  ASSERT_TRUE(mono.ok());
  for (size_t chunks : {0u, 1u}) {
    auto seg = SolveKAwareSegmented(fixture->problem, 2, chunks);
    ASSERT_TRUE(seg.ok());
    EXPECT_EQ(seg->configs, mono->configs);
  }
}

TEST(SegmentSolverTest, RejectsNegativeK) {
  auto fixture = MakeRandomProblem(19, /*num_segments=*/6, /*block_size=*/10);
  auto seg = SolveKAwareSegmented(fixture->problem, -1, 2);
  EXPECT_FALSE(seg.ok());
  EXPECT_EQ(seg.status().code(), StatusCode::kInvalidArgument);
}

TEST(SegmentSolverTest, SolveDispatchesSegmentedPath) {
  // Through the unified Solve(): forcing chunks >= 2 must produce the
  // same cost as the monolithic default and report the decomposition
  // in method_detail and stats.
  auto fixture = MakeRandomProblem(23, /*num_segments=*/18, /*block_size=*/8);
  SolveOptions mono_options;
  mono_options.k = 2;
  mono_options.num_threads = 1;
  mono_options.segmented.num_chunks = 1;
  auto mono = Solve(fixture->problem, mono_options);
  ASSERT_TRUE(mono.ok());
  EXPECT_EQ(mono->stats.segment_chunks, 0);

  SolveOptions seg_options;
  seg_options.k = 2;
  seg_options.num_threads = 1;
  seg_options.segmented.num_chunks = 6;
  auto seg = Solve(fixture->problem, seg_options);
  ASSERT_TRUE(seg.ok());
  EXPECT_NEAR(seg->schedule.total_cost, mono->schedule.total_cost,
              1e-9 * mono->schedule.total_cost);
  EXPECT_EQ(seg->stats.segment_chunks, 6);
  EXPECT_NE(seg->method_detail.find("segment-parallel"), std::string::npos);
}

TEST(SegmentSolverTest, ChunksSolveUnderALimitTheOnePassExceeds) {
  // The rebuild holds one chunk's parent table at a time, and only that
  // is reserved: a memory limit the monolithic table passes still gets
  // the exact optimum from enough chunks.
  auto fixture = MakeRandomProblem(31, /*num_segments=*/2000, /*block_size=*/2);
  SolveOptions mono;
  mono.k = 2;
  mono.num_threads = 1;
  mono.segmented.num_chunks = 1;
  SolveOptions chunked = mono;
  chunked.segmented.num_chunks = 8;
  const SolveResult mono_free = Solve(fixture->problem, mono).value();
  const SolveResult chunked_free = Solve(fixture->problem, chunked).value();
  ASSERT_EQ(chunked_free.stats.segment_chunks, 8);
  ASSERT_LT(chunked_free.stats.peak_bytes_total,
            mono_free.stats.peak_bytes_total / 2);

  const int64_t limit = chunked_free.stats.peak_bytes_total;
  mono.memory_limit_bytes = limit;
  const SolveResult mono_limited = Solve(fixture->problem, mono).value();
  EXPECT_TRUE(mono_limited.stats.memory_limit_hit);
  EXPECT_TRUE(mono_limited.stats.best_effort);
  for (int threads : {1, 4}) {
    chunked.memory_limit_bytes = limit;
    chunked.num_threads = threads;
    const SolveResult limited = Solve(fixture->problem, chunked).value();
    EXPECT_FALSE(limited.stats.memory_limit_hit) << threads;
    EXPECT_FALSE(limited.stats.best_effort) << threads;
    EXPECT_LE(limited.stats.peak_bytes_total, limit) << threads;
    EXPECT_EQ(limited.schedule.configs, chunked_free.schedule.configs)
        << threads;
    EXPECT_NEAR(limited.schedule.total_cost, mono_free.schedule.total_cost,
                1e-9 * mono_free.schedule.total_cost)
        << threads;
  }
}

}  // namespace
}  // namespace cdpd
