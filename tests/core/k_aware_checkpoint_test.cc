// Checkpoint-and-recompute in SolveKAware. With num_blocks >= 2 (what
// SolveOptions::segmented.num_chunks selects) the forward pass keeps
// the last block's parent rows only and saves dist where every earlier
// block starts; the backtrack re-relaxes each earlier block from its
// saved copy. These tests hold the result to the one-block pass bit for
// bit (schedule, cost, nodes_expanded) over block and thread counts,
// k, the scan and lattice spaces and both boundary policies; count the
// re-relaxed stages in relaxations; and check the memory bound and the
// deadline fallback.

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/progress.h"
#include "common/thread_pool.h"
#include "core/k_aware_graph.h"
#include "core/solver.h"
#include "core/validator.h"
#include "test_util.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;

/// Every subset of the six paper indexes: m = 64, the lattice path.
constexpr int32_t kAllSubsets = 6;

/// Expects `schedule` to solve `problem` under `k`: its cost is the
/// oracle's, it makes at most k changes and ValidateSchedule accepts
/// it. The tests call this on the one-block reference, which every
/// chunked solve must then equal bit for bit.
void ExpectValid(const DesignProblem& problem, const DesignSchedule& schedule,
                 std::optional<int64_t> k, const std::string& where) {
  EXPECT_EQ(schedule.total_cost,
            EvaluateScheduleCost(problem, schedule.configs))
      << where;
  if (k.has_value()) {
    EXPECT_LE(CountChanges(problem, schedule.configs), *k) << where;
  }
  const Status valid = ValidateSchedule(problem, schedule, k);
  EXPECT_TRUE(valid.ok()) << where << ": " << valid;
}

/// Expects `chunked` to be `one`'s solve bit for bit.
void ExpectSameSolve(const DesignSchedule& chunked,
                     const SolveStats& chunked_stats,
                     const DesignSchedule& one, const SolveStats& one_stats,
                     const std::string& where) {
  EXPECT_EQ(chunked.configs, one.configs) << where;
  EXPECT_EQ(chunked.total_cost, one.total_cost) << where;
  EXPECT_EQ(chunked_stats.nodes_expanded, one_stats.nodes_expanded) << where;
  EXPECT_EQ(chunked_stats.deadline_hit, false) << where;
}

TEST(SegmentSolveOptionsTest, Validate) {
  SegmentSolveOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.num_chunks = -1;
  EXPECT_FALSE(options.Validate().ok());
  options.num_chunks = 1;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(SegmentSolveOptionsTest, ResolveNumChunks) {
  // How Solve() turns segmented.num_chunks into a block count, read
  // back from stats.segment_chunks (0 = one block). Automatic mode is
  // the one-block pass at every length.
  const auto solve = [](size_t stages, int chunks) {
    auto fixture = MakeRandomProblem(31, stages, /*block_size=*/1);
    SolveOptions options;
    options.k = 2;
    options.num_threads = 1;
    options.segmented.num_chunks = chunks;
    auto result = Solve(fixture->problem, options);
    EXPECT_TRUE(result.ok()) << stages << " stages, chunks=" << chunks
                             << ": " << result.status();
    return std::move(result).value();
  };
  for (size_t stages : {1u, 2u, 100u, 255u, 256u, 1280u}) {
    EXPECT_EQ(solve(stages, 0).stats.segment_chunks, 0) << stages;
  }
  // Explicit values: 1 is the one-block off-switch, and forced counts
  // are clamped to the n - 1 relaxed stages, so 1 stage is one block.
  EXPECT_EQ(solve(1280, 1).stats.segment_chunks, 0);
  EXPECT_EQ(solve(100, 4).stats.segment_chunks, 4);
  EXPECT_EQ(solve(3, 4).stats.segment_chunks, 2);
  EXPECT_EQ(solve(1, 4).stats.segment_chunks, 0);
  // The resolved count changes the memory, never the schedule.
  const SolveResult one = solve(100, 0);
  const SolveResult chunked = solve(100, 4);
  EXPECT_EQ(chunked.schedule.configs, one.schedule.configs);
  EXPECT_EQ(chunked.schedule.total_cost, one.schedule.total_cost);
}

TEST(SegmentSolveOptionsTest, AutoModeIsOnePassForAnyPoolSize) {
  // Automatic mode is the one-block pass whatever the pool size, with
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
    ExpectValid(fixture->problem, result->schedule, 2,
                "threads=" + std::to_string(threads));
    if (!serial.has_value()) {
      serial = std::move(result).value();
      continue;
    }
    EXPECT_EQ(result->schedule.configs, serial->schedule.configs) << threads;
    EXPECT_EQ(result->schedule.total_cost, serial->schedule.total_cost);
  }
}

TEST(SegmentSolverTest, MatchesMonolithicCostForAllChunkCounts) {
  // Through Solve(), on the m = 7 scan space and the m = 64 lattice
  // space, with and without a forced final design and a counted
  // initial build, serial and on a 4-thread pool.
  constexpr size_t kStages = 24;
  ThreadPool pool(4);
  for (const int32_t indexes : {1, kAllSubsets}) {
    for (const bool boundary : {false, true}) {
      auto fixture = MakeRandomProblem(7 + indexes, kStages,
                                       /*block_size=*/10, indexes);
      if (boundary) {
        fixture->problem.final_config = Configuration::Empty();
        fixture->problem.count_initial_change = true;
      }
      for (int64_t k = 0; k <= 4; ++k) {
        SolveOptions options;
        options.k = k;
        options.num_threads = 1;
        options.segmented.num_chunks = 1;
        const SolveResult one = Solve(fixture->problem, options).value();
        ASSERT_EQ(one.stats.segment_chunks, 0);
        ExpectValid(fixture->problem, one.schedule, k,
                    "m=" + std::to_string(fixture->problem.candidates.size()) +
                        " boundary=" + std::to_string(boundary) +
                        " k=" + std::to_string(k) + " one block");
        for (const int chunks : {2, 3, 5, 8, 24, 100}) {
          for (ThreadPool* solve_pool : {static_cast<ThreadPool*>(nullptr),
                                         &pool}) {
            const std::string where =
                "m=" + std::to_string(fixture->problem.candidates.size()) +
                " boundary=" + std::to_string(boundary) +
                " k=" + std::to_string(k) +
                " chunks=" + std::to_string(chunks) +
                " pool=" + std::to_string(solve_pool != nullptr);
            options.segmented.num_chunks = chunks;
            options.pool = solve_pool;
            auto chunked = Solve(fixture->problem, options);
            ASSERT_TRUE(chunked.ok()) << where << ": " << chunked.status();
            ExpectSameSolve(chunked->schedule, chunked->stats, one.schedule,
                            one.stats, where);
            EXPECT_EQ(chunked->method_detail, "k-aware sequence graph")
                << where;
            // The 23 relaxed stages bound the block count.
            EXPECT_EQ(chunked->stats.segment_chunks,
                      std::min(chunks, static_cast<int>(kStages) - 1))
                << where;
          }
        }
      }
    }
  }
}

TEST(SegmentSolverTest, ScheduleIdenticalForAnyThreadCount) {
  auto fixture = MakeRandomProblem(11, /*num_segments=*/20, /*block_size=*/8);
  SolveStats serial_stats;
  auto serial =
      SolveKAware(fixture->problem, 3, &serial_stats, {}, /*num_blocks=*/4);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial_stats.segment_chunks, 4);
  ExpectValid(fixture->problem, *serial, 3, "serial");
  for (int threads : {2, 4}) {
    ThreadPool pool(threads);
    SolveStats stats;
    auto parallel = SolveKAware(fixture->problem, 3, &stats, {.pool = &pool},
                                /*num_blocks=*/4);
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
    SolveStats one_stats;
    auto one = SolveKAware(fixture->problem, k, &one_stats);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    ExpectValid(fixture->problem, *one, k, "k=" + std::to_string(k));
    SolveStats stats;
    auto chunked =
        SolveKAware(fixture->problem, k, &stats, {}, /*num_blocks=*/4);
    ASSERT_TRUE(chunked.ok()) << chunked.status().ToString();
    ExpectSameSolve(*chunked, stats, *one, one_stats,
                    "k=" + std::to_string(k));
    EXPECT_LE(CountChanges(fixture->problem, chunked->configs), k);
  }
}

TEST(SegmentSolverTest, DegenerateChunkCountsDelegateToMonolithic) {
  // 0 and 1 run the one block; a count past the n - 1 relaxed stages
  // is clamped to them; one- and two-stage problems have at most one
  // relaxed stage and so always run one block.
  auto fixture = MakeRandomProblem(17, /*num_segments=*/6, /*block_size=*/10);
  SolveStats one_stats;
  auto one = SolveKAware(fixture->problem, 2, &one_stats);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one_stats.segment_chunks, 0);
  ExpectValid(fixture->problem, *one, 2, "one block");
  for (const size_t blocks : {0u, 1u, 2u, 5u, 6u, 1000u}) {
    SolveStats stats;
    auto chunked =
        SolveKAware(fixture->problem, 2, &stats, {}, blocks);
    ASSERT_TRUE(chunked.ok());
    ExpectSameSolve(*chunked, stats, *one, one_stats,
                    "blocks=" + std::to_string(blocks));
    const size_t clamped = std::min<size_t>(blocks, 5);
    EXPECT_EQ(stats.segment_chunks,
              clamped < 2 ? 0 : static_cast<int64_t>(clamped))
        << blocks;
    if (blocks < 2) {
      EXPECT_EQ(stats.relaxations, one_stats.relaxations) << blocks;
    }
  }
  for (const size_t stages : {1u, 2u}) {
    auto tiny = MakeRandomProblem(19, stages, /*block_size=*/10);
    SolveStats tiny_one_stats;
    auto tiny_one = SolveKAware(tiny->problem, 2, &tiny_one_stats);
    ASSERT_TRUE(tiny_one.ok());
    ExpectValid(tiny->problem, *tiny_one, 2,
                "stages=" + std::to_string(stages));
    SolveStats stats;
    auto chunked =
        SolveKAware(tiny->problem, 2, &stats, {}, /*num_blocks=*/4);
    ASSERT_TRUE(chunked.ok());
    ExpectSameSolve(*chunked, stats, *tiny_one, tiny_one_stats,
                    "stages=" + std::to_string(stages));
    EXPECT_EQ(stats.segment_chunks, 0) << stages;
  }
}

TEST(SegmentSolverTest, RejectsNegativeK) {
  auto fixture = MakeRandomProblem(19, /*num_segments=*/6, /*block_size=*/10);
  auto chunked =
      SolveKAware(fixture->problem, -1, nullptr, {}, /*num_blocks=*/2);
  EXPECT_FALSE(chunked.ok());
  EXPECT_EQ(chunked.status().code(), StatusCode::kInvalidArgument);
}

TEST(SegmentSolverTest, SolveDispatchesSegmentedPath) {
  // Through the unified Solve(): chunks >= 2 reach SolveKAware's
  // checkpoint blocks. The method detail does not change, stats and
  // the explain report show the blocks, and the table reservation is
  // the predicted one block of parent rows plus the checkpoints.
  auto fixture = MakeRandomProblem(23, /*num_segments=*/18, /*block_size=*/8);
  SolveOptions options;
  options.k = 2;
  options.num_threads = 1;
  options.explain = true;
  options.segmented.num_chunks = 1;
  auto one = Solve(fixture->problem, options);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->stats.segment_chunks, 0);
  ExpectValid(fixture->problem, one->schedule, 2, "one block");

  options.segmented.num_chunks = 6;
  auto chunked = Solve(fixture->problem, options);
  ASSERT_TRUE(chunked.ok());
  ExpectSameSolve(chunked->schedule, chunked->stats, one->schedule,
                  one->stats, "chunks=6");
  EXPECT_EQ(chunked->stats.segment_chunks, 6);
  EXPECT_EQ(chunked->method_detail, "k-aware sequence graph");

  const int64_t predicted =
      PredictKAwareTableBytes(18, fixture->problem.candidates, 2,
                              /*count_initial_change=*/false,
                              /*num_blocks=*/6);
  EXPECT_LT(predicted,
            PredictKAwareTableBytes(18, fixture->problem.candidates, 2,
                                    /*count_initial_change=*/false));
  const auto table = static_cast<size_t>(MemComponent::kKAwareTable);
  EXPECT_EQ(chunked->stats.component_peak_bytes[table], predicted);
  ASSERT_TRUE(chunked->explain.has_value());
  EXPECT_EQ(chunked->explain->predicted_kaware_bytes, predicted);
  EXPECT_NE(chunked->explain->ToText(fixture->schema)
                .find("6 checkpoint blocks"),
            std::string::npos);
  ASSERT_TRUE(one->explain.has_value());
  EXPECT_EQ(one->explain->ToText(fixture->schema).find("checkpoint"),
            std::string::npos);
}

TEST(SegmentSolverTest, ChunksSolveUnderALimitTheOnePassExceeds) {
  // The solve holds one block's parent rows and the checkpoints, and
  // only that is reserved: a memory limit the one-block table passes
  // still gets the exact optimum from enough blocks.
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
  ExpectValid(fixture->problem, mono_free.schedule, 2, "one block");
  ASSERT_LT(chunked_free.stats.peak_bytes_total,
            mono_free.stats.peak_bytes_total / 2);
  const auto table = static_cast<size_t>(MemComponent::kKAwareTable);
  EXPECT_EQ(chunked_free.stats.component_peak_bytes[table],
            PredictKAwareTableBytes(2000, fixture->problem.candidates, 2,
                                    /*count_initial_change=*/false,
                                    /*num_blocks=*/8));

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
    ExpectSameSolve(limited.schedule, limited.stats, mono_free.schedule,
                    mono_free.stats, "threads=" + std::to_string(threads));
  }
}

TEST(SegmentSolverTest, RelaxationsAddExactlyTheReRelaxedStages) {
  // Every relaxed stage costs the kernel the same number of updates,
  // and the backtrack re-relaxes every stage before the last block
  // once: B blocks over 23 stages re-relax 23 - floor(23 / B) of them.
  // An unset k's one-layer DP checkpoints the same way.
  constexpr size_t kStages = 24;
  constexpr int64_t kRelaxed = kStages - 1;
  for (const int32_t indexes : {1, kAllSubsets}) {
    auto fixture =
        MakeRandomProblem(37, kStages, /*block_size=*/10, indexes);
    for (const std::optional<int64_t> k :
         {std::optional<int64_t>(3), std::optional<int64_t>()}) {
      SolveStats one_stats;
      auto one = SolveKAware(fixture->problem, k, &one_stats);
      ASSERT_TRUE(one.ok());
      ExpectValid(fixture->problem, *one, k, "one block");
      ASSERT_EQ(one_stats.relaxations % kRelaxed, 0);
      const int64_t per_stage = one_stats.relaxations / kRelaxed;
      for (const int64_t blocks : {2, 3, 5, 8, 23}) {
        const std::string where =
            "m=" + std::to_string(fixture->problem.candidates.size()) +
            " k=" + std::to_string(k.value_or(-1)) +
            " blocks=" + std::to_string(blocks);
        SolveStats stats;
        auto chunked = SolveKAware(fixture->problem, k, &stats, {},
                                   static_cast<size_t>(blocks));
        ASSERT_TRUE(chunked.ok()) << where;
        ExpectSameSolve(*chunked, stats, *one, one_stats, where);
        const int64_t re_relaxed = kRelaxed - kRelaxed / blocks;
        EXPECT_EQ(stats.relaxations,
                  one_stats.relaxations + per_stage * re_relaxed)
            << where;
      }
    }
  }
}

TEST(SegmentSolverTest, MultiBlockDeadlineFallsBackToBestStatic) {
  // A budget that expires mid-pass freezes the completed prefix with one
  // block; with more, the prefix's parent rows are gone and the solve
  // returns the flagged best static schedule — also when the budget
  // expires during the backtrack's re-relaxation.
  auto fixture = MakeRandomProblem(41, /*num_segments=*/40, /*block_size=*/8);
  const DesignProblem& problem = fixture->problem;
  const DesignSchedule best_static = BestStaticSchedule(problem, 2).value();
  // Cancels once the forward pass reports `at` or more of its stages.
  const auto solve_cancelled_at = [&](double at, size_t blocks,
                                      SolveStats* stats) {
    CancelToken token;
    const Budget budget(&token);
    const ProgressFn progress = [&](const ProgressUpdate& update) {
      if (std::string_view(update.phase) == "kaware.dp" &&
          update.fraction >= at) {
        token.Cancel();
      }
    };
    return SolveKAware(problem, 2, stats,
                       {.budget = &budget, .progress = &progress}, blocks);
  };
  for (const double at : {0.5, 39.0 / 40.0}) {
    SolveStats stats;
    auto chunked = solve_cancelled_at(at, 4, &stats);
    ASSERT_TRUE(chunked.ok()) << at << ": " << chunked.status();
    EXPECT_TRUE(stats.deadline_hit) << at;
    EXPECT_TRUE(stats.best_effort) << at;
    EXPECT_EQ(chunked->configs, best_static.configs) << at;
    EXPECT_EQ(chunked->total_cost, best_static.total_cost) << at;
  }
  SolveStats one_stats;
  auto one = solve_cancelled_at(0.5, 1, &one_stats);
  ASSERT_TRUE(one.ok()) << one.status();
  EXPECT_TRUE(one_stats.deadline_hit);
  EXPECT_EQ(one->configs.size(), problem.num_segments());
  EXPECT_LE(CountChanges(problem, one->configs), 2);
  EXPECT_EQ(one->total_cost, EvaluateScheduleCost(problem, one->configs));
}

}  // namespace
}  // namespace cdpd
