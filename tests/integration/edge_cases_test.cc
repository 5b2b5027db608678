// Edge-case sweep: distinct behaviours not covered by the per-module
// suites — boundary inputs, degenerate problem sizes, and interactions
// between features added on top of the paper.

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/stopwatch.h"
#include "core/advisor.h"
#include "core/design_merging.h"
#include "core/k_aware_graph.h"
#include "core/path_ranking.h"
#include "engine/database.h"
#include "test_util.h"
#include "workload/standard_workloads.h"
#include "workload/trace_io.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;

TEST(StopwatchTest, ElapsedIsMonotoneAndResets) {
  Stopwatch watch;
  const double t1 = watch.ElapsedSeconds();
  const double t2 = watch.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  watch.Reset();
  EXPECT_LE(watch.ElapsedSeconds(), t2 + 1.0);
  EXPECT_GE(watch.ElapsedMicros(), 0);
}

TEST(ExecutorEdgeCases, UpdateWhereColumnEqualsSetColumn) {
  auto db = Database::Create(MakePaperSchema(), 2'000, 50, 7).value();
  AccessStats stats;
  ASSERT_TRUE(
      db->ApplyConfiguration(Configuration({IndexDef({1})}), &stats).ok());
  // Move every b=5 row to b=6: afterwards b=5 matches nothing.
  auto count = [&](Value v) {
    AccessStats s;
    return db->Execute(BoundStatement::SelectPoint(1, 1, v), &s)
        ->rows_affected;
  };
  const int64_t before5 = count(5);
  const int64_t before6 = count(6);
  ASSERT_GT(before5, 0);
  AccessStats update_stats;
  auto update =
      db->Execute(BoundStatement::UpdatePoint(1, 6, 1, 5), &update_stats);
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(update->rows_affected, before5);
  EXPECT_EQ(count(5), 0);
  EXPECT_EQ(count(6), before5 + before6);
  EXPECT_TRUE(
      db->catalog().GetIndex("t", IndexDef({1})).value()->CheckInvariants());
}

TEST(ExecutorEdgeCases, UpdateMatchingNothingIsANoOp) {
  auto db = Database::Create(MakePaperSchema(), 1'000, 50, 8).value();
  AccessStats stats;
  auto update =
      db->Execute(BoundStatement::UpdatePoint(0, 1, 0, 999'999), &stats);
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(update->rows_affected, 0);
  EXPECT_EQ(stats.written_pages, 0);
}

TEST(ExecutorEdgeCases, InsertArityErrorSurfacesThroughExecute) {
  auto db = Database::Create(MakePaperSchema(), 100, 50, 9).value();
  AccessStats stats;
  EXPECT_EQ(
      db->Execute(BoundStatement::Insert({1, 2}), &stats).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(BTreeEdgeCases, EraseEverythingThenReuse) {
  BTree tree(IndexDef({0}));
  AccessStats stats;
  for (int i = 0; i < 600; ++i) {
    IndexEntry e;
    e.key.Append(i);
    e.rid = i;
    ASSERT_TRUE(tree.Insert(e, &stats));
  }
  for (int i = 0; i < 600; ++i) {
    IndexEntry e;
    e.key.Append(i);
    e.rid = i;
    ASSERT_TRUE(tree.Erase(e, &stats));
  }
  EXPECT_EQ(tree.num_entries(), 0);
  EXPECT_TRUE(tree.CheckInvariants());
  int found = 0;
  tree.SeekPrefix(CompositeKey({5}), &stats, [&](const IndexEntry&) {
    ++found;
  });
  EXPECT_EQ(found, 0);
  // The emptied tree accepts new entries.
  IndexEntry e;
  e.key.Append(42);
  e.rid = 1;
  EXPECT_TRUE(tree.Insert(e, &stats));
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(OptimizerEdgeCases, SingleSegmentProblemAllSolversAgree) {
  auto fixture = MakeRandomProblem(140, 1, 25);
  auto unconstrained = SolveKAware(fixture->problem, std::nullopt);
  auto k0 = SolveKAware(fixture->problem, 0);
  auto ranked = testing_util::SolveWith(fixture->problem,
                                       OptimizerMethod::kRanking, 0);
  ASSERT_TRUE(unconstrained.ok());
  ASSERT_TRUE(k0.ok());
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(unconstrained->total_cost, k0->total_cost);
  EXPECT_EQ(unconstrained->total_cost, ranked->schedule.total_cost);
}

TEST(OptimizerEdgeCases, KFarLargerThanSegments) {
  auto fixture = MakeRandomProblem(141, 3, 10);
  auto huge_k = SolveKAware(fixture->problem, 1'000);
  auto unconstrained = SolveKAware(fixture->problem, std::nullopt);
  ASSERT_TRUE(huge_k.ok());
  ASSERT_TRUE(unconstrained.ok());
  EXPECT_NEAR(huge_k->total_cost, unconstrained->total_cost, 1e-9);
}

TEST(OptimizerEdgeCases, MergingOnAlreadyConstantScheduleIsStable) {
  auto fixture = MakeRandomProblem(142, 4, 10);
  DesignSchedule constant;
  constant.configs.assign(4, fixture->problem.candidates[0]);
  constant.total_cost =
      EvaluateScheduleCost(fixture->problem, constant.configs);
  SolveStats stats;
  auto merged = MergeToConstraint(fixture->problem, constant, 0, &stats);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(stats.merge_steps, 0);
  EXPECT_EQ(merged->configs, constant.configs);
}

TEST(OptimizerEdgeCases, RankingHandlesTiedEdgeWeights) {
  // Identical statements in every segment make many paths tie exactly;
  // the ranking must still enumerate distinct paths in order.
  auto fixture = MakeRandomProblem(143, 3, 5);
  for (BoundStatement& s : fixture->statements) {
    s = BoundStatement::SelectPoint(0, 0, 1);
  }
  WhatIfEngine what_if(fixture->model.get(), fixture->statements,
                       fixture->segments);
  fixture->problem.what_if = &what_if;
  fixture->problem.candidates = fixture->problem.candidates.Prefix(3);
  const CostMatrix matrix =
      what_if.PrecomputeCostMatrix(fixture->problem.candidates).value();
  PathRanker ranker(fixture->problem, matrix);
  std::set<std::vector<ConfigId>> seen;
  double previous = -1;
  int count = 0;
  while (auto path = ranker.Next()) {
    EXPECT_GE(path->cost, previous);
    previous = path->cost;
    EXPECT_TRUE(seen.insert(path->configs).second) << "duplicate path";
    std::vector<Configuration> configs;
    for (const ConfigId id : path->configs) {
      configs.push_back(fixture->problem.candidates[id]);
    }
    EXPECT_EQ(path->cost, EvaluateScheduleCost(fixture->problem, configs));
    ++count;
  }
  EXPECT_EQ(count, 27);
}

TEST(AdvisorEdgeCases, AdaptiveSegmentationWithHeuristicMethods) {
  CostModel model(MakePaperSchema(), 150'000, 500'000);
  WorkloadGenerator gen(MakePaperSchema(), 500'000, 150);
  Workload w1 = MakeScaledPaperWorkload("W1", 200, &gen).value();
  Advisor advisor(&model);
  for (OptimizerMethod method :
       {OptimizerMethod::kGreedySeq, OptimizerMethod::kMerging,
        OptimizerMethod::kHybrid}) {
    AdvisorOptions options;
    options.block_size = 200;
    options.solve.k = 2;
    options.segmentation = SegmentationMode::kAdaptive;
    auto rec = advisor.Recommend(w1, options);
    ASSERT_TRUE(rec.ok()) << OptimizerMethodToString(method);
    EXPECT_LE(rec->changes, 2);
    EXPECT_LT(rec->segments.size(), 30u);
  }
}

TEST(TraceIoEdgeCases, RangeStatementsRoundTripThroughTraceFiles) {
  const Schema schema = MakePaperSchema();
  Workload workload;
  workload.statements = {
      BoundStatement::SelectRange(0, 0, 10, 99),
      BoundStatement::SelectRange(2, 3, -5, 5),
      BoundStatement::SelectPoint(1, 1, 7),
  };
  auto parsed = ReadTrace(schema, WriteTrace(schema, workload));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->statements, workload.statements);
}

TEST(WorkloadEdgeCases, EmptyWorkloadThroughAdvisorIsClean) {
  CostModel model(MakePaperSchema(), 10'000, 500'000);
  Advisor advisor(&model);
  AdvisorOptions options;
  options.solve.k = 2;
  options.candidate_indexes = {IndexDef({0})};
  auto rec = advisor.Recommend(Workload{}, options);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_TRUE(rec->schedule.configs.empty());
  EXPECT_EQ(rec->changes, 0);
}

}  // namespace
}  // namespace cdpd
