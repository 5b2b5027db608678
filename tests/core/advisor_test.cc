#include "core/advisor.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "workload/generator.h"
#include "workload/standard_workloads.h"

namespace cdpd {
namespace {

class AdvisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = MakePaperSchema();
    model_ = std::make_unique<CostModel>(schema_, 200'000, 500'000);
    WorkloadGenerator gen(schema_, 500'000, 7);
    workload_ = MakeScaledPaperWorkload("W1", 100, &gen).value();
  }

  AdvisorOptions BaseOptions(std::optional<int64_t> k,
                             OptimizerMethod method) {
    AdvisorOptions options;
    options.block_size = 100;
    options.solve.k = k;
    options.solve.method = method;
    return options;
  }

  Schema schema_;
  std::unique_ptr<CostModel> model_;
  Workload workload_;
};

TEST_F(AdvisorTest, UnconstrainedRecommendationTracksWorkload) {
  Advisor advisor(model_.get());
  auto rec = advisor.Recommend(
      workload_, BaseOptions(std::nullopt, OptimizerMethod::kOptimal));
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->schedule.configs.size(), 30u);
  EXPECT_EQ(rec->segments.size(), 30u);
  EXPECT_GT(rec->changes, 2);  // Tracks minor shifts.
  EXPECT_GE(rec->stats.wall_seconds, 0.0);
}

TEST_F(AdvisorTest, ConstrainedRecommendationRespectsK) {
  Advisor advisor(model_.get());
  // Ranking is tested separately on coarse blocks: with 30 stages and
  // small k, path ranking legitimately explodes (§5's worst case).
  for (OptimizerMethod method :
       {OptimizerMethod::kOptimal, OptimizerMethod::kGreedySeq,
        OptimizerMethod::kMerging, OptimizerMethod::kHybrid}) {
    auto rec = advisor.Recommend(workload_, BaseOptions(2, method));
    ASSERT_TRUE(rec.ok()) << OptimizerMethodToString(method) << ": "
                          << rec.status();
    EXPECT_LE(rec->changes, 2) << OptimizerMethodToString(method);
    EXPECT_FALSE(rec->method_detail.empty());
  }
}

TEST_F(AdvisorTest, RankingMethodWorksOnCoarseBlocks) {
  Advisor advisor(model_.get());
  AdvisorOptions options = BaseOptions(2, OptimizerMethod::kRanking);
  options.block_size = 750;  // Four stages: ranking stays tractable.
  auto rec = advisor.Recommend(workload_, options);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_LE(rec->changes, 2);
}

TEST_F(AdvisorTest, RankingExhaustionSurfacesAsResourceExhausted) {
  Advisor advisor(model_.get());
  AdvisorOptions options = BaseOptions(0, OptimizerMethod::kRanking);
  options.solve.ranking_max_paths = 3;
  const auto status = advisor.Recommend(workload_, options).status();
  if (!status.ok()) {
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  }
}

TEST_F(AdvisorTest, AutoGeneratedCandidatesMatchPaper) {
  Advisor advisor(model_.get());
  auto rec =
      advisor.Recommend(workload_, BaseOptions(2, OptimizerMethod::kOptimal));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->candidate_indexes.size(), 6u);
  EXPECT_EQ(rec->candidate_configs.size(), 7u);
}

TEST_F(AdvisorTest, ExplicitCandidatesAreUsedVerbatim) {
  Advisor advisor(model_.get());
  AdvisorOptions options = BaseOptions(2, OptimizerMethod::kOptimal);
  options.candidate_indexes = {IndexDef({0})};
  auto rec = advisor.Recommend(workload_, options);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->candidate_indexes.size(), 1u);
  EXPECT_EQ(rec->candidate_configs.size(), 2u);  // {} and {I(a)}.
}

TEST_F(AdvisorTest, OptimalMethodsAgreeOnCost) {
  Advisor advisor(model_.get());
  AdvisorOptions graph_options = BaseOptions(2, OptimizerMethod::kOptimal);
  AdvisorOptions ranking_options = BaseOptions(2, OptimizerMethod::kRanking);
  graph_options.block_size = 750;  // Keep ranking tractable (4 stages).
  ranking_options.block_size = 750;
  auto graph = advisor.Recommend(workload_, graph_options);
  auto ranking = advisor.Recommend(workload_, ranking_options);
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(ranking.ok());
  EXPECT_NEAR(graph->schedule.total_cost, ranking->schedule.total_cost, 1e-6);
}

TEST_F(AdvisorTest, HeuristicsNeverBeatOptimal) {
  Advisor advisor(model_.get());
  auto optimal =
      advisor.Recommend(workload_, BaseOptions(2, OptimizerMethod::kOptimal));
  ASSERT_TRUE(optimal.ok());
  for (OptimizerMethod method :
       {OptimizerMethod::kGreedySeq, OptimizerMethod::kMerging,
        OptimizerMethod::kHybrid}) {
    auto rec = advisor.Recommend(workload_, BaseOptions(2, method));
    ASSERT_TRUE(rec.ok());
    EXPECT_GE(rec->schedule.total_cost,
              optimal->schedule.total_cost - 1e-6)
        << OptimizerMethodToString(method);
  }
}

TEST_F(AdvisorTest, FinalConfigurationOptionIsApplied) {
  Advisor advisor(model_.get());
  AdvisorOptions options = BaseOptions(2, OptimizerMethod::kOptimal);
  options.final_config = Configuration::Empty();
  auto rec = advisor.Recommend(workload_, options);
  ASSERT_TRUE(rec.ok());
  // Cost includes the final drop; still a valid schedule.
  EXPECT_EQ(rec->schedule.configs.size(), 30u);
}

TEST_F(AdvisorTest, SpaceBoundShrinksCandidateSpace) {
  Advisor advisor(model_.get());
  AdvisorOptions options = BaseOptions(2, OptimizerMethod::kOptimal);
  options.space_bound_pages = IndexDef({0}).SizePages(200'000) + 1;
  auto rec = advisor.Recommend(workload_, options);
  ASSERT_TRUE(rec.ok());
  for (const Configuration& config : rec->candidate_configs) {
    EXPECT_LE(config.SizePages(200'000), options.space_bound_pages);
  }
}

TEST_F(AdvisorTest, RejectsZeroBlockSize) {
  Advisor advisor(model_.get());
  AdvisorOptions options = BaseOptions(2, OptimizerMethod::kOptimal);
  options.block_size = 0;
  EXPECT_EQ(advisor.Recommend(workload_, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(AdvisorTest, MethodNamesAreStable) {
  EXPECT_EQ(OptimizerMethodToString(OptimizerMethod::kOptimal), "optimal");
  EXPECT_EQ(OptimizerMethodToString(OptimizerMethod::kGreedySeq),
            "greedy-seq");
  EXPECT_EQ(OptimizerMethodToString(OptimizerMethod::kRanking), "ranking");
}

}  // namespace
}  // namespace cdpd
