#include "core/online_tuner.h"

#include <gtest/gtest.h>

#include "advisor/config_enumeration.h"
#include "core/k_aware_graph.h"
#include "cost/what_if.h"
#include "workload/standard_workloads.h"

namespace cdpd {
namespace {

class OnlineTunerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = MakePaperSchema();
    model_ = std::make_unique<CostModel>(schema_, 200'000, 500'000);
    ConfigEnumOptions enum_options;
    enum_options.max_indexes_per_config = 1;
    enum_options.num_rows = model_->num_rows();
    configs_ = EnumerateConfigurations(MakePaperCandidateIndexes(schema_),
                                       enum_options)
                   .value();
  }

  std::vector<BoundStatement> UniformQueries(ColumnId column, size_t count) {
    std::vector<BoundStatement> out;
    for (size_t i = 0; i < count; ++i) {
      out.push_back(BoundStatement::SelectPoint(
          column, column, static_cast<Value>(i % 1000)));
    }
    return out;
  }

  Schema schema_;
  std::unique_ptr<CostModel> model_;
  std::vector<Configuration> configs_;
};

TEST_F(OnlineTunerTest, AdoptsAnIndexForAStableWorkload) {
  OnlineTunerOptions options;
  options.window = 500;
  options.epoch = 100;
  OnlineTuner tuner(model_.get(), configs_, options);
  tuner.ProcessAll(UniformQueries(0, 2000));
  EXPECT_EQ(tuner.stats().changes, 1);
  EXPECT_TRUE(tuner.active_configuration().Contains(IndexDef({0})) ||
              tuner.active_configuration().Contains(IndexDef({0, 1})));
}

TEST_F(OnlineTunerTest, ReactsToAWorkloadShiftWithLag) {
  OnlineTunerOptions options;
  options.window = 400;
  options.epoch = 100;
  OnlineTuner tuner(model_.get(), configs_, options);
  tuner.ProcessAll(UniformQueries(0, 1000));
  const Configuration after_phase1 = tuner.active_configuration();
  EXPECT_TRUE(after_phase1.Contains(IndexDef({0})) ||
              after_phase1.Contains(IndexDef({0, 1})));
  tuner.ProcessAll(UniformQueries(2, 1000));
  const Configuration after_phase2 = tuner.active_configuration();
  EXPECT_TRUE(after_phase2.Contains(IndexDef({2})) ||
              after_phase2.Contains(IndexDef({2, 3})));
  ASSERT_EQ(tuner.change_log().size(), 2u);
  // The reaction to the shift at statement 1000 happens strictly after
  // it — the lag an off-line advisor does not pay.
  EXPECT_GT(tuner.change_log()[1].first, 1000u);
}

TEST_F(OnlineTunerTest, HysteresisPreventsThrashingOnFastAlternation) {
  OnlineTunerOptions options;
  options.window = 800;
  options.epoch = 100;
  options.switch_threshold = 1.5;
  OnlineTuner tuner(model_.get(), configs_, options);
  // Alternate a/c every 50 statements: the window mixes both, so no
  // single-column index dominates enough to keep re-switching.
  for (int round = 0; round < 40; ++round) {
    tuner.ProcessAll(UniformQueries(round % 2 == 0 ? 0 : 2, 50));
  }
  EXPECT_LE(tuner.stats().changes, 3);
}

TEST_F(OnlineTunerTest, RespectsSpaceBoundAndMaxIndexes) {
  OnlineTunerOptions options;
  options.window = 300;
  options.epoch = 100;
  options.space_bound_pages = IndexDef({0}).SizePages(200'000) + 1;
  OnlineTuner tuner(model_.get(), configs_, options);
  tuner.ProcessAll(UniformQueries(0, 1000));
  // The two-column index exceeds the bound; only I(a) fits.
  EXPECT_EQ(tuner.active_configuration(), Configuration({IndexDef({0})}));
}

TEST_F(OnlineTunerTest, AccumulatesExecutionAndTransitionCosts) {
  OnlineTunerOptions options;
  options.window = 200;
  options.epoch = 100;
  OnlineTuner tuner(model_.get(), configs_, options);
  tuner.ProcessAll(UniformQueries(1, 600));
  EXPECT_GT(tuner.stats().execution_cost, 0.0);
  EXPECT_GT(tuner.stats().transition_cost, 0.0);
  EXPECT_NEAR(tuner.stats().total_cost(),
              tuner.stats().execution_cost + tuner.stats().transition_cost,
              1e-9);
}

TEST_F(OnlineTunerTest, OfflineAdvisorWithForesightWinsOnW1) {
  // The structural comparison of the paper's §1: the off-line advisor
  // knows the whole trace in advance; the reactive tuner pays lag and
  // hindsight-only decisions.
  WorkloadGenerator gen(schema_, 500'000, 61);
  Workload w1 = MakeScaledPaperWorkload("W1", 200, &gen).value();

  OnlineTunerOptions options;
  options.window = 400;
  options.epoch = 100;
  OnlineTuner tuner(model_.get(), configs_, options);
  tuner.ProcessAll(w1.statements);

  WhatIfEngine what_if(model_.get(), w1.Span(),
                       SegmentFixed(w1.size(), 200));
  DesignProblem problem;
  problem.what_if = &what_if;
  problem.candidates = configs_;
  problem.initial = Configuration::Empty();
  auto offline = SolveKAware(problem, std::nullopt);
  ASSERT_TRUE(offline.ok());
  EXPECT_LT(offline->total_cost, tuner.stats().total_cost());
}

}  // namespace
}  // namespace cdpd
