#include "core/sequence_graph.h"

#include <gtest/gtest.h>

#include "core/k_aware_graph.h"
#include "test_util.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;
using testing_util::ProblemFixture;

class SequenceGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fixture_ = MakeRandomProblem(/*seed=*/3, /*num_segments=*/3,
                                 /*block_size=*/15);
  }
  std::unique_ptr<ProblemFixture> fixture_;
};

TEST_F(SequenceGraphTest, NodeAndEdgeCountsMatchPaperFormulas) {
  // Figure 1's accounting: |V| = n*2^m + 2, |E| = (n-1)*2^{2m} + 2^{m+1}
  // (with "2^m" generalized to the candidate-configuration count).
  auto graph = SequenceGraph::Build(fixture_->problem);
  ASSERT_TRUE(graph.ok());
  const int64_t n = 3;
  const auto m = static_cast<int64_t>(fixture_->problem.candidates.size());
  EXPECT_EQ(graph->num_nodes(), n * m + 2);
  EXPECT_EQ(graph->num_edges(), (n - 1) * m * m + 2 * m);
}

TEST_F(SequenceGraphTest, Figure1Instance) {
  // n = 3 statements, one candidate index -> 2 configurations:
  // |V| = 8, |E| = 12.
  auto small = MakeRandomProblem(/*seed=*/4, /*num_segments=*/3,
                                 /*block_size=*/5);
  small->problem.candidates = {Configuration::Empty(),
                               Configuration({IndexDef({0})})};
  auto graph = SequenceGraph::Build(small->problem);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), 3 * 2 + 2);
  EXPECT_EQ(graph->num_edges(), 2 * 2 * 2 + 2 * 2);
}

TEST_F(SequenceGraphTest, NodeStageAndConfigRoundTrip) {
  auto graph = SequenceGraph::Build(fixture_->problem);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->NodeStage(graph->source()), 0u);
  EXPECT_EQ(graph->NodeStage(graph->destination()), 4u);
  for (size_t stage = 1; stage <= 3; ++stage) {
    for (size_t c = 0; c < graph->num_configs(); ++c) {
      const auto node = graph->StageNode(stage, c);
      EXPECT_EQ(graph->NodeStage(node), stage);
      EXPECT_EQ(graph->NodeConfigIndex(node), c);
    }
  }
}

TEST_F(SequenceGraphTest, ShortestPathMatchesDpOptimizer) {
  auto graph = SequenceGraph::Build(fixture_->problem);
  ASSERT_TRUE(graph.ok());
  const DagShortestPaths paths = ComputeShortestPaths(*graph);
  auto schedule = SolveKAware(fixture_->problem, std::nullopt);
  ASSERT_TRUE(schedule.ok());
  EXPECT_NEAR(paths.dist[static_cast<size_t>(graph->destination())],
              schedule->total_cost, 1e-6);

  const auto path = ExtractPath(*graph, paths, graph->destination());
  ASSERT_EQ(path.size(), 5u);  // source + 3 stages + destination.
  // Both are optimal; tie-breaking may differ, so compare by cost.
  EXPECT_NEAR(EvaluateScheduleCost(fixture_->problem, graph->PathConfigs(path)),
              schedule->total_cost, 1e-6);
}

TEST_F(SequenceGraphTest, PathWeightEqualsScheduleCost) {
  auto graph = SequenceGraph::Build(fixture_->problem);
  ASSERT_TRUE(graph.ok());
  const DagShortestPaths paths = ComputeShortestPaths(*graph);
  const auto path = ExtractPath(*graph, paths, graph->destination());
  const std::vector<Configuration> configs = graph->PathConfigs(path);
  EXPECT_NEAR(paths.dist[static_cast<size_t>(graph->destination())],
              EvaluateScheduleCost(fixture_->problem, configs), 1e-6);
}

TEST_F(SequenceGraphTest, PathChangesUsesProblemPolicy) {
  auto graph = SequenceGraph::Build(fixture_->problem);
  ASSERT_TRUE(graph.ok());
  // A path that stays on candidate 0 for all stages has 0 changes.
  std::vector<SequenceGraph::NodeId> path = {graph->source()};
  for (size_t stage = 1; stage <= 3; ++stage) {
    path.push_back(graph->StageNode(stage, 0));
  }
  path.push_back(graph->destination());
  EXPECT_EQ(graph->PathChanges(path), 0);
  // Alternating between two configs changes twice.
  path[2] = graph->StageNode(2, 1);
  EXPECT_EQ(graph->PathChanges(path), 2);
}

TEST_F(SequenceGraphTest, FinalConfigConstraintWeightsDestinationEdges) {
  DesignProblem problem = fixture_->problem;
  problem.final_config = Configuration::Empty();
  auto graph = SequenceGraph::Build(problem);
  ASSERT_TRUE(graph.ok());
  // The destination edge from a non-empty configuration carries its
  // drop cost; from the empty configuration it is free.
  for (int32_t edge_id :
       graph->InEdgeIds(graph->destination())) {
    const SequenceGraph::Edge& edge = graph->edge(edge_id);
    const Configuration& config =
        problem.candidates[graph->NodeConfigIndex(edge.from)];
    if (config.empty()) {
      EXPECT_DOUBLE_EQ(edge.weight, 0.0);
    } else {
      EXPECT_GT(edge.weight, 0.0);
    }
  }
}

TEST_F(SequenceGraphTest, ToDotMentionsEveryNode) {
  auto graph = SequenceGraph::Build(fixture_->problem);
  ASSERT_TRUE(graph.ok());
  const std::string dot = graph->ToDot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("n0"), std::string::npos);
  EXPECT_NE(dot.find("dest"), std::string::npos);
}

TEST_F(SequenceGraphTest, EmptyWorkloadGraphIsSourceToDestination) {
  auto empty = MakeRandomProblem(/*seed=*/5, /*num_segments=*/0,
                                 /*block_size=*/1);
  auto graph = SequenceGraph::Build(empty->problem);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), 2);
  EXPECT_EQ(graph->num_edges(), 1);
}

}  // namespace
}  // namespace cdpd
