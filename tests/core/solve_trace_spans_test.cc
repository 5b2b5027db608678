// Span count of a traced solve: every solver phase records one span,
// whatever the stage count. A span costs about a microsecond, so a
// span per stage, segment or merge step would make a traced solve
// scale with the window — and every advisor_server request is traced.

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/tracing.h"
#include "core/solver.h"
#include "test_util.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;

struct Way {
  const char* label;
  OptimizerMethod method;
  std::optional<int64_t> k;
};

/// The traced events of one Solve() over `stages` stages.
std::vector<Tracer::Event> TracedSolve(const Way& way, size_t stages) {
  auto fixture = MakeRandomProblem(31, stages, /*block_size=*/2);
  Tracer tracer;
  SolveOptions options;
  options.method = way.method;
  options.k = way.k;
  options.num_threads = 2;
  options.segmented.num_chunks = 1;
  options.observability.tracer = &tracer;
  if (way.method == OptimizerMethod::kGreedySeq) {
    options.greedy.candidate_indexes =
        MakePaperCandidateIndexes(fixture->schema);
    options.greedy.max_indexes_per_config = 1;
  }
  const Result<SolveResult> result = Solve(fixture->problem, options);
  EXPECT_TRUE(result.ok()) << way.label << ": " << result.status();
  return tracer.Events();
}

/// The arg of the one event named `name`, or nullopt.
std::optional<int64_t> ArgOf(const std::vector<Tracer::Event>& events,
                             const char* name) {
  std::optional<int64_t> arg;
  for (const Tracer::Event& event : events) {
    if (std::strcmp(event.name, name) != 0) continue;
    EXPECT_FALSE(arg.has_value()) << "two " << name << " spans";
    arg = event.arg;
  }
  return arg;
}

TEST(SolveTraceSpansTest, EventCountIsIndependentOfTheStageCount) {
  const Way ways[] = {
      {"optimal, one chunk", OptimizerMethod::kOptimal, 2},
      {"optimal, k < 0", OptimizerMethod::kOptimal, std::nullopt},
      {"greedy-seq", OptimizerMethod::kGreedySeq, 2},
      {"merging", OptimizerMethod::kMerging, 2},
  };
  for (const Way& way : ways) {
    const std::vector<Tracer::Event> small = TracedSolve(way, 200);
    const std::vector<Tracer::Event> large = TracedSolve(way, 2000);
    EXPECT_GT(small.size(), 0u) << way.label;
    EXPECT_EQ(small.size(), large.size()) << way.label;
  }
}

TEST(SolveTraceSpansTest, PhaseSpansCarryTheirCounts) {
  constexpr size_t kStages = 200;
  EXPECT_EQ(ArgOf(TracedSolve({"k-aware", OptimizerMethod::kOptimal, 2},
                              kStages),
                  "kaware.dp"),
            static_cast<int64_t>(kStages - 1));
  EXPECT_EQ(ArgOf(TracedSolve({"unconstrained", OptimizerMethod::kOptimal,
                               std::nullopt},
                              kStages),
                  "unconstrained.dp"),
            static_cast<int64_t>(kStages - 1));
  EXPECT_EQ(ArgOf(TracedSolve({"k-aware", OptimizerMethod::kOptimal, 2},
                              kStages),
                  "kaware.path"),
            static_cast<int64_t>(kStages));
  EXPECT_EQ(ArgOf(TracedSolve({"unconstrained", OptimizerMethod::kOptimal,
                               std::nullopt},
                              kStages),
                  "unconstrained.path"),
            static_cast<int64_t>(kStages));
  EXPECT_EQ(ArgOf(TracedSolve({"greedy-seq", OptimizerMethod::kGreedySeq, 2},
                              kStages),
                  "greedyseq.grow"),
            static_cast<int64_t>(kStages));
  const std::optional<int64_t> steps = ArgOf(
      TracedSolve({"merging", OptimizerMethod::kMerging, 2}, kStages),
      "merging.merge");
  ASSERT_TRUE(steps.has_value());
  EXPECT_GT(*steps, 0);
}

}  // namespace
}  // namespace cdpd
