#include "workload/adaptive_segmenter.h"

#include <gtest/gtest.h>

#include "core/advisor.h"
#include "workload/standard_workloads.h"

namespace cdpd {
namespace {

class AdaptiveSegmenterTest : public ::testing::Test {
 protected:
  Schema schema_ = MakePaperSchema();

  Workload MakeW1(size_t block, uint64_t seed) {
    WorkloadGenerator gen(schema_, 500'000, seed);
    return MakeScaledPaperWorkload("W1", block, &gen).value();
  }
};

TEST_F(AdaptiveSegmenterTest, MergesHomogeneousRunsOfW1) {
  const Workload w1 = MakeW1(200, 81);
  AdaptiveSegmentOptions options;
  options.base_block_size = 200;
  const std::vector<Segment> segments =
      SegmentAdaptive(schema_, w1.statements, options);
  // W1 at this resolution has 15 maximal same-mix runs (AA BB AA BB AA
  // per phase): the segmenter should find roughly that many stages,
  // far fewer than the 30 fixed blocks.
  EXPECT_GE(segments.size(), 13u);
  EXPECT_LE(segments.size(), 18u);
  // Segments tile the workload.
  size_t covered = 0;
  size_t expected_begin = 0;
  for (const Segment& segment : segments) {
    EXPECT_EQ(segment.begin, expected_begin);
    covered += segment.size();
    expected_begin = segment.end;
  }
  EXPECT_EQ(covered, w1.size());
}

TEST_F(AdaptiveSegmenterTest, StableWorkloadCollapsesToOneSegment) {
  WorkloadGenerator gen(schema_, 500'000, 82);
  Workload stable =
      gen.GenerateBlocked(MakePaperQueryMixes(), std::vector<int>(20, 2),
                          200)
          .value();
  AdaptiveSegmentOptions options;
  options.base_block_size = 200;
  const std::vector<Segment> segments =
      SegmentAdaptive(schema_, stable.statements, options);
  EXPECT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].end, stable.size());
}

TEST_F(AdaptiveSegmenterTest, ZeroThresholdKeepsEveryBlock) {
  const Workload w1 = MakeW1(200, 83);
  AdaptiveSegmentOptions options;
  options.base_block_size = 200;
  options.merge_threshold = 0.0;  // Sampling noise exceeds 0.
  const std::vector<Segment> segments =
      SegmentAdaptive(schema_, w1.statements, options);
  EXPECT_EQ(segments.size(), 30u);
}

TEST_F(AdaptiveSegmenterTest, MaxSegmentBlocksCapsMerging) {
  WorkloadGenerator gen(schema_, 500'000, 84);
  Workload stable =
      gen.GenerateBlocked(MakePaperQueryMixes(), std::vector<int>(20, 0),
                          100)
          .value();
  AdaptiveSegmentOptions options;
  options.base_block_size = 100;
  options.max_segment_blocks = 5;
  const std::vector<Segment> segments =
      SegmentAdaptive(schema_, stable.statements, options);
  EXPECT_EQ(segments.size(), 4u);
  for (const Segment& segment : segments) {
    EXPECT_LE(segment.size(), 500u);
  }
}

TEST_F(AdaptiveSegmenterTest, DegenerateInputs) {
  EXPECT_TRUE(SegmentAdaptive(schema_, {}, {}).empty());
  const Workload w1 = MakeW1(100, 85);
  AdaptiveSegmentOptions options;
  options.base_block_size = 0;
  EXPECT_TRUE(SegmentAdaptive(schema_, w1.statements, options).empty());
}

TEST_F(AdaptiveSegmenterTest, AdvisorWithAdaptiveStagesMatchesFixedQuality) {
  const Workload w1 = MakeW1(200, 86);
  CostModel model(schema_, 200'000, 500'000);
  Advisor advisor(&model);

  AdvisorOptions fixed;
  fixed.block_size = 200;
  fixed.solve.k = 2;
  fixed.candidate_indexes = MakePaperCandidateIndexes(schema_);
  auto fixed_rec = advisor.Recommend(w1, fixed);
  ASSERT_TRUE(fixed_rec.ok());

  AdvisorOptions adaptive = fixed;
  adaptive.segmentation = SegmentationMode::kAdaptive;
  auto adaptive_rec = advisor.Recommend(w1, adaptive);
  ASSERT_TRUE(adaptive_rec.ok()) << adaptive_rec.status();

  // Fewer stages, same design quality (the paper's phase pattern).
  EXPECT_LT(adaptive_rec->segments.size(), fixed_rec->segments.size());
  EXPECT_NEAR(adaptive_rec->schedule.total_cost,
              fixed_rec->schedule.total_cost,
              0.01 * fixed_rec->schedule.total_cost);
  EXPECT_LE(adaptive_rec->changes, 2);
}

}  // namespace
}  // namespace cdpd
