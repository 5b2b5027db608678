#ifndef CDPD_TESTS_TEST_UTIL_H_
#define CDPD_TESTS_TEST_UTIL_H_

#include <memory>
#include <vector>

#include "advisor/config_enumeration.h"
#include "common/rng.h"
#include "core/design_problem.h"
#include "cost/cost_model.h"
#include "cost/what_if.h"
#include "index/index_def.h"
#include "storage/schema.h"
#include "workload/generator.h"
#include "workload/query_mix.h"
#include "workload/workload.h"

namespace cdpd {
namespace testing_util {

/// Value domain used by the small test fixtures.
inline constexpr int64_t kTestDomain = 1000;

/// A self-contained design-problem fixture over the paper's 4-column
/// schema: owns the cost model, workload, segments, what-if oracle and
/// problem so tests can pass `fixture.problem` straight to optimizers.
struct ProblemFixture {
  Schema schema;
  std::unique_ptr<CostModel> model;
  std::vector<BoundStatement> statements;
  std::vector<Segment> segments;
  std::unique_ptr<WhatIfEngine> what_if;
  DesignProblem problem;
};

/// Builds a fixture with `num_segments` segments of `block_size`
/// random point statements (plus the occasional update), over a table
/// of `num_rows` rows, with all configurations of at most
/// `max_indexes_per_config` indexes drawn from `candidate_indexes`
/// (defaults to the paper's six candidates).
inline std::unique_ptr<ProblemFixture> MakeRandomProblem(
    uint64_t seed, size_t num_segments, size_t block_size,
    int32_t max_indexes_per_config = 1, int64_t num_rows = 100'000,
    double update_fraction = 0.1) {
  auto fixture = std::make_unique<ProblemFixture>();
  fixture->schema = MakePaperSchema();
  fixture->model = std::make_unique<CostModel>(fixture->schema, num_rows,
                                               kTestDomain);

  Rng rng(seed);
  WorkloadGenerator generator(fixture->schema, kTestDomain, rng.Next());
  const std::vector<QueryMix> mixes = MakePaperQueryMixes();
  std::vector<int> blocks;
  for (size_t i = 0; i < num_segments; ++i) {
    blocks.push_back(static_cast<int>(rng.NextBounded(mixes.size())));
  }
  DmlMixOptions dml;
  dml.update_fraction = update_fraction;
  Workload workload =
      generator.GenerateBlocked(mixes, blocks, block_size, dml).value();
  fixture->statements = std::move(workload.statements);
  fixture->segments = SegmentFixed(fixture->statements.size(), block_size);

  fixture->what_if = std::make_unique<WhatIfEngine>(
      fixture->model.get(), fixture->statements, fixture->segments);

  ConfigEnumOptions enum_options;
  enum_options.max_indexes_per_config = max_indexes_per_config;
  enum_options.num_rows = num_rows;
  fixture->problem.what_if = fixture->what_if.get();
  fixture->problem.candidates =
      EnumerateConfigurations(MakePaperCandidateIndexes(fixture->schema),
                              enum_options)
          .value();
  fixture->problem.initial = Configuration::Empty();
  return fixture;
}

/// Shorthand for an index over named columns of `schema`.
inline IndexDef MakeIndex(const Schema& schema,
                          const std::vector<std::string>& columns) {
  return IndexDef::FromColumnNames(schema, columns).value();
}

/// A random DML statement over `schema` with literals in +-1e6: point
/// and range SELECTs, UPDATEs and full-row INSERTs, equally often.
inline BoundStatement RandomStatement(Rng* rng, const Schema& schema) {
  const auto col = [&] {
    return static_cast<ColumnId>(
        rng->NextBounded(static_cast<uint64_t>(schema.num_columns())));
  };
  const auto value = [&] { return rng->UniformInt(-1'000'000, 1'000'000); };
  switch (rng->NextBounded(4)) {
    case 0:
      return BoundStatement::SelectPoint(col(), col(), value());
    case 1: {
      const Value lo = value();
      return BoundStatement::SelectRange(col(), col(), lo,
                                         lo + rng->UniformInt(0, 10'000));
    }
    case 2:
      return BoundStatement::UpdatePoint(col(), value(), col(), value());
    default: {
      std::vector<Value> values;
      for (int32_t i = 0; i < schema.num_columns(); ++i) {
        values.push_back(value());
      }
      return BoundStatement::Insert(std::move(values));
    }
  }
}

}  // namespace testing_util
}  // namespace cdpd

#endif  // CDPD_TESTS_TEST_UTIL_H_
