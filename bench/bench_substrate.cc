// Substrate microbenchmarks: the physical primitives every experiment
// stands on — B+-tree seeks, covering scans, heap scans, index build,
// update maintenance, what-if costing throughput, and SQL trace parsing.

#include <memory>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "cost/what_if.h"
#include "index/index_builder.h"
#include "workload/query_mix.h"
#include "workload/trace_io.h"

namespace cdpd {
namespace {

constexpr int64_t kRows = 200'000;
constexpr int64_t kDomain = 500'000;

Database* GetDatabase() {
  static Database* db = [] {
    auto created = Database::Create(MakePaperSchema(), kRows, kDomain,
                                    bench_util::kSeed)
                       .value();
    AccessStats stats;
    Status status = created->ApplyConfiguration(
        Configuration({IndexDef({0}), IndexDef({0, 1}), IndexDef({2, 3})}),
        &stats);
    if (!status.ok()) std::abort();
    return created.release();
  }();
  return db;
}

void BM_BTreeSeek(benchmark::State& state) {
  Database* db = GetDatabase();
  Rng rng(1);
  for (auto _ : state) {
    AccessStats stats;
    auto result = db->Execute(
        BoundStatement::SelectPoint(0, 0, rng.UniformInt(0, kDomain - 1)),
        &stats);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_BTreeSeek);

void BM_CoveringScan(benchmark::State& state) {
  Database* db = GetDatabase();
  Rng rng(2);
  for (auto _ : state) {
    AccessStats stats;
    // Predicate on b: answered by a leaf scan of I(a,b).
    auto result = db->Execute(
        BoundStatement::SelectPoint(1, 1, rng.UniformInt(0, kDomain - 1)),
        &stats);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_CoveringScan);

void BM_TableScan(benchmark::State& state) {
  // Fresh database without indexes: the predicate column has none.
  static Database* db =
      Database::Create(MakePaperSchema(), kRows, kDomain, 7).value()
          .release();
  Rng rng(3);
  for (auto _ : state) {
    AccessStats stats;
    auto result = db->Execute(
        BoundStatement::SelectPoint(3, 3, rng.UniformInt(0, kDomain - 1)),
        &stats);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TableScan);

void BM_UpdateWithIndexMaintenance(benchmark::State& state) {
  Database* db = GetDatabase();
  Rng rng(4);
  for (auto _ : state) {
    AccessStats stats;
    auto result = db->Execute(
        BoundStatement::UpdatePoint(1, rng.UniformInt(0, kDomain - 1), 0,
                                    rng.UniformInt(0, kDomain - 1)),
        &stats);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_UpdateWithIndexMaintenance);

void BM_IndexBuild(benchmark::State& state) {
  static Table* table = [] {
    auto* t = new Table(MakePaperSchema());
    Rng rng(5);
    t->PopulateUniform(kRows, 0, kDomain, &rng);
    return t;
  }();
  for (auto _ : state) {
    AccessStats stats;
    auto tree = BuildIndex(*table, IndexDef({2, 3}), &stats);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_IndexBuild)->Unit(benchmark::kMillisecond);

void BM_WhatIfSegmentCost(benchmark::State& state) {
  static auto model = bench_util::MakePaperCostModel();
  static Workload workload = bench_util::MakeFullWorkload("W1", 9);
  static std::vector<Segment> segments = SegmentFixed(workload.size(), 500);
  const std::vector<Configuration> configs = {
      Configuration::Empty(), Configuration({IndexDef({0, 1})}),
      Configuration({IndexDef({1})})};
  for (auto _ : state) {
    // Fresh engine each iteration: measures uncached costing.
    WhatIfEngine what_if(model.get(), workload.statements, segments);
    double total = 0;
    for (size_t s = 0; s < segments.size(); ++s) {
      for (const Configuration& config : configs) {
        total += what_if.SegmentCost(s, config);
      }
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_WhatIfSegmentCost);

void BM_ApplyConfigurationRoundTrip(benchmark::State& state) {
  static Database* db =
      Database::Create(MakePaperSchema(), 50'000, kDomain, 11).value()
          .release();
  const Configuration ia({IndexDef({0})});
  for (auto _ : state) {
    AccessStats stats;
    Status build = db->ApplyConfiguration(ia, &stats);
    Status drop = db->ApplyConfiguration(Configuration::Empty(), &stats);
    if (!build.ok() || !drop.ok()) std::abort();
  }
}
BENCHMARK(BM_ApplyConfigurationRoundTrip)->Unit(benchmark::kMillisecond);

constexpr size_t kTraceStatements = 100'000;

/// The paper's W1 phases scaled to kTraceStatements point SELECTs, as a
/// WriteTrace script with block markers.
std::string MakeW1Trace() {
  const Schema schema = MakePaperSchema();
  const size_t blocks = PaperBlockMixLetters("W1").size();
  WorkloadGenerator gen(schema, kDomain, bench_util::kSeed);
  Workload workload =
      MakeScaledPaperWorkload("W1", (kTraceStatements + blocks - 1) / blocks,
                              &gen)
          .value();
  workload.statements.resize(kTraceStatements);
  return WriteTrace(schema, workload);
}

/// kTraceStatements statements over the paper's mixes: 20% UPDATE, 10%
/// INSERT, 30% BETWEEN and the rest point SELECTs.
std::string MakeDmlTrace() {
  const Schema schema = MakePaperSchema();
  const std::vector<QueryMix> mixes = MakePaperQueryMixes();
  std::vector<int> blocks;
  for (size_t b = 0; b < 100; ++b) {
    blocks.push_back(static_cast<int>(b % mixes.size()));
  }
  WorkloadGenerator gen(schema, kDomain, bench_util::kSeed);
  const DmlMixOptions dml{.update_fraction = 0.2,
                          .insert_fraction = 0.1,
                          .range_fraction = 0.3};
  return WriteTrace(
      schema,
      gen.GenerateBlocked(mixes, blocks, kTraceStatements / blocks.size(), dml)
          .value());
}

/// Parses `text` (built outside the timed loop) once per iteration.
void ReadTraceLoop(benchmark::State& state, const std::string& text) {
  const Schema schema = MakePaperSchema();
  for (auto _ : state) {
    auto workload = ReadTrace(schema, text);
    if (!workload.ok() || workload->size() != kTraceStatements) std::abort();
    benchmark::DoNotOptimize(workload);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kTraceStatements));
}

void BM_ReadTraceW1(benchmark::State& state) {
  static const std::string text = MakeW1Trace();
  ReadTraceLoop(state, text);
}
BENCHMARK(BM_ReadTraceW1)->Unit(benchmark::kMillisecond);

void BM_ReadTraceDml(benchmark::State& state) {
  static const std::string text = MakeDmlTrace();
  ReadTraceLoop(state, text);
}
BENCHMARK(BM_ReadTraceDml)->Unit(benchmark::kMillisecond);

/// Feeds every google-benchmark result into the BENCH_*.json telemetry
/// artifact (one case per benchmark, per-iteration real time) while
/// still printing the usual console table.
class ReportingReporter : public benchmark::ConsoleReporter {
 public:
  explicit ReportingReporter(bench_util::BenchReport* report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations == 0) continue;
      report_->AddCase(
          run.benchmark_name(),
          run.real_accumulated_time / static_cast<double>(run.iterations),
          {{"iterations", static_cast<double>(run.iterations)}});
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench_util::BenchReport* report_;
};

}  // namespace
}  // namespace cdpd

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  cdpd::bench_util::BenchReport report("substrate");
  cdpd::ReportingReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  report.Write();
  return 0;
}
