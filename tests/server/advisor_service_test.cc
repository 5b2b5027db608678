// AdvisorService: request parsing strictness, the sliding-window
// ingest contract, and the warm-start property the whole serving
// design rests on — a resident service re-solving over a slid window
// (resident answer, shared pool) answers bit-identically to a cold
// one-shot Solve() over the same window.

#include "server/advisor_service.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/config_enumeration.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/tracing.h"
#include "core/design_problem.h"
#include "core/solver.h"
#include "index/index_def.h"
#include "workload/trace_io.h"
#include "workload/workload.h"

namespace cdpd {
namespace {

// Test-scale service: small blocks so a handful of statements already
// give the DP several stages.
ServiceOptions SmallServiceOptions() {
  ServiceOptions options;
  options.rows = 50'000;
  options.domain_size = 100'000;
  options.block_size = 5;
  options.k = 2;
  options.method = OptimizerMethod::kOptimal;
  options.num_threads = 2;
  return options;
}

// One batch of paper-dialect statements; `salt` varies the literals so
// batches are distinguishable in the window.
std::string TraceBatch(int salt) {
  std::string sql;
  for (int i = 0; i < 2; ++i) {
    const int v = salt * 10 + i;
    sql += "SELECT a FROM t WHERE a = " + std::to_string(v) + ";\n";
    sql += "SELECT b FROM t WHERE b = " + std::to_string(v + 1) + ";\n";
    sql += "UPDATE t SET c = " + std::to_string(v) + " WHERE d = " +
           std::to_string(v + 2) + ";\n";
    sql += "SELECT c FROM t WHERE d = " + std::to_string(v + 3) + ";\n";
    sql += "SELECT d FROM t WHERE b = " + std::to_string(v + 4) + ";\n";
  }
  return sql;
}

// The cold one-shot reference: a fresh model, engine, and solver over
// exactly `sql`, built the way the service builds its own problem.
// No shared pool, nothing resident.
SolveResult ColdOneShot(const ServiceOptions& options, const std::string& sql,
                        const Configuration& initial) {
  CostModel model(options.schema, options.rows, options.domain_size,
                  options.params);
  Workload trace = ReadTrace(options.schema, sql).value();
  const std::vector<Segment> segments =
      SegmentFixed(trace.size(), options.block_size);
  WhatIfEngine engine(&model, trace.statements, segments);

  ConfigEnumOptions enum_options;
  enum_options.max_indexes_per_config = options.max_indexes_per_config;
  enum_options.space_bound_pages = options.space_bound_pages;
  enum_options.num_rows = model.num_rows();
  std::vector<Configuration> candidates =
      EnumerateConfigurations(MakePaperCandidateIndexes(options.schema),
                              enum_options)
          .value();

  DesignProblem problem;
  problem.what_if = &engine;
  problem.candidates = candidates;
  problem.initial = initial;
  problem.space_bound_pages = options.space_bound_pages;

  SolveOptions solve_options;
  solve_options.method = options.method;
  solve_options.k = options.k;
  return Solve(problem, solve_options).value();
}

TEST(ParseRecommendRequestTest, ParsesEveryKeyWithCommentsAndBlanks) {
  const RecommendRequest request = ParseRecommendRequest(
                                       "# a full request\n"
                                       "k=3\n"
                                       "\n"
                                       "method=greedy-seq\n"
                                       "deadline_ms=250\n"
                                       "memory_limit_bytes=1048576\n"
                                       "prune=true\n"
                                       "chunks=4\n"
                                       "apply=1\n")
                                       .value();
  ASSERT_TRUE(request.k.has_value());
  EXPECT_EQ(*request.k, 3);
  ASSERT_TRUE(request.method.has_value());
  EXPECT_EQ(*request.method, OptimizerMethod::kGreedySeq);
  ASSERT_TRUE(request.deadline.has_value());
  EXPECT_EQ(request.deadline->count(), 250);
  ASSERT_TRUE(request.memory_limit_bytes.has_value());
  EXPECT_EQ(*request.memory_limit_bytes, 1048576);
  EXPECT_TRUE(request.prune);
  EXPECT_EQ(request.segment_chunks, 4);
  EXPECT_TRUE(request.apply);
}

TEST(ParseRecommendRequestTest, EmptyPayloadIsAllDefaults) {
  const RecommendRequest request = ParseRecommendRequest("").value();
  EXPECT_FALSE(request.k.has_value());
  EXPECT_FALSE(request.method.has_value());
  EXPECT_FALSE(request.deadline.has_value());
  EXPECT_FALSE(request.prune);
  EXPECT_FALSE(request.apply);
}

TEST(ParseRecommendRequestTest, RejectsTyposInsteadOfDefaulting) {
  // Every malformed input must be an error — a typo that silently
  // falls back to the defaults is a debugging trap on a live server.
  const char* bad[] = {
      "kk=2",                      // unknown key
      "just some text",            // no '='
      "k=two",                     // non-integer
      "k=",                        // empty integer
      "deadline_ms=-5",            // negative deadline
      "memory_limit_bytes=0",      // non-positive limit
      "method=simulated-anneal",   // unknown method
      "prune=maybe",               // non-boolean
      "chunks=-1",                 // negative chunk count
      "apply=2",                   // non-boolean
  };
  for (const char* payload : bad) {
    const auto result = ParseRecommendRequest(payload);
    ASSERT_FALSE(result.ok()) << payload;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << payload;
  }
}

TEST(AdvisorServiceTest, ParseConfigSpecForms) {
  AdvisorService service(SmallServiceOptions());
  EXPECT_EQ(service.ParseConfigSpec("").value().num_indexes(), 0);
  EXPECT_EQ(service.ParseConfigSpec(" {} ").value().num_indexes(), 0);
  EXPECT_EQ(service.ParseConfigSpec("a").value().num_indexes(), 1);
  EXPECT_EQ(service.ParseConfigSpec("a,b;c").value().num_indexes(), 2);
  EXPECT_FALSE(service.ParseConfigSpec("a,,b").ok());
  EXPECT_FALSE(service.ParseConfigSpec("nosuchcolumn").ok());
}

TEST(AdvisorServiceTest, IngestSlidesTheWindowAndBumpsTheEpoch) {
  ServiceOptions options = SmallServiceOptions();
  options.window_statements = 15;
  AdvisorService service(options);
  EXPECT_EQ(service.window_size(), 0u);
  EXPECT_EQ(service.epoch(), 0u);

  const IngestAck first = service.IngestSql(TraceBatch(1)).value();
  EXPECT_EQ(first.accepted, 10u);
  EXPECT_EQ(first.window_statements, 10u);
  EXPECT_EQ(first.dropped, 0u);
  EXPECT_EQ(first.epoch, 1u);

  // 10 more statements against a 15-cap: the 5 oldest fall out.
  const IngestAck second = service.IngestSql(TraceBatch(2)).value();
  EXPECT_EQ(second.accepted, 10u);
  EXPECT_EQ(second.window_statements, 15u);
  EXPECT_EQ(second.dropped, 5u);
  EXPECT_EQ(second.epoch, 2u);
  EXPECT_EQ(service.window_size(), 15u);

  // A comment-only batch is a no-op: same window, same epoch (so the
  // resident solution stays valid).
  const IngestAck noop = service.IngestSql("-- nothing\n").value();
  EXPECT_EQ(noop.accepted, 0u);
  EXPECT_EQ(noop.window_statements, 15u);
  EXPECT_EQ(noop.epoch, 2u);

  EXPECT_FALSE(service.IngestSql("SELECT a FROM nosuchtable;").ok());
}

TEST(AdvisorServiceTest, WhatIfRejectsConfigOverTheSpaceBound) {
  ServiceOptions options = SmallServiceOptions();
  options.space_bound_pages = 1;  // No index fits in one page.
  AdvisorService service(options);
  ASSERT_TRUE(service.IngestSql(TraceBatch(1)).ok());
  const Configuration indexed = service.ParseConfigSpec("a").value();
  const auto result = service.WhatIfConfig(indexed);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // The empty configuration always fits.
  EXPECT_TRUE(service.WhatIfConfig(Configuration()).ok());
}

// Σ_i EXEC(S_i, config) over `window` cut into `block_size` segments,
// straight from the cost model: per segment, count x StatementCost over
// its literal-erased shapes in first-appearance order, segments in
// order — the summation the service's WHATIF answer must reproduce.
double ReferenceWindowExec(const CostModel& model,
                           const std::vector<BoundStatement>& window,
                           size_t block_size, const Configuration& config) {
  double total = 0.0;
  for (const Segment& segment : SegmentFixed(window.size(), block_size)) {
    std::vector<std::pair<BoundStatement, int64_t>> profile;
    for (size_t i = segment.begin; i < segment.end; ++i) {
      BoundStatement shape = window[i];
      shape.where_value = 0;
      shape.set_value = 0;
      auto it = std::find_if(profile.begin(), profile.end(),
                             [&](const auto& e) { return e.first == shape; });
      if (it != profile.end()) {
        ++it->second;
      } else {
        profile.emplace_back(shape, 1);
      }
    }
    double cost = 0.0;
    for (const auto& [shape, count] : profile) {
      cost += static_cast<double>(count) * model.StatementCost(shape, config);
    }
    total += cost;
  }
  return total;
}

// The window after ingesting TraceBatch(1..batches) under a
// `window_statements` cap.
std::vector<BoundStatement> WindowAfter(const ServiceOptions& options,
                                        int batches) {
  std::string sql;
  for (int b = 1; b <= batches; ++b) sql += TraceBatch(b);
  std::vector<BoundStatement> window =
      ReadTrace(options.schema, sql).value().statements;
  if (window.size() > options.window_statements) {
    window.erase(window.begin(),
                 window.end() -
                     static_cast<ptrdiff_t>(options.window_statements));
  }
  return window;
}

TEST(AdvisorServiceTest, WhatIfAnswersMatchStatementCostReference) {
  ServiceOptions options = SmallServiceOptions();
  options.window_statements = 25;
  AdvisorService service(options);
  const CostModel model(options.schema, options.rows, options.domain_size,
                        options.params);
  const Configuration initial;
  const std::vector<Configuration> configs = {
      Configuration(), service.ParseConfigSpec("a").value(),
      service.ParseConfigSpec("b,c;d").value()};
  // Before and after INGESTs that slide the window (batch 3 drops the
  // oldest statements).
  for (int batches = 1; batches <= 4; ++batches) {
    ASSERT_TRUE(service.IngestSql(TraceBatch(batches)).ok());
    const std::vector<BoundStatement> window = WindowAfter(options, batches);
    ASSERT_EQ(service.window_size(), window.size());
    for (const Configuration& config : configs) {
      const WhatIfAnswer answer = service.WhatIfConfig(config).value();
      EXPECT_EQ(answer.segments,
                SegmentFixed(window.size(), options.block_size).size());
      EXPECT_EQ(answer.exec_cost, ReferenceWindowExec(model, window,
                                                      options.block_size,
                                                      config))
          << "batches " << batches << " config "
          << config.ToString(options.schema);
      EXPECT_EQ(answer.base_exec_cost,
                ReferenceWindowExec(model, window, options.block_size,
                                    initial));
      EXPECT_EQ(answer.build_cost, model.TransitionCost(initial, config));
    }
  }
}

TEST(AdvisorServiceTest, WhatIfDuringIngestAnswersSomeWholeWindow) {
  // A WHATIF racing INGESTs prices one whole window snapshot: its
  // answer is bit-identical to the reference of some epoch's window,
  // never a mix of two.
  ServiceOptions options = SmallServiceOptions();
  options.window_statements = 25;
  AdvisorService service(options);
  const CostModel model(options.schema, options.rows, options.domain_size,
                        options.params);
  const Configuration config = service.ParseConfigSpec("a").value();
  constexpr int kBatches = 12;
  std::vector<double> references = {0.0};  // Epoch 0: empty window.
  for (int batches = 1; batches <= kBatches; ++batches) {
    references.push_back(ReferenceWindowExec(
        model, WindowAfter(options, batches), options.block_size, config));
  }

  std::atomic<bool> done{false};
  std::thread ingester([&] {
    for (int b = 1; b <= kBatches; ++b) {
      EXPECT_TRUE(service.IngestSql(TraceBatch(b)).ok());
    }
    done.store(true);
  });
  std::vector<double> answers;
  while (!done.load() || answers.size() < 2) {
    answers.push_back(service.WhatIfConfig(config).value().exec_cost);
  }
  ingester.join();
  for (const double answer : answers) {
    EXPECT_NE(std::find(references.begin(), references.end(), answer),
              references.end())
        << answer;
  }
  EXPECT_EQ(service.WhatIfConfig(config).value().exec_cost,
            references.back());
}

TEST(AdvisorServiceTest, RecommendOnEmptyWindowIsFailedPrecondition) {
  AdvisorService service(SmallServiceOptions());
  const auto result = service.RecommendNow(RecommendRequest{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

// The tentpole property: after every window slide, the resident
// service's warm re-solve is bit-identical to a cold one-shot Solve()
// over the same window — same schedule, same total cost. The shared
// pool and the resident answer are pure accelerators.
TEST(AdvisorServiceTest, WarmResolveIsBitIdenticalToColdOneShot) {
  ServiceOptions options = SmallServiceOptions();
  options.window_statements = 25;
  AdvisorService service(options);

  // Mirror of the service's window, cap applied, statement by
  // statement — the cold reference solves over exactly this text.
  std::deque<std::string> window;
  for (int step = 1; step <= 4; ++step) {
    const std::string batch = TraceBatch(step);
    for (const std::string& line : Split(batch, '\n')) {
      if (Trim(line).empty()) continue;
      window.push_back(line);
      if (window.size() > options.window_statements) window.pop_front();
    }
    ASSERT_TRUE(service.IngestSql(batch).ok());

    const RecommendAnswer warm =
        service.RecommendNow(RecommendRequest{}).value();
    EXPECT_FALSE(warm.reused_resident);

    std::string window_sql;
    for (const std::string& line : window) window_sql += line + "\n";
    const SolveResult cold = ColdOneShot(options, window_sql,
                                         /*initial=*/Configuration());

    ASSERT_EQ(warm.schedule.configs.size(), cold.schedule.configs.size())
        << "step " << step;
    EXPECT_EQ(warm.schedule.configs, cold.schedule.configs)
        << "step " << step;
    EXPECT_EQ(warm.schedule.total_cost, cold.schedule.total_cost)
        << "step " << step;  // bitwise: no tolerance
  }
}

// ServiceOptions::num_threads is the thread count of every solve: 1
// is serial (no pool; a solve must not fall back to the hardware
// default), and more than one runs on the service's resident pool.
TEST(AdvisorServiceTest, SerialServiceSolvesSerially) {
  for (const int threads : {1, 2}) {
    ServiceOptions options = SmallServiceOptions();
    options.num_threads = threads;
    AdvisorService service(options);
    ASSERT_TRUE(service.IngestSql(TraceBatch(2)).ok());
    const RecommendAnswer answer =
        service.RecommendNow(RecommendRequest{}).value();
    EXPECT_EQ(answer.stats.threads_used, threads);
  }
}

// Every solve publishes into the service registry (never the caller's
// metrics slot), and its spans land on the request's tracer when it
// brings one, else on ServiceOptions::observability's.
TEST(AdvisorServiceTest, SolveSinksComeFromTheServiceAndTheRequest) {
  MetricsRegistry caller_metrics;
  Tracer service_tracer;
  ServiceOptions options = SmallServiceOptions();
  options.observability.metrics = &caller_metrics;
  options.observability.tracer = &service_tracer;
  AdvisorService service(options);
  ASSERT_TRUE(service.IngestSql(TraceBatch(4)).ok());

  ASSERT_TRUE(service.RecommendNow(RecommendRequest{}).ok());
  EXPECT_EQ(service.registry()->Snapshot().CounterValue("solver.solves"), 1);
  EXPECT_EQ(caller_metrics.Snapshot().CounterValue("solver.solves"), 0);
  const size_t service_events = service_tracer.num_events();
  EXPECT_GT(service_events, 0u);

  // A request tracer wins for that solve. k=1 differs from the
  // resident answer's k=2, so this is a fresh solve.
  Tracer request_tracer;
  RecommendRequest request;
  request.k = 1;
  const RecommendAnswer answer =
      service.RecommendNow(request, &request_tracer).value();
  EXPECT_FALSE(answer.reused_resident);
  EXPECT_GT(request_tracer.num_events(), 0u);
  EXPECT_EQ(service_tracer.num_events(), service_events);
  EXPECT_EQ(service.registry()->Snapshot().CounterValue("solver.solves"), 2);
}

TEST(AdvisorServiceTest, ResidentSolutionAnswersIdenticalRepeatRequests) {
  AdvisorService service(SmallServiceOptions());
  ASSERT_TRUE(service.IngestSql(TraceBatch(3)).ok());

  const RecommendAnswer first =
      service.RecommendNow(RecommendRequest{}).value();
  EXPECT_FALSE(first.reused_resident);

  const RecommendAnswer repeat =
      service.RecommendNow(RecommendRequest{}).value();
  EXPECT_TRUE(repeat.reused_resident);
  EXPECT_EQ(repeat.schedule.configs, first.schedule.configs);
  EXPECT_EQ(repeat.schedule.total_cost, first.schedule.total_cost);
  EXPECT_EQ(service.registry()->Snapshot().CounterValue(
                "server.recommends_reused"),
            1);

  // Different options -> a real re-solve.
  RecommendRequest different;
  different.k = 1;
  EXPECT_FALSE(service.RecommendNow(different).value().reused_resident);

  // A deadline-bounded request is never served from the resident
  // solution (its result is time-dependent by contract).
  RecommendRequest deadline_bound;
  deadline_bound.deadline = std::chrono::milliseconds(60'000);
  EXPECT_FALSE(
      service.RecommendNow(deadline_bound).value().reused_resident);

  // An ingest invalidates it too.
  ASSERT_TRUE(service.IngestSql(TraceBatch(4)).ok());
  EXPECT_FALSE(
      service.RecommendNow(RecommendRequest{}).value().reused_resident);
}

// RECOMMEND on the wire encodes the resident answer itself, uncopied:
// Handle's bytes equal RecommendNow's answer encoded with the reuse
// flag of the call that produced them — fresh or reused, on either
// entry point, across window slides.
TEST(AdvisorServiceTest, HandleRecommendEncodesTheResidentAnswer) {
  AdvisorService service(SmallServiceOptions());
  const Schema& schema = service.schema();
  const auto handle = [&] {
    Result<std::string> json =
        service.Handle(static_cast<uint8_t>(ServerOp::kRecommend), "k=2");
    EXPECT_TRUE(json.ok()) << json.status();
    return json.ok() ? *json : std::string();
  };
  RecommendRequest request;
  request.k = 2;
  const auto encoded_as = [&](RecommendAnswer answer, bool reused) {
    answer.reused_resident = reused;
    return answer.ToJson(schema);
  };
  const std::string fresh_flag = "\"reused_resident\":false";
  const std::string reused_flag = "\"reused_resident\":true";
  for (int slide = 1; slide <= 4; ++slide) {
    ASSERT_TRUE(service.IngestSql(TraceBatch(slide)).ok());
    if (slide % 2 == 1) {
      // Fresh on the wire, then reused by the typed call and the wire.
      const std::string fresh = handle();
      EXPECT_NE(fresh.find(fresh_flag), std::string::npos) << slide;
      const RecommendAnswer reused = service.RecommendNow(request).value();
      EXPECT_TRUE(reused.reused_resident);
      EXPECT_EQ(fresh, encoded_as(reused, false)) << slide;
      const std::string reused_wire = handle();
      EXPECT_NE(reused_wire.find(reused_flag), std::string::npos) << slide;
      EXPECT_EQ(reused_wire, reused.ToJson(schema)) << slide;
    } else {
      // Fresh from the typed call, then reused on the wire.
      const RecommendAnswer fresh = service.RecommendNow(request).value();
      EXPECT_FALSE(fresh.reused_resident);
      const std::string reused_wire = handle();
      EXPECT_NE(reused_wire.find(reused_flag), std::string::npos) << slide;
      EXPECT_EQ(reused_wire, encoded_as(fresh, true)) << slide;
      EXPECT_EQ(reused_wire, service.RecommendNow(request)->ToJson(schema))
          << slide;
    }
  }
}

TEST(AdvisorServiceTest, ApplyAdoptsTheFinalConfigAsInitial) {
  AdvisorService service(SmallServiceOptions());
  ASSERT_TRUE(service.IngestSql(TraceBatch(5)).ok());
  EXPECT_EQ(service.initial_config().num_indexes(), 0);

  RecommendRequest apply;
  apply.apply = true;
  const RecommendAnswer answer = service.RecommendNow(apply).value();
  ASSERT_FALSE(answer.schedule.configs.empty());
  EXPECT_TRUE(service.initial_config() == answer.schedule.configs.back());
}

TEST(AdvisorServiceTest, HandleDispatchesOpcodesAndRejectsTheRest) {
  AdvisorService service(SmallServiceOptions());
  EXPECT_EQ(service.Handle(static_cast<uint8_t>(ServerOp::kPing), "").value(),
            "");

  const std::string ack =
      service.Handle(static_cast<uint8_t>(ServerOp::kIngest), TraceBatch(1))
          .value();
  EXPECT_NE(ack.find("\"accepted\":10"), std::string::npos) << ack;

  const std::string priced =
      service.Handle(static_cast<uint8_t>(ServerOp::kWhatIf), "a").value();
  EXPECT_NE(priced.find("\"exec_cost\""), std::string::npos) << priced;

  const std::string recommended =
      service.Handle(static_cast<uint8_t>(ServerOp::kRecommend), "k=2")
          .value();
  EXPECT_NE(recommended.find("\"schedule\""), std::string::npos)
      << recommended;

  const std::string stats =
      service.Handle(static_cast<uint8_t>(ServerOp::kStats), "").value();
  EXPECT_NE(stats.find("\"counters\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("server.window_epoch"), std::string::npos) << stats;

  // Malformed payloads surface as InvalidArgument, not defaults.
  EXPECT_EQ(service.Handle(static_cast<uint8_t>(ServerOp::kRecommend),
                           "bogus line")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // SHUTDOWN belongs to the transport; unknown opcodes are rejected.
  EXPECT_EQ(
      service.Handle(static_cast<uint8_t>(ServerOp::kShutdown), "")
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(service.Handle(99, "").status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cdpd
