// offline_m64: the advisor_cli recommend path, in-process. Each
// iteration parses a ~100k-statement W1 trace (ReadTrace), builds a
// fresh WhatIfEngine over 100-statement stages, solves with the k-aware
// DP (k = 4, m = 64 = every subset of the six paper indexes, automatic
// chunking, no persistent cost cache) and validates the schedule.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "advisor/config_enumeration.h"
#include "common.h"
#include "common/resource_tracker.h"
#include "core/solver.h"
#include "core/validator.h"
#include "index/index_def.h"
#include "workload/trace_io.h"

namespace perfbench {
namespace {

constexpr size_t kStatements = 100'000;
constexpr size_t kBlock = 100;
constexpr int64_t kK = 4;
constexpr int kMaxIndexesPerConfig = 6;  // All 2^6 subsets.
constexpr int kSetupReps = 5;  // Set-ups per untraced run (median).
constexpr int kFirstRuns = 5;  // Fresh processes per run (median).
constexpr int kReplayIterations = 20;
constexpr double kCostTolerance = 1e-9;

/// Everything an iteration reads: the trace text and the catalog.
struct Inputs {
  cdpd::Schema schema = cdpd::MakePaperSchema();
  cdpd::CostModel model{schema, 250'000, 500'000, cdpd::CostParams{}};
  std::vector<cdpd::Configuration> candidates;
  std::string trace;
  int threads = 1;

  explicit Inputs(uint64_t seed) {
    cdpd::ConfigEnumOptions options;
    options.max_indexes_per_config = kMaxIndexesPerConfig;
    options.num_rows = model.num_rows();
    candidates = cdpd::EnumerateConfigurations(
                     cdpd::MakePaperCandidateIndexes(schema), options)
                     .value();
    const std::vector<cdpd::BoundStatement> statements =
        GenerateW1(schema, kStatements, seed);
    trace = ToSql(schema, statements, 0, statements.size());
    threads = std::min(4, NumCpus());
  }
};

struct Iteration {
  cdpd::Status status;
  double total_us = 0.0;      // Parse -> engine -> solve -> validate.
  double recommend_us = 0.0;  // Solve + validate.
  double cost = 0.0;          // EvaluateScheduleCost of the schedule.
  size_t stages = 0;
  cdpd::SolveStats stats;
};

/// Opens a span only when the run is traced.
struct MaybeScope {
  MaybeScope(SpanLog* log, const char* name) {
    if (log != nullptr) scope.emplace(log, name);
  }
  std::optional<SpanLog::Scope> scope;
};

void Sample(std::vector<double>* out, int64_t since_ns) {
  if (out != nullptr) out->push_back(NsToUs(NowNs() - since_ns));
}

/// One offline recommendation. `chunks` = 0 is the automatic chunking
/// advisor_cli uses; 1 forces the monolithic DP (the reference). With
/// `log`, every layer call is spanned and its time sampled into
/// `layers` (read_trace, engine_build, validate).
Iteration Run(const Inputs& in, int chunks, SpanLog* log = nullptr,
              cdpd::Tracer* tracer = nullptr,
              std::vector<double>* layers = nullptr) {
  Iteration out;
  const int64_t start = NowNs();
  cdpd::Result<cdpd::Workload> workload = [&] {
    MaybeScope span(log, "sql.read_trace");
    return cdpd::ReadTrace(in.schema, in.trace);
  }();
  if (!workload.ok()) {
    out.status = workload.status();
    return out;
  }
  Sample(layers ? &layers[0] : nullptr, start);
  const int64_t engine_start = NowNs();
  std::optional<cdpd::WhatIfEngine> engine;
  {
    MaybeScope span(log, "whatif.engine_build");
    engine.emplace(&in.model, workload->Span(),
                   cdpd::SegmentFixed(workload->size(), kBlock));
  }
  Sample(layers ? &layers[1] : nullptr, engine_start);
  out.stages = engine->num_segments();
  cdpd::DesignProblem problem;
  problem.what_if = &*engine;
  problem.candidates = in.candidates;
  cdpd::SolveOptions options;
  options.method = cdpd::OptimizerMethod::kOptimal;
  options.k = kK;
  options.num_threads = in.threads;
  options.segmented.num_chunks = chunks;
  options.observability.tracer = tracer;
  const int64_t solve_start = NowNs();
  cdpd::Result<cdpd::SolveResult> solved = [&] {
    MaybeScope span(log, "solver.solve");
    return cdpd::Solve(problem, options);
  }();
  if (!solved.ok()) {
    out.status = solved.status();
    return out;
  }
  const int64_t validate_start = NowNs();
  {
    MaybeScope span(log, "validator.validate");
    out.status = cdpd::ValidateSchedule(problem, solved->schedule, kK);
  }
  Sample(layers ? &layers[2] : nullptr, validate_start);
  const int64_t end = NowNs();
  out.total_us = NsToUs(end - start);
  out.recommend_us = NsToUs(end - solve_start);
  out.stats = solved->stats;
  MaybeScope span(log, "check.evaluate_cost");
  out.cost = cdpd::EvaluateScheduleCost(problem, solved->schedule.configs);
  return out;
}

std::string CheckAgainst(const Iteration& it, double reference) {
  if (!it.status.ok()) return "offline iteration failed: " + it.status.ToString();
  if (std::fabs(it.cost - reference) > kCostTolerance * std::fabs(reference)) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "cost %.17g differs from reference %.17g",
                  it.cost, reference);
    return buf;
  }
  return "";
}

/// Runs this driver again as `--offline-first` and returns the first
/// iteration's time in a fresh process (µs), or a negative value.
double FreshProcessFirstUs(const Args& args) {
  int fds[2];
  if (::pipe(fds) != 0) return -1.0;
  const pid_t pid = ::fork();
  if (pid < 0) return -1.0;
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    const std::string seed = std::to_string(args.seed);
    ::execl(args.self_bin.c_str(), args.self_bin.c_str(), "--offline-first",
            "--seed", seed.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(fds[1]);
  std::string text;
  char buf[256];
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof(buf))) > 0;) {
    text.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1.0;
  return std::atof(text.c_str());
}

}  // namespace

int RunOfflineFirst(const Args& args) {
  const Inputs inputs(args.seed);
  const Iteration it = Run(inputs, 0);
  if (!it.status.ok()) {
    std::fprintf(stderr, "%s\n", it.status.ToString().c_str());
    return 1;
  }
  std::printf("%.3f\n", it.total_us);
  return 0;
}

int RunOffline(const Args& args, Report* report) {
  std::optional<Inputs> inputs;
  double reference = 0.0;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    const int64_t start = NowNs();
    inputs.emplace(args.seed);
    const Iteration ref = Run(*inputs, 1);
    if (!ref.status.ok()) {
      report->Fail("reference solve failed: " + ref.status.ToString());
      return 1;
    }
    if (rep > 0 && ref.cost != reference) {
      report->Fail("reference cost differs across set-ups");
    }
    reference = ref.cost;
    report->Add("setup_s", NsToS(NowNs() - start));
  }
  report->Shape("statements", std::to_string(kStatements));
  report->Shape("stages", std::to_string(kStatements / kBlock));
  report->Shape("m", std::to_string(inputs->candidates.size()));
  report->Shape("k", std::to_string(kK));
  report->Shape("threads", std::to_string(inputs->threads));
  report->Shape("mix",
                "ReadTrace -> WhatIfEngine -> Solve (auto chunks, no cost "
                "cache) -> ValidateSchedule, back to back");

  const Iteration warm = Run(*inputs, 0);  // Not timed.
  report->Outcome(CheckAgainst(warm, reference));
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(args.seconds * 1e9);
  int64_t iterations = 0;
  while (NowNs() < deadline) {
    const Iteration it = Run(*inputs, 0);
    report->Outcome(CheckAgainst(it, reference));
    report->Add("iteration_us", it.total_us);
    report->Add("recommend_us", it.recommend_us);
    ++iterations;
  }
  const double wall_s = NsToS(NowNs() - start);
  report->Set("wall_s", wall_s);
  report->Set("requests", static_cast<double>(iterations));
  report->Set("peak_rss_mb",
              static_cast<double>(cdpd::PeakRssBytes()) / (1024.0 * 1024.0));
  if (!args.trace) {
    for (int run = 0; run < kFirstRuns; ++run) {
      const double first_us = FreshProcessFirstUs(args);
      report->Outcome(first_us > 0 ? "" : "fresh-process iteration failed");
      if (first_us > 0) report->Add("first_iteration_us", first_us);
    }
    return 0;
  }

  // Traced replay: the same iterations with every layer call spanned
  // and the solver's own spans read back from its Tracer.
  SpanLog log;
  std::vector<double> layers[3];  // read_trace, engine_build, validate.
  const int64_t replay_start = NowNs();
  for (int i = 0; i < kReplayIterations; ++i) {
    SpanLog::Scope iteration(&log, "replay.iteration");
    cdpd::Tracer tracer;
    const Iteration it = Run(*inputs, 0, &log, &tracer, layers);
    report->Outcome(CheckAgainst(it, reference));
    const double solve_us = it.stats.wall_seconds * 1e6;
    const double kernel_us = DpKernelUs(tracer);
    report->Add("layer.precompute_us", PrecomputeUs(tracer));
    report->Add("layer.dp_us", solve_us - PrecomputeUs(tracer));
    report->Add("layer.dp_kernel_us", kernel_us);
    report->Add("layer.solve_us", solve_us);
    report->Add("layer.relaxations", static_cast<double>(it.stats.relaxations));
    report->Add("layer.segment_chunks",
                static_cast<double>(it.stats.segment_chunks));
    report->Add("layer.peak_table_bytes",
                static_cast<double>(it.stats.peak_bytes_total));
    report->Add("layer.costings_per_solve",
                static_cast<double>(it.stats.costings));
    if (kernel_us > 0) {
      report->Add("layer.dp_cells_per_s",
                  static_cast<double>(it.stages) * (kK + 1) *
                      static_cast<double>(inputs->candidates.size()) /
                      (kernel_us / 1e6));
    }
    SpanLog::FoldTracer(tracer, report);
  }
  report->Set("trace.replay_wall_s", NsToS(NowNs() - replay_start));
  report->Set("trace.replay_units", kReplayIterations);
  report->Set("trace.untraced_wall_s", wall_s);
  report->Set("trace.untraced_units", static_cast<double>(iterations));
  report->Append("layer.read_trace_us", layers[0]);
  report->Append("layer.engine_build_us", layers[1]);
  report->Append("layer.validate_us", layers[2]);
  report->Set("layer.read_trace_kstmt", kStatements / 1000.0);
  log.FoldInto(report);
  return 0;
}

}  // namespace perfbench
