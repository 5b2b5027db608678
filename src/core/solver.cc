#include "core/solver.h"

#include <memory>

#include "advisor/dominance.h"
#include "common/stopwatch.h"
#include "core/design_merging.h"
#include "core/hybrid_optimizer.h"
#include "core/k_aware_graph.h"
#include "core/path_ranking.h"

namespace cdpd {

std::string_view OptimizerMethodToString(OptimizerMethod method) {
  switch (method) {
    case OptimizerMethod::kOptimal:
      return "optimal";
    case OptimizerMethod::kGreedySeq:
      return "greedy-seq";
    case OptimizerMethod::kMerging:
      return "merging";
    case OptimizerMethod::kRanking:
      return "ranking";
    case OptimizerMethod::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

Result<OptimizerMethod> OptimizerMethodFromString(std::string_view name) {
  if (name == "optimal") return OptimizerMethod::kOptimal;
  if (name == "greedy-seq") return OptimizerMethod::kGreedySeq;
  if (name == "merging") return OptimizerMethod::kMerging;
  if (name == "ranking") return OptimizerMethod::kRanking;
  if (name == "hybrid") return OptimizerMethod::kHybrid;
  return Status::InvalidArgument(
      "unknown method '" + std::string(name) +
      "' (optimal|greedy-seq|merging|ranking|hybrid)");
}

namespace {

/// Span name of the top-level solve, per method. TraceSpan stores the
/// pointer, so these must be literals (string_view::data() would not
/// guarantee termination in general).
const char* MethodSpanName(OptimizerMethod method) {
  switch (method) {
    case OptimizerMethod::kOptimal:
      return "solve.optimal";
    case OptimizerMethod::kGreedySeq:
      return "solve.greedy-seq";
    case OptimizerMethod::kMerging:
      return "solve.merging";
    case OptimizerMethod::kRanking:
      return "solve.ranking";
    case OptimizerMethod::kHybrid:
      return "solve.hybrid";
  }
  return "solve";
}

/// SolveResult::method_detail of an unconstrained solve, per method.
const char* UnconstrainedDetail(OptimizerMethod method) {
  switch (method) {
    case OptimizerMethod::kMerging:
      return "merging (no constraint; unconstrained optimum)";
    case OptimizerMethod::kRanking:
      return "ranking (no constraint; shortest path)";
    case OptimizerMethod::kHybrid:
      return "hybrid (no constraint; shortest path)";
    default:
      return "sequence-graph shortest path";
  }
}

}  // namespace

Status SegmentSolveOptions::Validate() const {
  if (num_chunks < 0) {
    return Status::InvalidArgument(
        "segmented.num_chunks must be >= 0 (0 = auto, 1 = one block)");
  }
  return Status::OK();
}

Status SolveOptions::Validate() const {
  if (k.has_value() && *k < 0) {
    return Status::InvalidArgument(
        "change bound k must be >= 0 when set (use nullopt for "
        "unconstrained)");
  }
  if (num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  if (ranking_max_paths <= 0) {
    return Status::InvalidArgument("ranking_max_paths must be positive");
  }
  if (deadline.has_value() && deadline->count() < 0) {
    return Status::InvalidArgument(
        "deadline must be >= 0 when set (use nullopt for no deadline)");
  }
  if (memory_limit_bytes.has_value() && *memory_limit_bytes <= 0) {
    return Status::InvalidArgument(
        "memory_limit_bytes must be > 0 when set (use nullopt for no "
        "limit)");
  }
  if (method == OptimizerMethod::kGreedySeq &&
      greedy.candidate_indexes.empty()) {
    return Status::InvalidArgument("GREEDY-SEQ needs candidate indexes");
  }
  CDPD_RETURN_IF_ERROR(segmented.Validate());
  return Status::OK();
}

Result<SolveResult> Solve(const DesignProblem& problem,
                          const SolveOptions& options) {
  CDPD_RETURN_IF_ERROR(options.Validate());

  // A borrowed pool (AdvisorService's amortization path) wins over
  // num_threads; otherwise the solve owns a pool for its duration.
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool = options.pool;
  int threads;
  if (pool != nullptr) {
    threads = pool->num_threads();
  } else {
    threads = options.num_threads == 0 ? ThreadPool::DefaultThreadCount()
                                       : options.num_threads;
    if (threads > 1) {
      owned_pool = std::make_unique<ThreadPool>(threads);
      pool = owned_pool.get();
    }
  }
  const Observability& obs = options.observability;
  Tracer* const tracer = obs.tracer;
  Logger* const logger = obs.logger;
  // Null when no callback is injected, so every ReportProgress site
  // downstream is a single pointer test.
  const ProgressFn* const progress = obs.progress ? &obs.progress : nullptr;
  if (obs.metrics != nullptr) {
    if (pool != nullptr) pool->EnableMetrics(obs.metrics);
    if (problem.what_if != nullptr) {
      problem.what_if->SetMetrics(obs.metrics);
    }
  }
  if (logger != nullptr && pool != nullptr) pool->EnableLogging(logger);
  CDPD_LOG(logger, LogLevel::kInfo, "solve.start",
           LogField("method", OptimizerMethodToString(options.method)),
           LogField("k", options.k.value_or(-1)),  // -1 = unconstrained.
           LogField("threads", threads),
           LogField("segments", problem.what_if != nullptr
                                    ? problem.num_segments()
                                    : size_t{0}),
           LogField("candidates", problem.candidates.size()),
           LogField("deadline_ms",
                    options.deadline.has_value() ? options.deadline->count()
                                                 : int64_t{-1}));

  // One ResourceTracker for the whole solve: every phase charges its
  // big allocations here, so stats.peak_bytes_total is the true
  // concurrent high-water mark across phases. Carries the soft byte
  // budget when one is set.
  ResourceTracker tracker(options.memory_limit_bytes.value_or(0));

  // One Budget for the whole solve, shared by every phase. Built only
  // when a deadline, cancel token, or memory limit is set, so the
  // common un-budgeted path costs each poll site a single null-pointer
  // test. The clock starts here: pool spin-up above is deliberately
  // not charged (it is bounded and paid before any cancellable work).
  Budget owned_budget;
  const Budget* budget = nullptr;
  if (options.deadline.has_value()) {
    owned_budget = Budget(
        std::chrono::duration_cast<std::chrono::nanoseconds>(*options.deadline),
        options.cancel);
    budget = &owned_budget;
  } else if (options.cancel != nullptr) {
    owned_budget = Budget(options.cancel);
    budget = &owned_budget;
  } else if (options.memory_limit_bytes.has_value()) {
    owned_budget = Budget();
    budget = &owned_budget;
  }
  if (budget != nullptr && options.memory_limit_bytes.has_value()) {
    // Memory expiry rides the same poll sites as a deadline: once a
    // reservation trips the tracker's limit, the next BudgetExpired
    // poll winds the solve down through its anytime fallback.
    owned_budget.set_tracker(&tracker);
  }

  const int64_t cpu_before = ProcessCpuTimeMicros();
  const Stopwatch watch;

  // Dominance pruning runs before dispatch so every method sees the
  // reduced candidate space. The dispatched problem is a shallow copy
  // sharing the what-if oracle; pruning's probe costs are folded into
  // stats.costings after dispatch (sub-solvers reset stats wholesale).
  const DesignProblem* active = &problem;
  DesignProblem pruned_problem;
  int64_t pruned_configs = 0;
  int64_t prune_costings = 0;
  if (options.prune_dominated && problem.what_if != nullptr &&
      problem.candidates.size() > 1) {
    CDPD_TRACE_SPAN(tracer, "solve.prune", "solver",
                    static_cast<int64_t>(problem.candidates.size()));
    const int64_t costings_before = problem.what_if->costings();
    DominanceResult pruned =
        PruneDominatedConfigs(problem, pool, budget, logger, &tracker);
    prune_costings = problem.what_if->costings() - costings_before;
    pruned_configs = pruned.pruned;
    if (pruned.pruned > 0) {
      pruned_problem = problem;
      pruned_problem.candidates = problem.candidates.Subset(pruned.survivors);
      active = &pruned_problem;
    }
  }

  SolveResult result;
  result.tracer = tracer;
  CDPD_TRACE_SPAN(tracer, MethodSpanName(options.method), "solver",
                  options.k.value_or(Tracer::kNoArg));
  if (!options.k.has_value() &&
      options.method != OptimizerMethod::kGreedySeq) {
    // Without a bound every method but GREEDY-SEQ (which solves its own
    // reduced candidate set) is exact as the sequence-graph optimum.
    CDPD_ASSIGN_OR_RETURN(
        result.schedule,
        SolveKAware(*active, std::nullopt, &result.stats, pool, tracer,
                    budget, progress, logger, &tracker));
    result.method_detail = UnconstrainedDetail(options.method);
    result.unconstrained_cost = result.schedule.total_cost;
  } else {
    switch (options.method) {
      case OptimizerMethod::kOptimal: {
        CDPD_ASSIGN_OR_RETURN(
            result.schedule,
            SolveKAware(*active, options.k, &result.stats, pool, tracer,
                        budget, progress, logger, &tracker,
                        static_cast<size_t>(options.segmented.num_chunks)));
        result.method_detail = "k-aware sequence graph";
        break;
      }
      case OptimizerMethod::kGreedySeq: {
        CDPD_ASSIGN_OR_RETURN(
            GreedySeqResult greedy_result,
            SolveGreedySeq(*active, options.k, options.greedy, pool, tracer,
                           budget, progress, logger, &tracker));
        result.schedule = std::move(greedy_result.schedule);
        result.stats = greedy_result.stats;
        result.reduced_candidates =
            std::move(greedy_result.reduced_candidates);
        result.method_detail =
            "greedy-seq reduced candidates: " +
            std::to_string(result.reduced_candidates.size());
        break;
      }
      case OptimizerMethod::kMerging: {
        CDPD_ASSIGN_OR_RETURN(
            DesignSchedule unconstrained,
            SolveKAware(*active, std::nullopt, &result.stats, pool, tracer,
                        budget, progress, logger, &tracker));
        result.unconstrained_cost = unconstrained.total_cost;
        SolveStats merge_stats;
        CDPD_ASSIGN_OR_RETURN(
            result.schedule,
            MergeToConstraint(*active, unconstrained, *options.k,
                              &merge_stats, pool, tracer, budget, progress,
                              logger, &tracker));
        result.stats.Accumulate(merge_stats);
        result.method_detail =
            "merging steps: " + std::to_string(merge_stats.merge_steps);
        break;
      }
      case OptimizerMethod::kRanking: {
        CDPD_ASSIGN_OR_RETURN(
            result.schedule,
            SolveByRanking(*active, *options.k, options.ranking_max_paths,
                           &result.stats, pool, tracer, budget, progress,
                           logger, &tracker));
        result.method_detail =
            "ranked paths: " + std::to_string(result.stats.paths_enumerated);
        break;
      }
      case OptimizerMethod::kHybrid: {
        CDPD_ASSIGN_OR_RETURN(
            HybridResult hybrid,
            SolveHybrid(*active, *options.k, pool, tracer, budget, progress,
                        logger, &tracker));
        result.schedule = std::move(hybrid.schedule);
        result.stats = hybrid.stats;
        result.unconstrained_cost = hybrid.unconstrained_cost;
        result.method_detail =
            std::string("hybrid chose ") +
            std::string(HybridChoiceToString(hybrid.choice));
        break;
      }
    }
  }
  // Pruning ran before the dispatched solver reset the stats, so its
  // contribution is folded in here.
  result.stats.pruned_configs = pruned_configs;
  result.stats.costings += prune_costings;
  // The per-solver wall times cover their own phases; the top-level
  // clock covers dispatch plus pool setup and is what callers see.
  result.stats.wall_seconds = watch.ElapsedSeconds();
  result.stats.cpu_seconds =
      static_cast<double>(ProcessCpuTimeMicros() - cpu_before) / 1e6;
  result.stats.threads_used = threads;
  result.stats.CaptureMemory(tracker);
  result.stats.memory_limit_hit = tracker.limit_exceeded();
  if (result.stats.memory_limit_hit) {
    // Memory expiry flows through the shared Budget, so it carries the
    // same flags a deadline does; the schedule in hand is the method's
    // anytime fallback.
    result.stats.deadline_hit = true;
    result.stats.best_effort = true;
  }
  result.stats.PublishTo(obs.metrics);
  tracker.PublishTo(obs.metrics);
  SampleProcessMemory(obs.metrics);
  // The attribution reads the finalized stats, so build it last. Pure
  // read-side pass over the oracle; the schedule, cost, and stats above
  // are already fixed.
  if (options.explain) {
    result.explain = BuildExplainReport(
        problem, result.schedule, OptimizerMethodToString(options.method),
        result.method_detail, options.k, result.stats,
        result.unconstrained_cost);
  }
  CDPD_LOG(logger, LogLevel::kInfo, "solve.end",
           LogField("cost", result.schedule.total_cost),
           LogField("deadline_hit", result.stats.deadline_hit),
           LogField("best_effort", result.stats.best_effort),
           LogField("costings", result.stats.costings));
  return result;
}

}  // namespace cdpd
