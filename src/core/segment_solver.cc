#include "core/segment_solver.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "common/stopwatch.h"
#include "core/k_aware_graph.h"
#include "core/relax_stage.h"
#include "workload/workload.h"

namespace cdpd {

Status SegmentSolveOptions::Validate() const {
  if (num_chunks < 0) {
    return Status::InvalidArgument(
        "segmented.num_chunks must be >= 0 (0 = auto, 1 = monolithic)");
  }
  return Status::OK();
}

size_t ResolveNumChunks(const SegmentSolveOptions& options,
                        size_t num_stages) {
  if (options.num_chunks < 2 || num_stages < 2) return 1;
  return std::min(static_cast<size_t>(options.num_chunks), num_stages);
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Work one chunk DP run performed.
struct ChunkWork {
  int64_t nodes = 0;        // Reachable cells seen (nodes expanded).
  int64_t relaxations = 0;  // RelaxKernel updates.
};

/// The layered DP of SolveKAware restricted to stages [chunk.begin,
/// chunk.end), entered in design `entry` (an entry ConfigId, or -1 for
/// the problem's initial design with its count_initial_change policy —
/// chunk 0 only). Serial: chunk tasks are the parallel grain, and the
/// kernel on `path` repeats the same computation whenever it is
/// re-run. On return `dist` holds the final stage's (layer, config)
/// costs; when `parent` is non-null it is filled for reconstruction
/// ((local_stage * layers + l) * m + c).
ChunkWork RunChunkDp(const CostMatrix& matrix, const CandidateSpace& space,
                     RelaxPath path, const Segment& chunk, int64_t entry,
                     const double* init_trans, const uint8_t* is_initial,
                     bool count_initial_change, size_t layers,
                     std::vector<double>* dist_buf,
                     std::vector<double>* next_buf, DpParent* parent) {
  const size_t m = space.size();
  std::vector<double>& dist = *dist_buf;
  std::vector<double>& next = *next_buf;
  dist.assign(layers * m, kInf);
  next.assign(layers * m, kInf);
  ChunkWork work;
  for (size_t c = 0; c < m; ++c) {
    size_t layer;
    double cost;
    if (entry < 0) {
      layer = (count_initial_change && is_initial[c] == 0) ? 1 : 0;
      cost = init_trans[c] + matrix.Exec(chunk.begin, c);
    } else {
      // Entering the chunk in a different design than the previous
      // chunk exited in is one of this chunk's changes: it lands on
      // layer 1 and pays the boundary TRANS here, so the stitch DP can
      // sum per-chunk layers without double counting.
      const auto e = static_cast<size_t>(entry);
      layer = (c == e) ? 0 : 1;
      cost = matrix.Trans(e, c) + matrix.Exec(chunk.begin, c);
    }
    if (layer >= layers) continue;
    if (cost < dist[layer * m + c]) {
      dist[layer * m + c] = cost;
      ++work.nodes;
    }
  }
  RelaxKernel kernel(matrix, space, layers, /*count_changes=*/true, path);
  for (size_t stage = chunk.begin + 1; stage < chunk.end; ++stage) {
    kernel.RelaxStage(stage, dist.data(), next.data(),
                      parent != nullptr
                          ? parent + (stage - chunk.begin) * layers * m
                          : nullptr);
    std::swap(dist, next);
  }
  work.nodes += kernel.reachable();
  work.relaxations = kernel.relaxations();
  return work;
}

}  // namespace

Result<DesignSchedule> SolveKAwareSegmented(
    const DesignProblem& problem, int64_t k, size_t num_chunks,
    SolveStats* stats, ThreadPool* pool, Tracer* tracer, const Budget* budget,
    const ProgressFn* progress, Logger* logger, ResourceTracker* tracker,
    CostCache* cost_cache) {
  CDPD_RETURN_IF_ERROR(problem.Validate());
  if (k < 0) {
    return Status::InvalidArgument("change bound k must be >= 0");
  }
  const size_t n = problem.num_segments();
  if (num_chunks < 2 || n < 2 || num_chunks > n) {
    // Degenerate decomposition: the monolithic DP is the same
    // computation without the redundancy.
    return SolveKAware(problem, k, stats, pool, tracer, budget, progress,
                       logger, tracker, cost_cache);
  }
  const WhatIfEngine& what_if = *problem.what_if;
  const Stopwatch watch;
  const int64_t costings_before = what_if.costings();
  const CandidateSpace& configs = problem.candidates;
  const size_t m = configs.size();

  SolveStats local_stats;
  local_stats.threads_used = pool != nullptr ? pool->num_threads() : 1;

  const int64_t max_changes =
      static_cast<int64_t>(n) - 1 + (problem.count_initial_change ? 1 : 0);
  const int64_t kc = k >= max_changes ? max_changes : k;
  const size_t stitch_layers = static_cast<size_t>(kc) + 1;

  const std::vector<Segment> chunks =
      SplitStagesBalanced(what_if.segments(), num_chunks);
  const size_t num_c = chunks.size();
  local_stats.segment_chunks = static_cast<int64_t>(num_c);
  local_stats.stitch_window = static_cast<int64_t>(stitch_layers);

  // Per-chunk layer caps: a chunk of len stages can consume at most
  // len - 1 interior changes plus its entry change (the initial build
  // for chunk 0, the boundary switch for the rest).
  std::vector<size_t> chunk_layers(num_c);
  std::vector<size_t> chunk_entries(num_c);
  int64_t f_bytes = 0;
  size_t max_parent_cells = 0;  // Largest chunk's stages x layers.
  for (size_t t = 0; t < num_c; ++t) {
    const int64_t len = static_cast<int64_t>(chunks[t].size());
    const int64_t entry_change =
        t == 0 ? (problem.count_initial_change ? 1 : 0) : 1;
    const int64_t cap = len - 1 + entry_change;
    const int64_t layers = (kc >= cap ? cap : kc) + 1;
    chunk_layers[t] = static_cast<size_t>(layers);
    chunk_entries[t] = t == 0 ? 1 : m;
    f_bytes = SaturatingAdd(
        f_bytes,
        SaturatingMul(
            SaturatingMul(static_cast<int64_t>(chunk_entries[t]), layers),
            SaturatingMul(static_cast<int64_t>(m),
                          static_cast<int64_t>(sizeof(double)))));
    max_parent_cells =
        std::max(max_parent_cells, chunks[t].size() * chunk_layers[t]);
  }
  // Phase C rebuilds one chunk at a time into one parent table, so only
  // the largest chunk's is charged: that is the memory bound chunking
  // buys over the monolithic table.
  const int64_t parent_bytes = SaturatingMul(
      static_cast<int64_t>(max_parent_cells),
      SaturatingMul(static_cast<int64_t>(m),
                    static_cast<int64_t>(sizeof(DpParent))));
  // Stitch tables (two layers x m double arrays plus the per-chunk
  // stitch parents) are negligible but charged for honesty, as is the
  // lattice scratch of every chunk task that can run at once.
  const RelaxPath relax_path = ChooseRelaxPath(configs);
  const int64_t stitch_bytes = SaturatingAdd(
      SaturatingMul(static_cast<int64_t>(2 * stitch_layers * m),
                    static_cast<int64_t>(sizeof(double))),
      SaturatingMul(static_cast<int64_t>(num_c * stitch_layers * m),
                    static_cast<int64_t>(12)));
  const int64_t scratch_bytes =
      SaturatingMul(RelaxScratchBytes(configs, relax_path),
                    static_cast<int64_t>(local_stats.threads_used));
  const int64_t table_bytes = SaturatingAdd(
      SaturatingAdd(f_bytes, parent_bytes),
      SaturatingAdd(stitch_bytes, scratch_bytes));

  const auto finish = [&](DesignSchedule done) -> DesignSchedule {
    local_stats.wall_seconds = watch.ElapsedSeconds();
    local_stats.costings = what_if.costings() - costings_before;
    if (stats != nullptr) *stats = local_stats;
    return done;
  };
  const auto best_static_fallback =
      [&](const char* why) -> Result<DesignSchedule> {
    CDPD_LOG(logger, LogLevel::kWarn, "segment.fallback",
             LogField("reason", why), LogField("fallback", "best-static"));
    CDPD_ASSIGN_OR_RETURN(DesignSchedule fallback,
                          BestStaticSchedule(problem, k));
    local_stats.deadline_hit = true;
    local_stats.best_effort = true;
    return finish(std::move(fallback));
  };

  ScopedReservation matrix_reservation = ScopedReservation::Try(
      tracker, MemComponent::kCostMatrix, CostMatrix::EstimateBytes(n, m));
  ScopedReservation table_reservation;
  if (matrix_reservation.ok()) {
    table_reservation = ScopedReservation::Try(
        tracker, MemComponent::kKAwareTable, table_bytes);
  }
  if (!matrix_reservation.ok() || !table_reservation.ok()) {
    return best_static_fallback("memory_limit");
  }

  CDPD_LOG(logger, LogLevel::kInfo, "segment.start", LogField("stages", n),
           LogField("candidates", m), LogField("k", k),
           LogField("chunks", num_c),
           LogField("stitch_window", stitch_layers));

  // Phase 0 (parallel): the shared dense cost matrix and boundary
  // transition vectors — one precompute feeding every chunk task.
  CostMatrix matrix;
  std::vector<double> init_trans(m, 0.0);
  std::vector<double> final_trans(m, 0.0);
  std::vector<uint8_t> is_initial(m, 0);
  {
    CDPD_TRACE_SPAN(tracer, "segment.precompute", "solver");
    CDPD_ASSIGN_OR_RETURN(
        matrix, what_if.PrecomputeCostMatrix(configs, pool, tracer, budget,
                                             progress, logger, cost_cache,
                                             tracker));
    local_stats.cost_cache_hits = matrix.cache_hits();
    local_stats.cost_cache_misses = matrix.cache_misses();
    if (!matrix.complete()) {
      return Status::DeadlineExceeded(
          "budget expired during the what-if precompute, before any "
          "feasible schedule could be priced");
    }
    ParallelFor(pool, 0, m, [&](size_t c) {
      init_trans[c] = what_if.TransitionCost(problem.initial, configs[c]);
      is_initial[c] = configs[c] == problem.initial ? 1 : 0;
      if (problem.final_config.has_value()) {
        final_trans[c] =
            what_if.TransitionCost(configs[c], *problem.final_config);
      }
    });
  }

  // Phase A (parallel): every (chunk, entry) pair is one independent
  // DP task writing its own F slice. F[t] is indexed
  // [entry * layers_t * m + changes * m + exit].
  std::vector<std::vector<double>> F(num_c);
  for (size_t t = 0; t < num_c; ++t) {
    F[t].resize(chunk_entries[t] * chunk_layers[t] * m);
  }
  std::vector<std::pair<size_t, int64_t>> tasks;  // (chunk, entry)
  tasks.reserve(1 + (num_c - 1) * m);
  tasks.emplace_back(0, int64_t{-1});
  for (size_t t = 1; t < num_c; ++t) {
    for (size_t e = 0; e < m; ++e) {
      tasks.emplace_back(t, static_cast<int64_t>(e));
    }
  }
  std::atomic<int64_t> nodes_expanded{0};
  std::atomic<int64_t> relaxations{0};
  std::atomic<size_t> tasks_done{0};
  bool complete;
  {
    CDPD_TRACE_SPAN(tracer, "segment.chunk_dp", "solver",
                    static_cast<int64_t>(tasks.size()));
    complete = ParallelFor(
        pool, 0, tasks.size(),
        [&](size_t ti) {
          const auto [t, entry] = tasks[ti];
          const size_t layers = chunk_layers[t];
          std::vector<double> dist;
          std::vector<double> next;
          const ChunkWork work = RunChunkDp(
              matrix, configs, relax_path, chunks[t], entry,
              init_trans.data(), is_initial.data(),
              problem.count_initial_change, layers, &dist, &next,
              /*parent=*/nullptr);
          nodes_expanded.fetch_add(work.nodes, std::memory_order_relaxed);
          relaxations.fetch_add(work.relaxations, std::memory_order_relaxed);
          const size_t slot = entry < 0 ? 0 : static_cast<size_t>(entry);
          std::copy(dist.begin(), dist.end(),
                    F[t].begin() + slot * layers * m);
          const size_t done =
              tasks_done.fetch_add(1, std::memory_order_relaxed) + 1;
          ReportProgress(progress, "segment.chunks",
                         static_cast<double>(done) /
                             static_cast<double>(tasks.size()));
        },
        budget);
  }
  local_stats.nodes_expanded = nodes_expanded.load(std::memory_order_relaxed);
  local_stats.relaxations = relaxations.load(std::memory_order_relaxed);
  if (!complete || BudgetExpired(budget)) {
    return best_static_fallback("deadline");
  }

  // Phase B (serial, tiny): the boundary stitch DP over (total changes
  // used, exit config), scanning entries and per-chunk change splits
  // in fixed ascending order so the argmin is deterministic.
  struct StitchParent {
    int32_t entry = -1;        // Exit config of the previous chunks.
    int32_t chunk_layer = -1;  // Changes consumed inside this chunk.
  };
  std::vector<double> G(stitch_layers * m, kInf);
  std::vector<double> G_next(stitch_layers * m, kInf);
  std::vector<StitchParent> stitch_parent(num_c * stitch_layers * m);
  int64_t stitch_relaxations = 0;
  {
    CDPD_TRACE_SPAN(tracer, "segment.stitch", "solver",
                    static_cast<int64_t>(num_c));
    for (size_t l = 0; l < chunk_layers[0]; ++l) {
      for (size_t x = 0; x < m; ++x) {
        G[l * m + x] = F[0][l * m + x];
      }
    }
    for (size_t t = 1; t < num_c; ++t) {
      const size_t layers_t = chunk_layers[t];
      StitchParent* t_parent =
          stitch_parent.data() + t * stitch_layers * m;
      std::fill(G_next.begin(), G_next.end(), kInf);
      for (size_t total = 0; total < stitch_layers; ++total) {
        for (size_t x = 0; x < m; ++x) {
          double best = kInf;
          StitchParent best_parent;
          const size_t max_c2 = std::min(total, layers_t - 1);
          for (size_t e = 0; e < m; ++e) {
            const double* f_entry = F[t].data() + e * layers_t * m;
            for (size_t c2 = 0; c2 <= max_c2; ++c2) {
              const double cand =
                  G[(total - c2) * m + e] + f_entry[c2 * m + x];
              ++stitch_relaxations;
              if (cand < best) {
                best = cand;
                best_parent = StitchParent{static_cast<int32_t>(e),
                                           static_cast<int32_t>(c2)};
              }
            }
          }
          G_next[total * m + x] = best;
          t_parent[total * m + x] = best_parent;
        }
      }
      std::swap(G, G_next);
    }
  }
  local_stats.relaxations += stitch_relaxations;

  double best = kInf;
  size_t best_total = 0;
  size_t best_exit = 0;
  for (size_t l = 0; l < stitch_layers; ++l) {
    for (size_t x = 0; x < m; ++x) {
      if (G[l * m + x] == kInf) continue;
      double cost = G[l * m + x];
      if (problem.final_config.has_value()) cost += final_trans[x];
      if (cost < best) {
        best = cost;
        best_total = l;
        best_exit = x;
      }
    }
  }
  if (best == kInf) {
    return Status::Internal("segmented k-aware DP has no feasible path");
  }

  // Backtrack the chunk summary: entry, within-chunk changes, exit.
  std::vector<int64_t> chunk_entry(num_c, -1);
  std::vector<size_t> chunk_changes(num_c, 0);
  std::vector<size_t> chunk_exit(num_c, 0);
  {
    size_t total = best_total;
    size_t x = best_exit;
    for (size_t t = num_c; t-- > 1;) {
      const StitchParent p = stitch_parent[(t * stitch_layers + total) * m + x];
      chunk_entry[t] = p.entry;
      chunk_changes[t] = static_cast<size_t>(p.chunk_layer);
      chunk_exit[t] = x;
      x = static_cast<size_t>(p.entry);
      total -= static_cast<size_t>(p.chunk_layer);
    }
    chunk_entry[0] = -1;
    chunk_changes[0] = total;
    chunk_exit[0] = x;
  }

  // Phase C (serial): re-solve each chunk for its chosen entry into
  // the one parent table and write the optimal path into its slice of
  // the schedule. The re-run repeats the exact deterministic
  // computation of phase A, so the chosen (changes, exit) cell is
  // reachable with the same cost; the backtrack reads only cells the
  // re-run wrote, so the table is reused without clearing.
  std::vector<ConfigId> path(n);
  {
    CDPD_TRACE_SPAN(tracer, "segment.rebuild", "solver",
                    static_cast<int64_t>(num_c));
    std::vector<DpParent> parent(max_parent_cells * m);
    std::vector<double> dist;
    std::vector<double> next;
    for (size_t t = 0; t < num_c; ++t) {
      if (BudgetExpired(budget)) return best_static_fallback("deadline");
      const Segment& chunk = chunks[t];
      const size_t layers = chunk_layers[t];
      const ChunkWork work = RunChunkDp(
          matrix, configs, relax_path, chunk, chunk_entry[t],
          init_trans.data(), is_initial.data(), problem.count_initial_change,
          layers, &dist, &next, parent.data());
      local_stats.relaxations += work.relaxations;
      size_t l = chunk_changes[t];
      size_t c = chunk_exit[t];
      if (dist[l * m + c] == kInf) {
        return Status::Internal(
            "segmented k-aware rebuild could not reach the stitched cell");
      }
      for (size_t stage = chunk.end; stage-- > chunk.begin;) {
        path[stage] = static_cast<ConfigId>(c);
        if (stage == chunk.begin) break;
        const DpParent p =
            parent[((stage - chunk.begin) * layers + l) * m + c];
        l = static_cast<size_t>(p.layer);
        c = static_cast<size_t>(p.config);
      }
    }
  }

  DesignSchedule schedule;
  schedule.configs.reserve(n);
  for (const ConfigId id : path) schedule.configs.push_back(configs[id]);
  schedule.total_cost =
      PricePath(matrix, path, init_trans.data(),
                problem.final_config.has_value() ? final_trans.data()
                                                 : nullptr);
  ReportProgress(progress, "segment.chunks", 1.0, schedule.total_cost);
  CDPD_LOG(logger, LogLevel::kInfo, "segment.end",
           LogField("cost", schedule.total_cost),
           LogField("chunks", num_c),
           LogField("nodes_expanded", local_stats.nodes_expanded),
           LogField("relaxations", local_stats.relaxations));
  return finish(std::move(schedule));
}

}  // namespace cdpd
