#ifndef CDPD_CORE_PATH_RANKING_H_
#define CDPD_CORE_PATH_RANKING_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/budget.h"
#include "common/log.h"
#include "common/progress.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/tracing.h"
#include "core/design_problem.h"
#include "core/solve_stats.h"

namespace cdpd {

/// One enumerated source-to-destination path: its cost and the
/// ConfigId it holds at each stage.
struct RankedPath {
  double cost = 0.0;
  std::vector<ConfigId> configs;
};

/// Lazy shortest-path ranking over the plain sequence graph (Figure
/// 1), left implicit: Next() yields the 1st, 2nd, ... shortest
/// source-to-destination paths in non-decreasing cost order (Jiménez
/// and Marzal's Recursive Enumeration Algorithm). Node (stage i, c) has
/// the m nodes of stage i - 1 as in-edges; extending a path of cost x
/// from (i - 1, p) costs (x + TRANS(p, c)) + EXEC(i, c), the source
/// edge into (0, c) costs TRANS(C0, c) + EXEC(0, c), and the
/// destination edge adds TRANS(c, final) when the final design is
/// constrained. That is PricePath's order, so each ranked cost equals
/// EvaluateScheduleCost of its configs bit for bit. π^1 of every node
/// comes from one unset-k RelaxKernel pass on the scan path, whose sums
/// are exactly these.
class PathRanker {
 public:
  /// `problem`, `matrix` (a complete PrecomputeCostMatrix over its
  /// candidates), `budget` and `tracker` must outlive the ranker, and
  /// n * m + 1 must fit an int32 (SolveByRanking checks). With a
  /// budget, Next() returns nullopt once it expires; callers tell
  /// expiry from exhaustion by checking the budget. With a tracker, the
  /// per-node lists charge their growth to kRankingQueue through a
  /// counting allocator (the enumeration is worst-case exponential), so
  /// a limit trips the Budget at the next poll; the fixed StateBytes()
  /// are the caller's to reserve.
  PathRanker(const DesignProblem& problem, const CostMatrix& matrix,
             const Budget* budget = nullptr,
             ResourceTracker* tracker = nullptr);

  /// Bytes of per-node state a ranker over n stages and m candidate
  /// configurations allocates on construction: each node's π^1 and its
  /// (initially empty) path and candidate lists.
  static int64_t StateBytes(size_t num_stages, size_t num_configs);

  /// The next path in the ranking, or nullopt when exhausted (or the
  /// budget expired).
  std::optional<RankedPath> Next();

  /// Paths yielded so far.
  int64_t paths_yielded() const { return paths_yielded_; }

 private:
  /// Node (stage i, c) is i * m + c; the destination is n * m.
  using NodeId = int32_t;

  /// A ranked path to a node, represented by its predecessor node and
  /// the rank of the predecessor path it extends. The rank is 64-bit:
  /// the ranking is worst-case exponential and a long enumeration
  /// pushes per-node ranks past INT32_MAX, where a 32-bit field
  /// silently truncates and corrupts the backtrack.
  struct PathRef {
    double cost = 0.0;
    NodeId pred = -1;         // -1: the path starts at the source.
    int64_t pred_index = -1;  // Rank (0-based) of the predecessor path.
  };
  /// Counting vectors: the enumeration state grows unpredictably, so
  /// its true allocated size is metered through the allocator rather
  /// than reserved up front. A default-constructed allocator (no
  /// tracker) counts nothing.
  using PathRefVec = std::vector<PathRef, TrackingAllocator<PathRef>>;
  struct NodeState {
    PathRefVec paths;       // Ranked paths after π^1: rank r at r - 1.
    PathRefVec candidates;  // Min-heap by cost.
    bool initialized_alternatives = false;
    NodeState() = default;
    explicit NodeState(const TrackingAllocator<PathRef>& alloc)
        : paths(alloc), candidates(alloc) {}
  };

  /// π^{rank}(node), which must exist.
  const PathRef& Path(NodeId node, size_t rank) const {
    const auto v = static_cast<size_t>(node);
    return rank == 0 ? first_[v] : nodes_[v].paths[rank - 1];
  }
  /// Cost of extending a path of cost `cost` at `pred` to `node`.
  double Extend(double cost, NodeId pred, NodeId node) const;
  /// Ensures π^{rank}(node) exists (0-based). Returns false when the
  /// node has fewer than rank+1 paths, or when the budget expires
  /// mid-derivation.
  bool EnsurePath(NodeId node, size_t rank);
  void PushCandidate(NodeState* state, PathRef ref);

  const DesignProblem* problem_;
  const CostMatrix* matrix_;
  const Budget* budget_;
  size_t num_configs_;
  NodeId destination_;
  std::vector<double> final_trans_;  // Empty without a final design.
  std::vector<PathRef> first_;       // π^1 of every node.
  std::vector<NodeState> nodes_;
  int64_t paths_yielded_ = 0;
};

/// Constrained optimum via shortest-path ranking (§5): enumerate paths
/// of the *plain* sequence graph in cost order and return the first
/// whose design sequence has at most k changes — optimal because every
/// path not yet seen is at least as long. Its cost is the ranked cost,
/// equal to EvaluateScheduleCost bit for bit. Worst-case exponential;
/// `max_paths` bounds the enumeration. An empty workload gets the empty
/// schedule at TRANS(C0, final) (0 without a final design); a graph of
/// more than INT32_MAX nodes is InvalidArgument before any allocation.
///
/// When the enumeration ends without an answer — the `max_paths` cap
/// tripped, the ranking ran dry, or the `budget` expired — the solve
/// degrades to the cheapest feasible *static* schedule
/// (BestStaticSchedule) with stats->best_effort set, plus
/// stats->deadline_hit when a budget expiry caused it. Error statuses
/// are reserved for genuinely empty-handed exits: DeadlineExceeded
/// when the budget expired and not even the static fallback is
/// feasible, ResourceExhausted when the cap/exhaustion hit and the
/// fallback is infeasible.
///
/// The EXEC/TRANS cost matrices are precomputed in parallel across
/// `pool` before the ranking starts; the enumeration itself is
/// inherently sequential (each ranked path conditions the next). With
/// a `tracer` the solve records "ranking.precompute" and
/// "ranking.enumerate" spans (arg = paths enumerated). A budget that
/// never expires changes nothing: the schedule is byte-identical to an
/// un-budgeted run.
///
/// `progress` receives "whatif.precompute" / "ranking.enumerate"
/// updates at the existing poll sites, the enumeration fraction being
/// paths yielded over `max_paths` (thread-safe callback required; see
/// common/progress.h); `logger` records start/end and fallback events.
/// Both optional, both observational only.
///
/// `tracker` (optional) accounts the cost matrix (kCostMatrix) and the
/// ranker's state (kRankingQueue): its fixed per-node state
/// (PathRanker::StateBytes) is reserved before either is built, and
/// the lists that grow during the enumeration are metered through the
/// ranker's counting allocator. A limit refusal of either reservation
/// degrades straight to the static fallback; a limit tripped
/// mid-enumeration winds down at the next poll via the attached
/// Budget.
Result<DesignSchedule> SolveByRanking(const DesignProblem& problem, int64_t k,
                                      int64_t max_paths = 1'000'000,
                                      SolveStats* stats = nullptr,
                                      ThreadPool* pool = nullptr,
                                      Tracer* tracer = nullptr,
                                      const Budget* budget = nullptr,
                                      const ProgressFn* progress = nullptr,
                                      Logger* logger = nullptr,
                                      ResourceTracker* tracker = nullptr);

}  // namespace cdpd

#endif  // CDPD_CORE_PATH_RANKING_H_
