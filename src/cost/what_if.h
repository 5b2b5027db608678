#ifndef CDPD_COST_WHAT_IF_H_
#define CDPD_COST_WHAT_IF_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "advisor/candidate_space.h"
#include "catalog/configuration.h"
#include "common/budget.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/progress.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/tracing.h"
#include "cost/cost_model.h"
#include "workload/workload.h"

namespace cdpd {

/// One literal-erased statement shape aggregated over the *whole*
/// workload: the representative statement and its total multiplicity
/// across every segment. Because every segment's EXEC cost is a
/// nonnegative-weighted sum of per-shape costs, any pointwise
/// inequality over these shapes transfers to every segment — the fact
/// dominance pruning (advisor/dominance.h) is built on.
struct WorkloadShape {
  BoundStatement representative;
  int64_t count = 0;
};

/// Dense EXEC/TRANS lookup tables over a pinned CandidateSpace —
/// the read-only phase the graph solvers consume after
/// WhatIfEngine::PrecomputeCostMatrix. Once built, every cost probe of
/// a solver inner loop is a plain array read: no hashing, no locks, no
/// shared mutable state. Configurations are addressed by ConfigId
/// only; the solvers materialize Configuration objects from the space
/// at the API boundary (the returned schedule), never inside the DP.
///
/// The tables are stored structure-of-arrays: the EXEC matrix row-major
/// by segment, and the TRANS matrix twice: as written, and as the
/// change-edge table the relaxation kernel's scan path sweeps
/// (ChangeTrans), whose rows are padded to a fixed width so the sweep
/// runs in fixed-width loops.
class CostMatrix {
 public:
  CostMatrix() = default;
  CostMatrix(size_t num_segments, size_t num_configs)
      : num_segments_(num_segments),
        num_configs_(num_configs),
        exec_(num_segments * num_configs, 0.0),
        trans_(num_configs * num_configs, 0.0) {}

  /// ChangeTrans() rows hold a multiple of this many doubles.
  static constexpr size_t kChangeRowWidth = 8;

  size_t num_segments() const { return num_segments_; }
  size_t num_configs() const { return num_configs_; }

  /// Row stride of ChangeTrans(): num_configs() rounded up to a
  /// multiple of kChangeRowWidth.
  static size_t ChangeStride(size_t num_configs) {
    return (num_configs + kChangeRowWidth - 1) / kChangeRowWidth *
           kChangeRowWidth;
  }

  /// Bytes the EXEC + TRANS + change-edge tables of an (n x m) matrix
  /// occupy — what a solver charges to MemComponent::kCostMatrix before
  /// the precompute.
  static int64_t EstimateBytes(size_t num_segments, size_t num_configs) {
    return static_cast<int64_t>(
        (num_segments * num_configs +                 // EXEC
         num_configs * num_configs +                  // TRANS
         num_configs * ChangeStride(num_configs)) *   // change edges
        sizeof(double));
  }

  /// EXEC(S_segment, candidates[config]).
  double Exec(size_t segment, size_t config) const {
    return exec_[segment * num_configs_ + config];
  }
  /// TRANS(candidates[from], candidates[to]).
  double Trans(size_t from, size_t to) const {
    return trans_[from * num_configs_ + to];
  }
  /// The change edges out of `from`, one per destination:
  /// ChangeTrans(from)[to] == Trans(from, to) for to != from, and +inf
  /// at to == from (a configuration has no change edge to itself) and
  /// in the row's ChangeStride(m) - m padding cells. A relaxation sweep
  /// adds one predecessor's value to this whole row and keeps the
  /// strict minimum per destination, so neither the diagonal nor the
  /// padding can ever win.
  const double* ChangeTrans(size_t from) const {
    return change_trans_.data() + from * ChangeStride(num_configs_);
  }

  double& MutableExec(size_t segment, size_t config) {
    return exec_[segment * num_configs_ + config];
  }
  /// Segment `segment`'s m EXEC cells, one per ConfigId.
  double* MutableExecRow(size_t segment) {
    return exec_.data() + segment * num_configs_;
  }
  double& MutableTrans(size_t from, size_t to) {
    return trans_[from * num_configs_ + to];
  }

  /// Per-universe-index build and drop costs of an exact-mask space:
  /// index_build_costs()[i] = BuildCost(universe()[i]), likewise drop.
  /// Every TRANS cell is the sum of these terms over the created and
  /// dropped bits, which is what lets the DP kernel's lattice path
  /// (core/relax_stage.h) price change edges without the m x m table.
  /// Empty for fingerprint-mask spaces.
  const std::vector<double>& index_build_costs() const { return build_; }
  const std::vector<double>& index_drop_costs() const { return drop_; }
  void SetIndexCosts(std::vector<double> build, std::vector<double> drop) {
    build_ = std::move(build);
    drop_ = std::move(drop);
  }

  /// Builds the derived change-edge table from the raw TRANS cells.
  /// Must be called after the fill and before ChangeTrans;
  /// PrecomputeCostMatrix does this, so only hand-built matrices
  /// (tests) call it directly.
  void Finalize();

  /// False when a budget expired mid-precompute, leaving some cells
  /// unwritten. An incomplete matrix must not be read — the solvers
  /// check this and report DeadlineExceeded instead of consuming
  /// garbage costs.
  bool complete() const { return complete_; }
  void set_complete(bool complete) { complete_ = complete; }

 private:
  size_t num_segments_ = 0;
  size_t num_configs_ = 0;
  bool complete_ = true;
  std::vector<double> exec_;   // [segment * num_configs + config]
  std::vector<double> trans_;  // [from * num_configs + to]
  // Derived by Finalize(): [from * ChangeStride(num_configs) + to], see
  // ChangeTrans().
  std::vector<double> change_trans_;
  std::vector<double> build_;  // [universe index]
  std::vector<double> drop_;   // [universe index]
};

/// The what-if oracle the design optimizers query: EXEC(S_i, C) for
/// workload segments S_i and hypothetical configurations C, plus
/// TRANS(C, C'). A point statement's estimated cost depends only on its
/// shape (type and columns), not on its literal, so the engine factors
/// the workload by shape:
///
///  * the workload profile — every distinct literal-erased shape, once;
///  * per-segment profiles — (workload shape id, count) pairs, so a
///    segment of 500 queries collapses into a handful of entries;
///  * shape-cost columns — for one configuration C, the cost of every
///    workload shape under C (ShapeColumn). EXEC(S_i, C) is then the
///    profile-order dot product of segment i's profile with C's
///    column, so any number of segments is priced from |shapes| model
///    probes.
///
/// Immutable after construction apart from its atomic counters, so it
/// is safe to share across threads without locks. The solvers' hot
/// loops read the dense tables PrecomputeCostMatrix() builds from one
/// column per candidate configuration.
class WhatIfEngine {
 public:
  /// `model` must outlive the engine. `statements` are read once (the
  /// engine keeps only their distinct shapes); `segments` define the
  /// stages S_1..S_n.
  WhatIfEngine(const CostModel* model,
               std::span<const BoundStatement> statements,
               std::vector<Segment> segments);

  const CostModel& model() const { return *model_; }
  size_t num_segments() const { return segments_.size(); }
  const std::vector<Segment>& segments() const { return segments_; }

  /// The workload-wide shape profile: every distinct literal-erased
  /// statement shape with its total multiplicity, in first-appearance
  /// (= statement) order. EXEC(S_i, C) is, for every segment i, a
  /// nonnegative-weighted sum of StatementCost over a subset of these
  /// shapes — dominance pruning probes them instead of the full n x m
  /// EXEC matrix, so its cost is |shapes| x m costings however long
  /// the statement sequence is.
  const std::vector<WorkloadShape>& workload_profile() const {
    return workload_profile_;
  }

  /// StatementCost(shape.representative, config), counted as one
  /// what-if costing.
  double ShapeCost(const WorkloadShape& shape,
                   const Configuration& config) const;

  /// The shape-cost column of `config`: column[s] is
  /// StatementCost(workload_profile()[s].representative, config).
  /// |workload_profile()| costings.
  std::vector<double> ShapeColumn(const Configuration& config) const;

  /// EXEC(S_segment, C) from C's shape-cost column: the sum of
  /// count x column[shape] over the segment's profile in
  /// first-appearance order. No costings.
  double SegmentCost(size_t segment, std::span<const double> column) const;

  /// EXEC(S_segment, config), costing only the segment's own shapes
  /// (one costing per profile entry); the same double as the column
  /// form. For one-off probes of a configuration that prices a single
  /// segment — sweeps over many segments should take a column.
  double SegmentCost(size_t segment, const Configuration& config) const;

  /// EXEC(S_begin ∪ ... ∪ S_{end-1}, C): the per-segment costs summed
  /// forward in segment order.
  double RangeCost(size_t begin, size_t end,
                   std::span<const double> column) const;
  /// As above, pricing `config`'s column first.
  double RangeCost(size_t begin, size_t end,
                   const Configuration& config) const {
    return RangeCost(begin, end, ShapeColumn(config));
  }

  /// TRANS(from, to), forwarded to the cost model.
  double TransitionCost(const Configuration& from,
                        const Configuration& to) const {
    return model_->TransitionCost(from, to);
  }

  /// Fills the dense EXEC matrix over all (segment, ConfigId) pairs
  /// and the TRANS matrix over all ConfigId pairs of the pinned
  /// `candidates` space, fanning the work out across `pool` (serial
  /// when pool is null), then builds the change-edge table
  /// (Finalize). This is the single enumeration entry point:
  /// the solvers never cost materialized Configuration vectors.
  ///
  /// Every configuration's shape-cost column is priced first — every
  /// (shape, configuration) pair is one costing — and then the EXEC
  /// cells are filled segment-major, each pool task owning a
  /// contiguous range of rows: cell (s, c) is SegmentCost(s, c's
  /// column), summed in the same profile order, so the fill is
  /// O(|shapes| x m) costings plus O(nnz x m) arithmetic, nnz being the
  /// total number of per-segment profile entries. Results, and
  /// costings(), are identical for any thread count, with or without
  /// `tracer` or `progress`.
  ///
  /// With exact masks (candidates.exact_masks()), the TRANS matrix is
  /// computed additively from per-universe-index build/drop costs via
  /// mask arithmetic — O(popcount) per pair, no Configuration diffs —
  /// summing the per-index terms in universe (= sorted) order, which is
  /// the exact summation order of CostModel::TransitionCost, so the
  /// cells are bit-identical to the materialized path.
  ///
  /// Every cell is validated with std::isfinite as it is written: a
  /// NaN or infinite cost would silently corrupt the solvers'
  /// shortest-path ordering (their reachability checks only compare
  /// against +inf), so a non-finite probe fails the whole precompute
  /// with an Internal status naming the offending segment/transition
  /// and configuration (the lowest flattened cell index wins, so the
  /// error is deterministic for any thread count).
  ///
  /// `budget` (optional) makes the fill cooperatively interruptible:
  /// on expiry the remaining columns or row ranges are skipped and the
  /// returned matrix has complete() == false. Cancellation is polled
  /// between them, so mid-precompute Cancel() from another thread is
  /// safe.
  ///
  /// `progress` (optional) receives a "whatif.precompute" update as
  /// each range of EXEC rows completes — invoked from worker threads,
  /// so the callback must be thread-safe (see common/progress.h).
  /// `logger` (optional) records precompute start/end events.
  Result<CostMatrix> PrecomputeCostMatrix(
      const CandidateSpace& candidates, ThreadPool* pool = nullptr,
      Tracer* tracer = nullptr, const Budget* budget = nullptr,
      const ProgressFn* progress = nullptr, Logger* logger = nullptr) const;

  /// Mirrors the engine's costings into the "whatif.costings" counter
  /// of `registry`. Pass nullptr to detach. Safe to call concurrently
  /// with probes and with other SetMetrics calls (the sink pointer is
  /// atomic): an engine shared by concurrent Solve() calls over the
  /// same registry — the serving path — is race-free. No-op when
  /// metrics are compiled out.
  void SetMetrics(MetricsRegistry* registry) const;

  /// Number of what-if costings (cost-model probes) performed so far —
  /// the optimizer-cost experiments' dominant work unit.
  int64_t costings() const {
    return costings_.load(std::memory_order_relaxed);
  }

 private:
  /// One per-segment profile entry: a workload shape and how many of
  /// the segment's statements have it.
  struct ProfileEntry {
    uint32_t shape = 0;  // Index into workload_profile_.
    int64_t count = 0;
  };

  std::span<const ProfileEntry> Profile(size_t segment) const {
    return std::span<const ProfileEntry>(profile_entries_)
        .subspan(profile_begin_[segment],
                 profile_begin_[segment + 1] - profile_begin_[segment]);
  }

  /// Writes `config`'s shape-cost column into `column`, one costing
  /// per workload shape.
  void FillColumn(const Configuration& config, std::span<double> column) const;

  void CountCostings(int64_t costed) const;

  const CostModel* model_;
  std::vector<Segment> segments_;
  // Segment s's profile is profile_entries_[profile_begin_[s],
  // profile_begin_[s + 1]), each segment's shapes in first-appearance
  // order.
  std::vector<ProfileEntry> profile_entries_;
  std::vector<size_t> profile_begin_;
  std::vector<WorkloadShape> workload_profile_;
  mutable std::atomic<int64_t> costings_{0};
  // Optional metric sink (null until SetMetrics). Atomic because every
  // concurrent Solve() over a shared engine re-attaches it while other
  // solves' probes read it; the registry hands out stable pointers, so
  // concurrent attaches of the same registry are idempotent.
  mutable std::atomic<Counter*> metrics_costings_{nullptr};
};

/// Shape-cost columns of the configurations one walk over a schedule
/// visits, each priced on first use — so pricing a schedule costs
/// |shapes| costings per distinct configuration, not per segment.
/// Local to one walk; not thread-safe.
class ScheduleColumns {
 public:
  explicit ScheduleColumns(const WhatIfEngine& engine) : engine_(engine) {}

  /// `config`'s column, valid for the lifetime of this object.
  std::span<const double> For(const Configuration& config);

 private:
  const WhatIfEngine& engine_;
  std::deque<std::pair<Configuration, std::vector<double>>> columns_;
  size_t last_ = 0;  // The entry For() returned last.
};

}  // namespace cdpd

#endif  // CDPD_COST_WHAT_IF_H_
