#ifndef CDPD_CORE_RELAX_STAGE_H_
#define CDPD_CORE_RELAX_STAGE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "advisor/candidate_space.h"
#include "cost/what_if.h"

namespace cdpd {

/// Back-pointer of one DP cell: the previous stage's (layer, ConfigId)
/// its value arrived from.
struct DpParent {
  int32_t layer = -1;
  int32_t config = -1;
};

/// How the relaxation kernel computes a layer's change-edge minimum,
/// min over predecessors p of prev[p] + TRANS(p, c). Both paths are
/// exact; they differ in cost and in floating-point summation order.
enum class RelaxPath {
  /// Ascending scan over every predecessor p != c: O(m^2) per layer.
  /// The reference oracle, and the only path for fingerprint masks.
  kScan,
  /// Per-bit min-plus transform over the 2^u subset lattice of the
  /// space's u universe indexes: O(u 2^u + m) per layer. Needs exact
  /// masks and the matrix's per-index build/drop costs.
  kLattice,
};

/// The path the solvers take over `space`: the lattice when masks are
/// exact and u * 2^u < m * (m - 1) (u = num_indexes(), m = size()),
/// the scan otherwise. The paper's m = 7 singleton space scans; every
/// subset of its six indexes (m = 64) takes the lattice.
RelaxPath ChooseRelaxPath(const CandidateSpace& space);

/// Bytes of lattice scratch a kernel on `path` over `space` allocates:
/// one double and one int32 argmin per lattice point (0 for the scan).
int64_t RelaxScratchBytes(const CandidateSpace& space, RelaxPath path);

/// The one layered DP relaxation kernel behind SolveKAware (set or
/// unset k). Serial: the solver calls it once per stage, so every
/// argmin is independent of the thread count, and relaxing a stage
/// again from the same input reproduces its values and back-pointers
/// bit for bit — which is what lets a checkpointed solve re-relax a
/// block instead of keeping its parent rows.
///
/// A cell (l, c) of stage s takes the cheaper of its stay edge
/// (dist[l][c], same layer, same configuration) and the change edges
/// min_p dist[src][p] + TRANS(p, c), then adds EXEC(s, c). With
/// `count_changes` the change edges come from layer src = l - 1 (layer
/// 0 has none), so layer l means "at most l changes": the lattice path
/// may land a change edge on p = c at zero TRANS, and the scan never
/// beats a stay edge that way. Without it (an unset k's one layer)
/// src = l. Ties keep the stay edge; the scan then prefers the lowest
/// p, the lattice a deterministic lattice order.
class RelaxKernel {
 public:
  /// `matrix` and `space` must outlive the kernel; `layers` >= 1.
  RelaxKernel(const CostMatrix& matrix, const CandidateSpace& space,
              size_t layers, bool count_changes, RelaxPath path);

  /// Relaxes stage `stage` (>= 1) from the previous stage's `dist`
  /// into `next`, both layers x m ([l * m + c]). Unreachable cells are
  /// +inf in and out. `parent` (optional, layers x m) receives each
  /// reachable cell's back-pointer; the scan path also writes the
  /// entries of unreachable cells, which no backtrack follows.
  void RelaxStage(size_t stage, const double* dist, double* next,
                  DpParent* parent);

  RelaxPath path() const { return path_; }
  /// Updates performed so far: one per stay edge, plus on the scan one
  /// per change edge, on the lattice u * 2^u per-bit updates and m
  /// gathered comparisons per change-edge layer.
  int64_t relaxations() const { return relaxations_; }
  /// Finite cells written so far (DP states reached).
  int64_t reachable() const { return reachable_; }

 private:
  /// Fills value_/arg_ with the change-edge minimum into every lattice
  /// point from the predecessor layer `prev`.
  void Transform(const double* prev);

  const CostMatrix& matrix_;
  const CandidateSpace& space_;
  const size_t layers_;
  const bool count_changes_;
  const RelaxPath path_;
  int64_t relaxations_ = 0;
  int64_t reachable_ = 0;
  std::vector<double> value_;  // [lattice point]
  std::vector<int32_t> arg_;   // [lattice point] -> ConfigId
};

/// Cost of the ConfigId path `path` (one per stage) from the dense
/// matrices: init_trans[path[0]], then TRANS into and EXEC of every
/// stage, then final_trans[path.back()] when `final_trans` is non-null
/// — added in EvaluateScheduleCost's TRANS-then-EXEC order from the
/// same doubles, so the total is bit-identical to it with O(n) array
/// reads. The DP's own sum cannot be reported: the lattice adds
/// per-bit terms in a different order than a TRANS cell.
double PricePath(const CostMatrix& matrix, std::span<const ConfigId> path,
                 const double* init_trans, const double* final_trans);

}  // namespace cdpd

#endif  // CDPD_CORE_RELAX_STAGE_H_
