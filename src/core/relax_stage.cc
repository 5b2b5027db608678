#include "core/relax_stage.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace cdpd {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Largest universe the lattice path is considered for. Beating the
/// scan needs m^2 > u * 2^u, so at u = 32 the space would hold over
/// 370k configurations and its m x m TRANS table over 2 TB: the cap
/// never turns away a space that could be solved, and keeps the shift
/// arithmetic below far from overflow.
constexpr size_t kMaxLatticeIndexes = 32;

/// Destinations the scan path relaxes together: one block of a
/// CostMatrix::ChangeTrans row.
constexpr size_t kLanes = CostMatrix::kChangeRowWidth;

/// The cheapest incoming edge of each destination in one block. The
/// predecessor is held as a double (exact for any ConfigId) so a lane's
/// whole state stays in floating-point registers through the sweep.
struct ScanLanes {
  double best[kLanes];
  double from[kLanes];  // The change edge's predecessor; -1: stay edge.
};

/// Relaxes the destinations [block, block + kLanes) of one layer of an
/// m-configuration space: each starts on its stay edge from `stay`
/// (the layer's own values; the padding lanes past m on +inf) and takes
/// a change edge from `prev` (the source layer's values, null when the
/// layer has none) only when it is strictly cheaper, predecessors
/// ascending — ties keep the stay edge, then the lowest p. ChangeTrans
/// holds +inf on its diagonal and in its padding, so p == c never
/// wins, and neither does an unreachable predecessor (inf + finite is
/// inf).
///
/// The lane loops carry an unroll pragma because GCC unrolls them
/// completely, keeping the lanes in registers, only at -O3 by itself.
inline ScanLanes ScanBlock(const CostMatrix& matrix, size_t m, size_t block,
                           const double* stay, const double* prev) {
  ScanLanes lanes;
#pragma GCC unroll kLanes
  for (size_t lane = 0; lane < kLanes; ++lane) {
    lanes.best[lane] = block + lane < m ? stay[block + lane] : kInf;
    lanes.from[lane] = -1;
  }
  if (prev == nullptr) return lanes;
  for (size_t p = 0; p < m; ++p) {
    const double value = prev[p];
    const auto from = static_cast<double>(p);
    const double* row = matrix.ChangeTrans(p) + block;
#pragma GCC unroll kLanes
    for (size_t lane = 0; lane < kLanes; ++lane) {
      const double cost = value + row[lane];
      const bool better = cost < lanes.best[lane];
      lanes.best[lane] = better ? cost : lanes.best[lane];
      lanes.from[lane] = better ? from : lanes.from[lane];
    }
  }
  return lanes;
}

/// The scan path of RelaxKernel::RelaxStage over an m-configuration
/// space, writing back-pointers when kParents; returns the number of
/// reachable cells it wrote.
template <bool kParents>
int64_t ScanStage(const CostMatrix& matrix, size_t m, size_t layers,
                  bool count_changes, size_t stage, const double* dist,
                  double* next, DpParent* parent) {
  int64_t reachable = 0;
  for (size_t l = 0; l < layers; ++l) {
    // Layer `l` takes change edges from layer l - 1 (k-aware) or from
    // itself (unconstrained); k-aware layer 0 has none.
    const size_t src = count_changes ? l - 1 : l;
    const double* prev =
        !count_changes || l > 0 ? dist + src * m : nullptr;
    for (size_t block = 0; block < m; block += kLanes) {
      const ScanLanes lanes = ScanBlock(matrix, m, block, dist + l * m, prev);
      // Settled without a branch: an unreachable lane stays +inf
      // (inf + EXEC), and its back-pointer, written like any other, is
      // never followed.
      const size_t width = std::min(kLanes, m - block);
      for (size_t lane = 0; lane < width; ++lane) {
        const size_t c = block + lane;
        next[l * m + c] = lanes.best[lane] + matrix.Exec(stage, c);
        reachable += lanes.best[lane] < kInf ? 1 : 0;
        if constexpr (kParents) {
          parent[l * m + c] =
              lanes.from[lane] < 0
                  ? DpParent{static_cast<int32_t>(l), static_cast<int32_t>(c)}
                  : DpParent{static_cast<int32_t>(src),
                             static_cast<int32_t>(lanes.from[lane])};
        }
      }
    }
  }
  return reachable;
}

/// Writes one settled cell: its cheapest incoming value plus EXEC, and
/// its back-pointer when reachable.
inline void Settle(double best, DpParent best_parent, double exec, double* out,
                   DpParent* out_parent, int64_t* reachable) {
  if (best < kInf) {
    *out = best + exec;
    if (out_parent != nullptr) *out_parent = best_parent;
    ++*reachable;
  } else {
    *out = kInf;
  }
}

}  // namespace

RelaxPath ChooseRelaxPath(const CandidateSpace& space) {
  const uint64_t u = space.num_indexes();
  const uint64_t m = space.size();
  if (!space.exact_masks() || u > kMaxLatticeIndexes || m < 2) {
    return RelaxPath::kScan;
  }
  return (u << u) < m * (m - 1) ? RelaxPath::kLattice : RelaxPath::kScan;
}

int64_t RelaxScratchBytes(const CandidateSpace& space, RelaxPath path) {
  if (path != RelaxPath::kLattice) return 0;
  return static_cast<int64_t>((size_t{1} << space.num_indexes()) *
                              (sizeof(double) + sizeof(int32_t)));
}

RelaxKernel::RelaxKernel(const CostMatrix& matrix, const CandidateSpace& space,
                         size_t layers, bool count_changes, RelaxPath path)
    : matrix_(matrix),
      space_(space),
      layers_(layers),
      count_changes_(count_changes),
      path_(path) {
  if (path_ == RelaxPath::kLattice) {
    assert(space_.exact_masks() && space_.num_indexes() <= kMaxLatticeIndexes);
    assert(matrix_.index_build_costs().size() == space_.num_indexes());
    const size_t points = size_t{1} << space_.num_indexes();
    value_.resize(points);
    arg_.resize(points);
  }
}

void RelaxKernel::RelaxStage(size_t stage, const double* dist, double* next,
                             DpParent* parent) {
  const size_t m = space_.size();
  const size_t change_layers = count_changes_ ? layers_ - 1 : layers_;

  if (path_ == RelaxPath::kScan) {
    reachable_ += parent != nullptr
                      ? ScanStage<true>(matrix_, m, layers_, count_changes_,
                                        stage, dist, next, parent)
                      : ScanStage<false>(matrix_, m, layers_, count_changes_,
                                         stage, dist, next, nullptr);
    relaxations_ += static_cast<int64_t>(layers_ * m + change_layers * m *
                                                           (m - 1));
    return;
  }

  // Layer `l` takes change edges from layer l - 1 (k-aware) or from
  // itself (unconstrained); k-aware layer 0 has none.
  const auto has_change = [&](size_t l) { return !count_changes_ || l > 0; };
  const auto source = [&](size_t l) { return count_changes_ ? l - 1 : l; };
  const auto parent_at = [&](size_t cell) {
    return parent != nullptr ? parent + cell : nullptr;
  };
  const std::vector<uint64_t>& masks = space_.masks();
  for (size_t l = 0; l < layers_; ++l) {
    if (has_change(l)) Transform(dist + source(l) * m);
    for (size_t c = 0; c < m; ++c) {
      const size_t cell = l * m + c;
      double best = dist[cell];
      DpParent best_parent{static_cast<int32_t>(l), static_cast<int32_t>(c)};
      if (has_change(l)) {
        const size_t point = masks[c];
        if (value_[point] < best) {
          best = value_[point];
          best_parent =
              DpParent{static_cast<int32_t>(source(l)), arg_[point]};
        }
      }
      Settle(best, best_parent, matrix_.Exec(stage, c), next + cell,
             parent_at(cell), &reachable_);
    }
  }
  const size_t u = space_.num_indexes();
  relaxations_ += static_cast<int64_t>(layers_ * m +
                                       change_layers * ((u << u) + m));
}

void RelaxKernel::Transform(const double* prev) {
  const size_t m = space_.size();
  const std::vector<uint64_t>& masks = space_.masks();
  // Scatter the predecessor layer onto its members' lattice points;
  // ConfigIds sharing a mask keep the smaller value (lower id on a tie).
  // Points no member occupies start at +inf.
  std::fill(value_.begin(), value_.end(), kInf);
  for (size_t p = 0; p < m; ++p) {
    const size_t point = masks[p];
    if (prev[p] < value_[point]) {
      value_[point] = prev[p];
      arg_[point] = static_cast<int32_t>(p);
    }
  }
  // TRANS(S, T) is a sum of independent per-bit terms — build[i] when
  // T adds index i, drop[i] when it removes it, 0 when S and T agree —
  // so the min over S of value[S] + TRANS(S, T) factors into one
  // min-plus pass per bit. After pass i, value[T] is the cheapest
  // predecessor among the points that differ from T in bits <= i only.
  const std::vector<double>& build = matrix_.index_build_costs();
  const std::vector<double>& drop = matrix_.index_drop_costs();
  const size_t points = value_.size();
  for (size_t i = 0; i < build.size(); ++i) {
    const size_t bit = size_t{1} << i;
    const double add = build[i];
    const double del = drop[i];
    for (size_t base = 0; base < points; base += 2 * bit) {
      for (size_t lo = base; lo < base + bit; ++lo) {
        const size_t hi = lo + bit;
        const double without = value_[lo];
        const double with = value_[hi];
        const int32_t arg_without = arg_[lo];
        const int32_t arg_with = arg_[hi];
        if (with + del < without) {
          value_[lo] = with + del;
          arg_[lo] = arg_with;
        }
        if (without + add < with) {
          value_[hi] = without + add;
          arg_[hi] = arg_without;
        }
      }
    }
  }
}

double PricePath(const CostMatrix& matrix, std::span<const ConfigId> path,
                 const double* init_trans, const double* final_trans) {
  double cost = 0.0;
  for (size_t i = 0; i < path.size(); ++i) {
    cost += i == 0 ? init_trans[path[0]] : matrix.Trans(path[i - 1], path[i]);
    cost += matrix.Exec(i, path[i]);
  }
  if (final_trans != nullptr && !path.empty()) cost += final_trans[path.back()];
  return cost;
}

}  // namespace cdpd
