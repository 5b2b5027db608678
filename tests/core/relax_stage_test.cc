// The DP relaxation kernel: the scan path against the per-destination
// loop it replaced (kept here as its oracle), the subset-lattice path
// against the scan on random stage layers, plus PricePath against
// EvaluateScheduleCost. Layers cover unreachable predecessors, lattice
// points no member occupies, universes shrunk by Subset, members that
// share a mask, integer costs that tie exactly and costs a few ulps
// apart.

#include "core/relax_stage.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/config_enumeration.h"
#include "common/rng.h"
#include "test_util.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The first `u` of the paper schema's one- and two-column indexes.
std::vector<IndexDef> OneAndTwoColumnIndexes(size_t u) {
  std::vector<IndexDef> out;
  for (ColumnId a = 0; a < 4; ++a) out.push_back(IndexDef({a}));
  for (ColumnId a = 0; a < 4; ++a) {
    for (ColumnId b = 0; b < 4; ++b) {
      if (a != b) out.push_back(IndexDef({a, b}));
    }
  }
  out.resize(u);
  return out;
}

/// Every subset of the first `u` indexes (2^u configurations).
CandidateSpace AllSubsets(size_t u) {
  ConfigEnumOptions options;
  options.max_indexes_per_config = static_cast<int32_t>(u);
  return EnumerateConfigurations(OneAndTwoColumnIndexes(u), options).value();
}

/// A random member subset of `space`, in ascending ConfigId order.
CandidateSpace RandomSubset(const CandidateSpace& space, double keep,
                            Rng* rng) {
  std::vector<ConfigId> ids;
  for (size_t id = 0; id < space.size(); ++id) {
    if (rng->NextDouble() < keep) ids.push_back(static_cast<ConfigId>(id));
  }
  if (ids.size() < 2) ids = {0, static_cast<ConfigId>(space.size() - 1)};
  return space.Subset(ids);
}

/// A two-stage matrix over `space` whose TRANS cells are the per-index
/// sums PrecomputeCostMatrix's mask path writes. Integer costs make
/// many candidate sums tie exactly.
CostMatrix RandomMatrix(const CandidateSpace& space, bool integer_costs,
                        Rng* rng) {
  const size_t m = space.size();
  const size_t u = space.num_indexes();
  const auto draw = [&](double scale) {
    return integer_costs ? static_cast<double>(1 + rng->NextBounded(3))
                         : scale * (0.5 + rng->NextDouble());
  };
  std::vector<double> build(u);
  std::vector<double> drop(u);
  for (size_t i = 0; i < u; ++i) {
    build[i] = draw(300.0);
    drop[i] = draw(10.0);
  }
  CostMatrix matrix(2, m);
  for (size_t s = 0; s < 2; ++s) {
    for (size_t c = 0; c < m; ++c) matrix.MutableExec(s, c) = draw(1000.0);
  }
  for (size_t from = 0; from < m; ++from) {
    for (size_t to = 0; to < m; ++to) {
      double cost = 0.0;
      if (from != to) {
        for (size_t i = 0; i < u; ++i) {
          const uint64_t bit = uint64_t{1} << i;
          if ((space.mask(to) & bit) != 0 && (space.mask(from) & bit) == 0) {
            cost += build[i];
          }
        }
        for (size_t i = 0; i < u; ++i) {
          const uint64_t bit = uint64_t{1} << i;
          if ((space.mask(from) & bit) != 0 && (space.mask(to) & bit) == 0) {
            cost += drop[i];
          }
        }
      }
      matrix.MutableTrans(from, to) = cost;
    }
  }
  matrix.SetIndexCosts(std::move(build), std::move(drop));
  matrix.Finalize();
  return matrix;
}

/// Random previous-stage values, about a quarter of them unreachable.
std::vector<double> RandomLayers(size_t layers, size_t m, bool integer_costs,
                                 Rng* rng) {
  std::vector<double> dist(layers * m);
  for (double& v : dist) {
    if (rng->NextBounded(4) == 0) {
      v = kInf;
    } else {
      v = integer_costs ? static_cast<double>(rng->NextBounded(8))
                        : 5000.0 * rng->NextDouble();
    }
  }
  return dist;
}

/// Relaxes stage 1 from `dist` on both paths and checks the lattice
/// against the scan oracle: every value equals the exact minimum over
/// the stay edge and all change edges (p = c included on the lattice,
/// where it is a zero-TRANS change: "at most l changes"), every
/// back-pointer is an edge that prices to the value, and each path
/// counts the work it did.
void ExpectLatticeMatchesScan(const CandidateSpace& space,
                              const CostMatrix& matrix, size_t layers,
                              bool count_changes,
                              const std::vector<double>& dist) {
  SCOPED_TRACE(::testing::Message()
               << "m=" << space.size() << " u=" << space.num_indexes()
               << " layers=" << layers << " count_changes=" << count_changes);
  const size_t m = space.size();
  const size_t u = space.num_indexes();
  RelaxKernel scan(matrix, space, layers, count_changes, RelaxPath::kScan);
  RelaxKernel lattice(matrix, space, layers, count_changes,
                      RelaxPath::kLattice);
  std::vector<double> scan_next(layers * m);
  std::vector<double> lattice_next(layers * m);
  std::vector<DpParent> scan_parent(layers * m);
  std::vector<DpParent> lattice_parent(layers * m);
  scan.RelaxStage(1, dist.data(), scan_next.data(), scan_parent.data());
  lattice.RelaxStage(1, dist.data(), lattice_next.data(),
                     lattice_parent.data());

  int64_t reachable = 0;
  for (size_t l = 0; l < layers; ++l) {
    const bool has_change = !count_changes || l > 0;
    const size_t src = count_changes ? l - 1 : l;
    for (size_t c = 0; c < m; ++c) {
      const size_t cell = l * m + c;
      const double exec = matrix.Exec(1, c);
      double expected = scan_next[cell];
      if (has_change && dist[src * m + c] < kInf) {
        expected = std::min(expected, dist[src * m + c] + exec);
      }
      if (expected == kInf) {
        EXPECT_EQ(lattice_next[cell], kInf) << "l=" << l << " c=" << c;
        continue;
      }
      ++reachable;
      const double tolerance = 1e-9 * std::max(1.0, std::fabs(expected));
      EXPECT_NEAR(lattice_next[cell], expected, tolerance)
          << "l=" << l << " c=" << c;
      for (const auto& [next, parent] :
           {std::pair{&scan_next, &scan_parent},
            std::pair{&lattice_next, &lattice_parent}}) {
        if ((*next)[cell] == kInf) continue;  // Scan: no exact-l path.
        const DpParent p = (*parent)[cell];
        ASSERT_GE(p.config, 0);
        const auto from = static_cast<size_t>(p.config);
        if (static_cast<size_t>(p.layer) == l && count_changes) {
          EXPECT_EQ(from, c) << "a same-layer parent is the stay edge";
        } else {
          EXPECT_TRUE(has_change && static_cast<size_t>(p.layer) == src);
        }
        const double via = dist[static_cast<size_t>(p.layer) * m + from] +
                           matrix.Trans(from, c) + exec;
        EXPECT_NEAR(via, (*next)[cell], tolerance) << "l=" << l << " c=" << c;
      }
    }
  }
  EXPECT_EQ(lattice.reachable(), reachable);
  const size_t change_layers = count_changes ? layers - 1 : layers;
  EXPECT_EQ(scan.relaxations(),
            static_cast<int64_t>(layers * m + change_layers * m * (m - 1)));
  EXPECT_EQ(lattice.relaxations(),
            static_cast<int64_t>(layers * m + change_layers * ((u << u) + m)));
}

/// One relaxed stage: the next layers, their back-pointers, and the
/// number of reachable cells.
struct RelaxedStage {
  std::vector<double> next;
  std::vector<DpParent> parent;
  int64_t reachable = 0;
};

/// The scan path as it ran before the fixed-width sweep: per
/// destination c and layer, the stay edge, then every predecessor
/// p != c ascending, taken only when strictly cheaper. The oracle of
/// RelaxKernel's scan path.
RelaxedStage OracleScan(const CostMatrix& matrix, size_t layers,
                        bool count_changes, size_t stage,
                        const std::vector<double>& dist) {
  const size_t m = matrix.num_configs();
  RelaxedStage out;
  out.next.assign(layers * m, kInf);
  out.parent.assign(layers * m, DpParent{});
  for (size_t c = 0; c < m; ++c) {
    const double exec = matrix.Exec(stage, c);
    for (size_t l = 0; l < layers; ++l) {
      const size_t cell = l * m + c;
      double best = dist[cell];
      DpParent best_parent{static_cast<int32_t>(l), static_cast<int32_t>(c)};
      if (!count_changes || l > 0) {
        const size_t src = count_changes ? l - 1 : l;
        const double* prev = dist.data() + src * m;
        for (size_t p = 0; p < c; ++p) {
          const double cost = prev[p] + matrix.Trans(p, c);
          if (cost < best) {
            best = cost;
            best_parent = DpParent{static_cast<int32_t>(src),
                                   static_cast<int32_t>(p)};
          }
        }
        for (size_t p = c + 1; p < m; ++p) {
          const double cost = prev[p] + matrix.Trans(p, c);
          if (cost < best) {
            best = cost;
            best_parent = DpParent{static_cast<int32_t>(src),
                                   static_cast<int32_t>(p)};
          }
        }
      }
      if (best < kInf) {
        out.next[cell] = best + exec;
        out.parent[cell] = best_parent;
        ++out.reachable;
      }
    }
  }
  return out;
}

/// The empty configuration and the first m - 1 one- and two-column
/// indexes as singletons: a space of any size up to 17.
CandidateSpace SingletonSpace(size_t m) {
  std::vector<Configuration> configs = {Configuration::Empty()};
  for (const IndexDef& def : OneAndTwoColumnIndexes(m - 1)) {
    configs.push_back(Configuration({def}));
  }
  return CandidateSpace(configs);
}

/// How the scan-oracle inputs draw their costs.
enum class CostKind {
  kSpread,   // Uniform over a wide range.
  kInteger,  // 1..3: many candidate sums tie exactly.
  kNearTie,  // 100 moved by a few ulps: sums that differ in the last bits.
};

double DrawCost(CostKind kind, Rng* rng) {
  switch (kind) {
    case CostKind::kSpread:
      return 1000.0 * rng->NextDouble();
    case CostKind::kInteger:
      return static_cast<double>(1 + rng->NextBounded(3));
    case CostKind::kNearTie: {
      double v = 100.0;
      const auto steps = static_cast<int>(rng->NextBounded(7)) - 3;
      for (int i = 0; i < std::abs(steps); ++i) {
        v = std::nextafter(v, steps > 0 ? kInf : 0.0);
      }
      return v;
    }
  }
  return 0.0;
}

/// A two-stage matrix over m configurations with arbitrary (not
/// necessarily additive) TRANS cells, which is all the scan reads.
CostMatrix ScanMatrix(size_t m, CostKind kind, Rng* rng) {
  CostMatrix matrix(2, m);
  for (size_t s = 0; s < 2; ++s) {
    for (size_t c = 0; c < m; ++c) {
      matrix.MutableExec(s, c) = DrawCost(kind, rng);
    }
  }
  for (size_t from = 0; from < m; ++from) {
    for (size_t to = 0; to < m; ++to) {
      matrix.MutableTrans(from, to) = from == to ? 0.0 : DrawCost(kind, rng);
    }
  }
  matrix.Finalize();
  return matrix;
}

/// Relaxes stage 1 of `dist` with the kernel's scan path, with and
/// without back-pointers, and checks it against OracleScan bit for
/// bit: every value (unreachable cells stay +inf), every reachable
/// cell's back-pointer, relaxations() and reachable().
void ExpectScanMatchesOracle(const CandidateSpace& space,
                             const CostMatrix& matrix, size_t layers,
                             bool count_changes,
                             const std::vector<double>& dist) {
  SCOPED_TRACE(::testing::Message() << "m=" << space.size() << " layers="
                                    << layers << " count_changes="
                                    << count_changes);
  const size_t m = space.size();
  const RelaxedStage oracle =
      OracleScan(matrix, layers, count_changes, /*stage=*/1, dist);
  RelaxKernel kernel(matrix, space, layers, count_changes, RelaxPath::kScan);
  std::vector<double> next(layers * m);
  std::vector<DpParent> parent(layers * m);
  kernel.RelaxStage(1, dist.data(), next.data(), parent.data());
  RelaxKernel no_parents(matrix, space, layers, count_changes,
                         RelaxPath::kScan);
  std::vector<double> next_only(layers * m);
  no_parents.RelaxStage(1, dist.data(), next_only.data(), nullptr);
  for (size_t cell = 0; cell < layers * m; ++cell) {
    SCOPED_TRACE(::testing::Message() << "l=" << cell / m
                                      << " c=" << cell % m);
    EXPECT_EQ(std::bit_cast<uint64_t>(next[cell]),
              std::bit_cast<uint64_t>(oracle.next[cell]));
    EXPECT_EQ(std::bit_cast<uint64_t>(next_only[cell]),
              std::bit_cast<uint64_t>(oracle.next[cell]));
    if (oracle.next[cell] == kInf) continue;
    EXPECT_EQ(parent[cell].layer, oracle.parent[cell].layer);
    EXPECT_EQ(parent[cell].config, oracle.parent[cell].config);
  }
  const size_t change_layers = count_changes ? layers - 1 : layers;
  const auto relaxations =
      static_cast<int64_t>(layers * m + change_layers * m * (m - 1));
  EXPECT_EQ(kernel.relaxations(), relaxations);
  EXPECT_EQ(no_parents.relaxations(), relaxations);
  EXPECT_EQ(kernel.reachable(), oracle.reachable);
  EXPECT_EQ(no_parents.reachable(), oracle.reachable);
}

TEST(RelaxStageTest, ScanMatchesThePerDestinationLoopBitForBit) {
  // Sizes on both sides of the kernel's lane width, padded and not.
  Rng rng(15);
  for (size_t m : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 16u}) {
    const CandidateSpace space = SingletonSpace(m);
    ASSERT_EQ(space.size(), m);
    for (CostKind kind :
         {CostKind::kSpread, CostKind::kInteger, CostKind::kNearTie}) {
      const CostMatrix matrix = ScanMatrix(m, kind, &rng);
      for (int trial = 0; trial < 3; ++trial) {
        for (size_t layers : {1u, 2u, 3u, 5u}) {
          // About a quarter of the previous stage is unreachable.
          std::vector<double> dist(layers * m);
          for (double& v : dist) {
            v = rng.NextBounded(4) == 0 ? kInf : DrawCost(kind, &rng);
          }
          ExpectScanMatchesOracle(space, matrix, layers, true, dist);
          if (layers == 1) {
            ExpectScanMatchesOracle(space, matrix, layers, false, dist);
          }
        }
      }
      // Whole layers unreachable, then only one reachable cell.
      std::vector<double> dist(3 * m, kInf);
      ExpectScanMatchesOracle(space, matrix, 3, true, dist);
      dist[m + m / 2] = 50.0;
      ExpectScanMatchesOracle(space, matrix, 3, true, dist);
      ExpectScanMatchesOracle(space, matrix, 1, false,
                              std::vector<double>(m, kInf));
    }
  }
}

TEST(RelaxStageTest, ChoosesTheLatticeOnlyWhereItPays) {
  // The paper's seven singletons: 6 * 2^6 = 384 > 7 * 6 = 42.
  EXPECT_EQ(ChooseRelaxPath(MakeRandomProblem(1, 1, 1)->problem.candidates),
            RelaxPath::kScan);
  // Two indexes per configuration, m = 22: 384 < 462.
  EXPECT_EQ(ChooseRelaxPath(MakeRandomProblem(1, 1, 1, 2)->problem.candidates),
            RelaxPath::kLattice);
  EXPECT_EQ(ChooseRelaxPath(AllSubsets(6)), RelaxPath::kLattice);
  EXPECT_EQ(ChooseRelaxPath(AllSubsets(10)), RelaxPath::kLattice);
  EXPECT_EQ(ChooseRelaxPath(CandidateSpace{Configuration::Empty()}),
            RelaxPath::kScan);
  EXPECT_EQ(RelaxScratchBytes(AllSubsets(6), RelaxPath::kScan), 0);
  EXPECT_EQ(RelaxScratchBytes(AllSubsets(6), RelaxPath::kLattice),
            64 * static_cast<int64_t>(sizeof(double) + sizeof(int32_t)));
}

TEST(RelaxStageTest, LatticeMatchesScanOnFullLattices) {
  Rng rng(11);
  for (size_t u : {1u, 3u, 6u}) {
    const CandidateSpace space = AllSubsets(u);
    for (bool integer_costs : {false, true}) {
      const CostMatrix matrix = RandomMatrix(space, integer_costs, &rng);
      for (size_t layers : {1u, 2u, 5u}) {
        for (bool count_changes : {true, false}) {
          if (!count_changes && layers != 1) continue;
          ExpectLatticeMatchesScan(
              space, matrix, layers, count_changes,
              RandomLayers(layers, space.size(), integer_costs, &rng));
        }
      }
    }
  }
}

TEST(RelaxStageTest, LatticeMatchesScanOnSparseAndShrunkSpaces) {
  // Random member subsets leave most lattice points unoccupied, and
  // dropping every holder of an index shrinks the re-derived universe.
  Rng rng(12);
  const CandidateSpace full = AllSubsets(8);
  for (int trial = 0; trial < 20; ++trial) {
    const CandidateSpace space =
        RandomSubset(full, trial < 10 ? 0.1 : 0.5, &rng);
    const bool integer_costs = trial % 2 == 1;
    const CostMatrix matrix = RandomMatrix(space, integer_costs, &rng);
    ExpectLatticeMatchesScan(space, matrix, 4, true,
                             RandomLayers(4, space.size(), integer_costs, &rng));
    ExpectLatticeMatchesScan(space, matrix, 1, false,
                             RandomLayers(1, space.size(), integer_costs, &rng));
  }
  // A subset with no configuration holding the last two indexes.
  std::vector<ConfigId> low;
  for (size_t id = 0; id < full.size(); ++id) {
    if ((full.mask(id) >> 6) == 0) low.push_back(static_cast<ConfigId>(id));
  }
  const CandidateSpace shrunk = full.Subset(low);
  ASSERT_LT(shrunk.num_indexes(), full.num_indexes());
  const CostMatrix matrix = RandomMatrix(shrunk, false, &rng);
  ExpectLatticeMatchesScan(shrunk, matrix, 3, true,
                           RandomLayers(3, shrunk.size(), false, &rng));
}

TEST(RelaxStageTest, LatticeMatchesScanWhenMembersShareAMask) {
  // Duplicate configurations share a lattice point: the scatter keeps
  // the smaller predecessor, and a change between the twins is free.
  Rng rng(13);
  const CandidateSpace base = AllSubsets(4);
  std::vector<Configuration> configs = base.configs();
  for (size_t id = 0; id < base.size(); id += 3) configs.push_back(base[id]);
  const CandidateSpace space(configs);
  ASSERT_EQ(space.num_indexes(), base.num_indexes());
  for (bool integer_costs : {false, true}) {
    const CostMatrix matrix = RandomMatrix(space, integer_costs, &rng);
    for (int trial = 0; trial < 5; ++trial) {
      ExpectLatticeMatchesScan(
          space, matrix, 3, true,
          RandomLayers(3, space.size(), integer_costs, &rng));
      ExpectLatticeMatchesScan(
          space, matrix, 1, false,
          RandomLayers(1, space.size(), integer_costs, &rng));
    }
  }
}

TEST(RelaxStageTest, UnreachableLayersStayUnreachable) {
  Rng rng(14);
  const CandidateSpace space = AllSubsets(5);
  const CostMatrix matrix = RandomMatrix(space, false, &rng);
  std::vector<double> dist(3 * space.size(), kInf);
  dist[2] = 100.0;  // One reachable cell, in layer 0.
  ExpectLatticeMatchesScan(space, matrix, 3, true, dist);
  std::vector<double> none(3 * space.size(), kInf);
  ExpectLatticeMatchesScan(space, matrix, 3, true, none);
}

TEST(RelaxStageTest, PricePathEqualsEvaluateScheduleCostBitForBit) {
  for (int32_t max_per_config : {1, 6}) {
    auto fixture = MakeRandomProblem(21, /*num_segments=*/12,
                                     /*block_size=*/10, max_per_config);
    fixture->problem.final_config = Configuration::Empty();
    const CandidateSpace& space = fixture->problem.candidates;
    const CostMatrix matrix =
        fixture->what_if->PrecomputeCostMatrix(space).value();
    ASSERT_EQ(matrix.index_build_costs().size(), space.num_indexes());
    std::vector<double> init_trans(space.size());
    std::vector<double> final_trans(space.size());
    for (size_t c = 0; c < space.size(); ++c) {
      init_trans[c] =
          fixture->what_if->TransitionCost(fixture->problem.initial, space[c]);
      final_trans[c] = fixture->what_if->TransitionCost(
          space[c], *fixture->problem.final_config);
    }
    Rng rng(static_cast<uint64_t>(max_per_config));
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<ConfigId> path(12);
      std::vector<Configuration> configs;
      for (size_t i = 0; i < path.size(); ++i) {
        // Runs of repeats as well as changes.
        const bool repeat = i > 0 && rng.NextBounded(2) == 0;
        path[i] = repeat ? path[i - 1]
                         : static_cast<ConfigId>(rng.NextBounded(space.size()));
        configs.push_back(space[path[i]]);
      }
      EXPECT_EQ(PricePath(matrix, path, init_trans.data(), final_trans.data()),
                EvaluateScheduleCost(fixture->problem, configs));
      fixture->problem.final_config.reset();
      EXPECT_EQ(PricePath(matrix, path, init_trans.data(), nullptr),
                EvaluateScheduleCost(fixture->problem, configs));
      fixture->problem.final_config = Configuration::Empty();
    }
  }
}

}  // namespace
}  // namespace cdpd
