#ifndef CDPD_CORE_SEQUENCE_GRAPH_H_
#define CDPD_CORE_SEQUENCE_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/design_problem.h"

namespace cdpd {

/// The explicit sequence graph of Agrawal et al. (Figure 1): a DAG
/// with a source node (the initial design C0), one node per
/// (stage, candidate configuration), and a destination node. Node
/// weights EXEC(S_x, C_j) are folded into the incoming edge weights,
/// so a path's weight is exactly the sequence execution cost of the
/// design schedule it spells.
///
/// The DP solver (core/k_aware_graph.h, whose unset-k solve is this
/// graph's shortest path) does not materialize it; it exists for
/// introspection (node/edge inventory, DOT rendering) and for the
/// shortest-path *ranking* approach of §5, which enumerates whole
/// paths.
class SequenceGraph {
 public:
  using NodeId = int32_t;

  struct Edge {
    NodeId from = 0;
    NodeId to = 0;
    double weight = 0.0;
  };

  /// Builds the graph; the problem must Validate() and must outlive
  /// the graph. When `matrix` is given (a precomputed
  /// WhatIfEngine::PrecomputeCostMatrix over problem.candidates), edge
  /// weights are read from the dense tables instead of re-deriving
  /// every transition, which removes the O(n |C|^2) configuration
  /// diffs from the build.
  static Result<SequenceGraph> Build(const DesignProblem& problem,
                                     const CostMatrix* matrix = nullptr);

  NodeId source() const { return 0; }
  NodeId destination() const { return destination_; }
  int64_t num_nodes() const { return destination_ + 1; }
  int64_t num_edges() const { return static_cast<int64_t>(edges_.size()); }
  size_t num_stages() const { return num_stages_; }
  size_t num_configs() const { return problem_->candidates.size(); }

  /// Stage of a node: 0 for the source, 1..n for statement stages,
  /// n+1 for the destination.
  size_t NodeStage(NodeId node) const;
  /// Candidate-configuration index of a stage node.
  size_t NodeConfigIndex(NodeId node) const;
  NodeId StageNode(size_t stage, size_t config_index) const;

  const std::vector<Edge>& edges() const { return edges_; }
  /// Edges entering `node` (what path ranking walks backwards).
  const std::vector<int32_t>& InEdgeIds(NodeId node) const {
    return in_edges_[static_cast<size_t>(node)];
  }
  /// Edges leaving `node` (what forward shortest path relaxes).
  const std::vector<int32_t>& OutEdgeIds(NodeId node) const {
    return out_edges_[static_cast<size_t>(node)];
  }
  const Edge& edge(int32_t id) const {
    return edges_[static_cast<size_t>(id)];
  }

  const DesignProblem& problem() const { return *problem_; }

  /// The schedule a source-to-destination node path spells (drops the
  /// source/destination endpoints).
  std::vector<Configuration> PathConfigs(
      const std::vector<NodeId>& path) const;

  /// Design changes along a path under the problem's counting policy.
  int64_t PathChanges(const std::vector<NodeId>& path) const;

  /// Graphviz rendering (small graphs; used by the Figure 1 bench).
  std::string ToDot() const;

 private:
  SequenceGraph() = default;

  void AddEdge(NodeId from, NodeId to, double weight);

  const DesignProblem* problem_ = nullptr;
  size_t num_stages_ = 0;
  NodeId destination_ = 0;
  std::vector<Edge> edges_;
  std::vector<std::vector<int32_t>> in_edges_;
  std::vector<std::vector<int32_t>> out_edges_;
};

/// Single-source shortest paths from the graph's source over the DAG
/// (stage order is a topological order), in O(|V| + |E|).
struct DagShortestPaths {
  std::vector<double> dist;        // Per node; +inf if unreachable.
  std::vector<int32_t> parent_edge;  // Edge id into each node; -1 at source.
};

DagShortestPaths ComputeShortestPaths(const SequenceGraph& graph);

/// Predicted bytes of a materialized SequenceGraph over n stages and m
/// candidate configurations — the edge array plus both adjacency
/// indexes — what SolveByRanking charges to
/// MemComponent::kSequenceGraph before Build. Saturates at INT64_MAX.
int64_t EstimateSequenceGraphBytes(int64_t num_stages, int64_t num_configs);

/// Reconstructs the node path from the source to `target` (inclusive).
std::vector<SequenceGraph::NodeId> ExtractPath(const SequenceGraph& graph,
                                               const DagShortestPaths& paths,
                                               SequenceGraph::NodeId target);

}  // namespace cdpd

#endif  // CDPD_CORE_SEQUENCE_GRAPH_H_
