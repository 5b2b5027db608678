#include "core/sequence_graph.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/math_util.h"
#include "common/string_util.h"

namespace cdpd {

Result<SequenceGraph> SequenceGraph::Build(const DesignProblem& problem,
                                           const CostMatrix* matrix) {
  CDPD_RETURN_IF_ERROR(problem.Validate());
  SequenceGraph graph;
  graph.problem_ = &problem;
  graph.num_stages_ = problem.num_segments();
  const size_t m = problem.candidates.size();
  const size_t n = graph.num_stages_;
  if (matrix != nullptr &&
      (matrix->num_segments() != n || matrix->num_configs() != m)) {
    return Status::InvalidArgument(
        "cost matrix shape does not match the design problem");
  }
  const auto trans = [&](size_t p, size_t c) {
    return matrix != nullptr
               ? matrix->Trans(p, c)
               : problem.what_if->TransitionCost(problem.candidates[p],
                                                 problem.candidates[c]);
  };

  // Node and edge ids are int32; reject problems whose materialized
  // graph would not be addressable (the DP solvers handle such sizes
  // without building the graph — only ranking/introspection needs it).
  // Nodes: source + n*m stage nodes + destination. Edges: m source
  // edges + (n-1)*m^2 bipartite edges + m destination edges.
  {
    int64_t nodes = 0;
    int64_t edges = 0;
    int64_t bipartite = 0;
    const auto n64 = static_cast<int64_t>(n);
    const auto m64 = static_cast<int64_t>(m);
    const bool fits =
        CheckedMul(n64, m64, &nodes) && CheckedAdd(nodes, 2, &nodes) &&
        CheckedMul(m64, m64, &bipartite) &&
        CheckedMul(bipartite, n64 > 0 ? n64 - 1 : 0, &bipartite) &&
        CheckedAdd(bipartite, 2 * m64, &edges) &&
        nodes <= std::numeric_limits<int32_t>::max() &&
        edges <= std::numeric_limits<int32_t>::max();
    if (!fits) {
      return Status::InvalidArgument(
          "sequence graph over " + std::to_string(n) + " segments and " +
          std::to_string(m) +
          " candidate configurations exceeds the 32-bit node/edge id "
          "space");
    }
  }

  // Node layout: 0 = source; 1 + (stage-1)*m + c for stage in 1..n;
  // destination last.
  graph.destination_ = static_cast<NodeId>(1 + n * m);
  graph.in_edges_.resize(static_cast<size_t>(graph.destination_) + 1);
  graph.out_edges_.resize(static_cast<size_t>(graph.destination_) + 1);

  const WhatIfEngine& what_if = *problem.what_if;
  if (n == 0) {
    const double weight =
        problem.final_config.has_value()
            ? what_if.TransitionCost(problem.initial, *problem.final_config)
            : 0.0;
    graph.AddEdge(graph.source(), graph.destination_, weight);
    return graph;
  }

  // Without a matrix, EXEC comes from one shape-cost column per
  // candidate, priced once.
  std::vector<std::vector<double>> columns;
  if (matrix == nullptr) {
    columns.reserve(m);
    for (const Configuration& config : problem.candidates) {
      columns.push_back(what_if.ShapeColumn(config));
    }
  }
  const auto exec = [&](size_t stage, size_t c) {
    return matrix != nullptr ? matrix->Exec(stage, c)
                             : what_if.SegmentCost(stage, columns[c]);
  };

  // Source -> stage 1.
  for (size_t c = 0; c < m; ++c) {
    const Configuration& config = problem.candidates[c];
    graph.AddEdge(graph.source(), graph.StageNode(1, c),
                  what_if.TransitionCost(problem.initial, config) +
                      exec(0, c));
  }
  // Stage x -> stage x+1 (complete bipartite).
  for (size_t stage = 1; stage < n; ++stage) {
    for (size_t p = 0; p < m; ++p) {
      for (size_t c = 0; c < m; ++c) {
        graph.AddEdge(graph.StageNode(stage, p),
                      graph.StageNode(stage + 1, c),
                      trans(p, c) + exec(stage, c));
      }
    }
  }
  // Stage n -> destination.
  for (size_t c = 0; c < m; ++c) {
    const double weight =
        problem.final_config.has_value()
            ? what_if.TransitionCost(problem.candidates[c],
                                     *problem.final_config)
            : 0.0;
    graph.AddEdge(graph.StageNode(n, c), graph.destination_, weight);
  }
  return graph;
}

void SequenceGraph::AddEdge(NodeId from, NodeId to, double weight) {
  const auto id = static_cast<int32_t>(edges_.size());
  edges_.push_back(Edge{from, to, weight});
  out_edges_[static_cast<size_t>(from)].push_back(id);
  in_edges_[static_cast<size_t>(to)].push_back(id);
}

size_t SequenceGraph::NodeStage(NodeId node) const {
  if (node == source()) return 0;
  if (node == destination_) return num_stages_ + 1;
  return 1 + static_cast<size_t>(node - 1) / num_configs();
}

size_t SequenceGraph::NodeConfigIndex(NodeId node) const {
  assert(node != source() && node != destination_);
  return static_cast<size_t>(node - 1) % num_configs();
}

SequenceGraph::NodeId SequenceGraph::StageNode(size_t stage,
                                               size_t config_index) const {
  assert(stage >= 1 && stage <= num_stages_);
  assert(config_index < num_configs());
  return static_cast<NodeId>(1 + (stage - 1) * num_configs() + config_index);
}

std::vector<Configuration> SequenceGraph::PathConfigs(
    const std::vector<NodeId>& path) const {
  std::vector<Configuration> configs;
  for (NodeId node : path) {
    if (node == source() || node == destination_) continue;
    configs.push_back(problem_->candidates[NodeConfigIndex(node)]);
  }
  return configs;
}

int64_t SequenceGraph::PathChanges(const std::vector<NodeId>& path) const {
  return CountChanges(*problem_, PathConfigs(path));
}

std::string SequenceGraph::ToDot() const {
  const Schema& schema = problem_->what_if->model().schema();
  std::string dot = "digraph sequence_graph {\n  rankdir=LR;\n";
  dot += "  n0 [label=\"C0 = " + problem_->initial.ToString(schema) +
         "\" shape=box];\n";
  for (size_t stage = 1; stage <= num_stages_; ++stage) {
    for (size_t c = 0; c < num_configs(); ++c) {
      const NodeId node = StageNode(stage, c);
      dot += "  n" + std::to_string(node) + " [label=\"S" +
             std::to_string(stage) + " " +
             problem_->candidates[c].ToString(schema) + "\"];\n";
    }
  }
  dot += "  n" + std::to_string(destination_) + " [label=\"dest\" shape=box];\n";
  for (const Edge& edge : edges_) {
    dot += "  n" + std::to_string(edge.from) + " -> n" +
           std::to_string(edge.to) + " [label=\"" +
           FormatDouble(edge.weight, 1) + "\"];\n";
  }
  dot += "}\n";
  return dot;
}

DagShortestPaths ComputeShortestPaths(const SequenceGraph& graph) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  DagShortestPaths result;
  result.dist.assign(static_cast<size_t>(graph.num_nodes()), kInf);
  result.parent_edge.assign(static_cast<size_t>(graph.num_nodes()), -1);
  result.dist[static_cast<size_t>(graph.source())] = 0.0;
  // Node ids are already in topological order (source, stages, dest).
  for (SequenceGraph::NodeId node = graph.source(); node <= graph.destination();
       ++node) {
    const auto node_index = static_cast<size_t>(node);
    if (result.dist[node_index] == kInf) continue;
    for (int32_t edge_id : graph.OutEdgeIds(node)) {
      const SequenceGraph::Edge& edge = graph.edge(edge_id);
      const double candidate = result.dist[node_index] + edge.weight;
      const auto to_index = static_cast<size_t>(edge.to);
      if (candidate < result.dist[to_index]) {
        result.dist[to_index] = candidate;
        result.parent_edge[to_index] = edge_id;
      }
    }
  }
  return result;
}

std::vector<SequenceGraph::NodeId> ExtractPath(const SequenceGraph& graph,
                                               const DagShortestPaths& paths,
                                               SequenceGraph::NodeId target) {
  std::vector<SequenceGraph::NodeId> path;
  SequenceGraph::NodeId node = target;
  path.push_back(node);
  while (node != graph.source()) {
    const int32_t edge_id = paths.parent_edge[static_cast<size_t>(node)];
    if (edge_id < 0) return {};  // Unreachable target.
    node = graph.edge(edge_id).from;
    path.push_back(node);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

int64_t EstimateSequenceGraphBytes(int64_t num_stages, int64_t num_configs) {
  if (num_stages <= 0 || num_configs <= 0) return 0;
  const int64_t nodes =
      SaturatingAdd(SaturatingMul(num_stages, num_configs), 2);
  // Source fan-out + complete bipartite layers + destination fan-in
  // (Figure 1's edge inventory, matching Build).
  int64_t edges = SaturatingMul(int64_t{2}, num_configs);
  edges = SaturatingAdd(
      edges, SaturatingMul(num_stages - 1,
                           SaturatingMul(num_configs, num_configs)));
  // Each edge: the Edge struct plus one int32 id in each adjacency
  // index; each node: the two adjacency-vector headers.
  int64_t bytes = SaturatingMul(
      edges, static_cast<int64_t>(sizeof(SequenceGraph::Edge) +
                                  2 * sizeof(int32_t)));
  bytes = SaturatingAdd(
      bytes, SaturatingMul(
                 nodes, static_cast<int64_t>(2 *
                                             sizeof(std::vector<int32_t>))));
  return bytes;
}

}  // namespace cdpd
