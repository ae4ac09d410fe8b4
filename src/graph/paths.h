#pragma once

#include <vector>

#include "graph/routing_graph.h"

namespace ntr::graph {

/// Result of a single-source shortest-path computation over the wires of a
/// routing graph (lengths in micrometers of routed wire, not straight-line
/// distance).
struct ShortestPaths {
  std::vector<double> distance;   ///< distance[n], +inf if unreachable
  std::vector<NodeId> parent;     ///< parent[n] on a shortest path tree, kInvalidNode at root
  std::vector<EdgeId> parent_edge;///< edge used to reach n, kInvalidEdge at root
};

/// Dijkstra over the graph's edges, weighted by edge length.
ShortestPaths shortest_paths(const RoutingGraph& g, NodeId source);

/// Orientation of a *tree* routing graph as a rooted tree: parent[] and
/// parent_edge[] via BFS from `root`. Throws std::invalid_argument if the
/// graph is not a tree (the orientation would not be well defined).
struct RootedTree {
  NodeId root = 0;
  std::vector<NodeId> parent;        ///< kInvalidNode at the root
  std::vector<EdgeId> parent_edge;   ///< kInvalidEdge at the root
  std::vector<NodeId> preorder;      ///< root-first traversal order
  [[nodiscard]] std::size_t size() const { return parent.size(); }
};

RootedTree root_tree(const RoutingGraph& g, NodeId root);

/// Wire pathlength from the root to every node of a rooted tree.
std::vector<double> tree_path_lengths(const RoutingGraph& g, const RootedTree& tree);

/// Maximum over sinks of the source-to-sink pathlength (the routing radius).
double routing_radius(const RoutingGraph& g);

}  // namespace ntr::graph
