#include "delay/elmore.h"

#include <algorithm>

namespace ntr::delay {

namespace {

double edge_capacitance(const graph::GraphEdge& e, const spice::Technology& tech) {
  return tech.wire_capacitance(e.length, e.width);
}

double edge_resistance(const graph::GraphEdge& e, const spice::Technology& tech) {
  return tech.wire_resistance(e.length, e.width);
}

double node_load(const graph::GraphNode& n, const spice::Technology& tech) {
  return n.kind == graph::NodeKind::kSink ? tech.sink_capacitance_f : 0.0;
}

}  // namespace

std::vector<double> elmore_node_delays(const graph::RoutingGraph& g,
                                       const graph::RootedTree& tree,
                                       const spice::Technology& tech) {
  const std::size_t n = g.node_count();

  // Subtree capacitance C_i: accumulate bottom-up (reverse preorder).
  std::vector<double> subtree_cap(n, 0.0);
  for (graph::NodeId u = 0; u < n; ++u) subtree_cap[u] = node_load(g.node(u), tech);
  for (auto it = tree.preorder.rbegin(); it != tree.preorder.rend(); ++it) {
    const graph::NodeId u = *it;
    const graph::NodeId p = tree.parent[u];
    if (p == graph::kInvalidNode) continue;
    subtree_cap[p] +=
        subtree_cap[u] + edge_capacitance(g.edge(tree.parent_edge[u]), tech);
  }

  // Delays top-down: each node adds its parent edge's r * (c/2 + C_subtree).
  std::vector<double> delay(n, 0.0);
  const double driver_term = tech.driver_resistance_ohm * subtree_cap[tree.root];
  for (const graph::NodeId u : tree.preorder) {
    const graph::NodeId p = tree.parent[u];
    if (p == graph::kInvalidNode) {
      delay[u] = driver_term;
      continue;
    }
    const graph::GraphEdge& e = g.edge(tree.parent_edge[u]);
    delay[u] = delay[p] + edge_resistance(e, tech) *
                              (edge_capacitance(e, tech) / 2.0 + subtree_cap[u]);
  }
  return delay;
}

std::vector<double> elmore_node_delays(const graph::RoutingGraph& g,
                                       const spice::Technology& tech) {
  const graph::RootedTree tree = graph::root_tree(g, g.source());
  return elmore_node_delays(g, tree, tech);
}

}  // namespace ntr::delay
