#include "route/local_search.h"

#include <stdexcept>

#include "graph/union_find.h"

namespace ntr::route {

namespace {

/// Component labels of the tree with edge `removed` deleted.
std::vector<std::size_t> split_components(const graph::RoutingGraph& tree,
                                          graph::EdgeId removed) {
  graph::UnionFind uf(tree.node_count());
  for (graph::EdgeId e = 0; e < tree.edge_count(); ++e) {
    if (e == removed) continue;
    uf.unite(tree.edge(e).u, tree.edge(e).v);
  }
  std::vector<std::size_t> label(tree.node_count());
  for (graph::NodeId n = 0; n < tree.node_count(); ++n) label[n] = uf.find(n);
  return label;
}

}  // namespace

EdgeSwapResult edge_swap_search(const graph::RoutingGraph& initial_tree,
                                const delay::DelayEvaluator& evaluator,
                                const EdgeSwapOptions& options) {
  if (!initial_tree.is_tree())
    throw std::invalid_argument("edge_swap_search: input must be a spanning tree");

  EdgeSwapResult result;
  result.graph = initial_tree;
  result.initial_delay = evaluator.max_delay(result.graph);
  result.final_delay = result.initial_delay;

  for (;;) {
    const double current = result.final_delay;
    const double accept_below = current * (1.0 - options.min_relative_improvement);

    double best_delay = accept_below;
    graph::EdgeId best_remove = graph::kInvalidEdge;
    graph::NodeId best_u = graph::kInvalidNode;
    graph::NodeId best_v = graph::kInvalidNode;

    for (graph::EdgeId e = 0; e < result.graph.edge_count(); ++e) {
      const std::vector<std::size_t> label = split_components(result.graph, e);
      const graph::GraphEdge removed = result.graph.edge(e);
      for (graph::NodeId u = 0; u < result.graph.node_count(); ++u) {
        for (graph::NodeId v = u + 1; v < result.graph.node_count(); ++v) {
          if (label[u] == label[v]) continue;          // would not reconnect
          if (u == removed.u && v == removed.v) continue;  // same edge back
          if (u == removed.v && v == removed.u) continue;
          graph::RoutingGraph trial = result.graph;
          trial.remove_edge(e);
          trial.add_edge(u, v);
          const double t = evaluator.max_delay(trial);
          if (t < best_delay) {
            best_delay = t;
            best_remove = e;
            best_u = u;
            best_v = v;
          }
        }
      }
    }

    if (best_remove == graph::kInvalidEdge) break;
    result.graph.remove_edge(best_remove);
    result.graph.add_edge(best_u, best_v);
    result.final_delay = best_delay;
    ++result.swaps;
  }
  return result;
}

}  // namespace ntr::route
