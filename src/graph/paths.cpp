#include "graph/paths.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

namespace ntr::graph {

ShortestPaths shortest_paths(const RoutingGraph& g, NodeId source) {
  const std::size_t n = g.node_count();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ShortestPaths sp;
  sp.distance.assign(n, kInf);
  sp.parent.assign(n, kInvalidNode);
  sp.parent_edge.assign(n, kInvalidEdge);
  if (source >= n) throw std::out_of_range("shortest_paths: source out of range");

  using Entry = std::pair<double, NodeId>;  // (distance, node)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  sp.distance[source] = 0.0;
  heap.emplace(0.0, source);

  while (!heap.empty()) {
    const auto [dist, u] = heap.top();
    heap.pop();
    if (dist > sp.distance[u]) continue;  // stale entry
    for (const EdgeId e : g.incident_edges(u)) {
      const NodeId v = g.other_endpoint(e, u);
      const double nd = dist + g.edge(e).length;
      if (nd < sp.distance[v]) {
        sp.distance[v] = nd;
        sp.parent[v] = u;
        sp.parent_edge[v] = e;
        heap.emplace(nd, v);
      }
    }
  }
  return sp;
}

RootedTree root_tree(const RoutingGraph& g, NodeId root) {
  if (!g.is_tree())
    throw std::invalid_argument("root_tree: routing graph is not a tree");
  const std::size_t n = g.node_count();
  RootedTree t;
  t.root = root;
  t.parent.assign(n, kInvalidNode);
  t.parent_edge.assign(n, kInvalidEdge);
  t.preorder.reserve(n);

  std::vector<bool> seen(n, false);
  std::vector<NodeId> stack{root};
  stack.reserve(n);
  seen[root] = true;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    t.preorder.push_back(u);
    for (const EdgeId e : g.incident_edges(u)) {
      const NodeId v = g.other_endpoint(e, u);
      if (!seen[v]) {
        seen[v] = true;
        t.parent[v] = u;
        t.parent_edge[v] = e;
        stack.push_back(v);
      }
    }
  }
  if (t.preorder.size() != n)
    throw std::invalid_argument("root_tree: tree is not connected");
  return t;
}

std::vector<double> tree_path_lengths(const RoutingGraph& g, const RootedTree& tree) {
  std::vector<double> len(tree.size(), 0.0);
  for (const NodeId u : tree.preorder) {
    if (tree.parent[u] == kInvalidNode) continue;
    len[u] = len[tree.parent[u]] + g.edge(tree.parent_edge[u]).length;
  }
  return len;
}

double routing_radius(const RoutingGraph& g) {
  const ShortestPaths sp = shortest_paths(g, g.source());
  double radius = 0.0;
  for (const NodeId s : g.sinks()) radius = std::max(radius, sp.distance[s]);
  return radius;
}

}  // namespace ntr::graph
