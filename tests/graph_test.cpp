#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "graph/net.h"
#include "graph/paths.h"
#include "graph/routing_graph.h"
#include "graph/union_find.h"

namespace ntr::graph {
namespace {

Net square_net() {
  // source at origin, three sinks on a unit-ish square (um scale).
  return Net{{{0, 0}, {100, 0}, {100, 100}, {0, 100}}};
}

TEST(Net, ValidationRejectsDegenerateNets) {
  EXPECT_THROW((Net{{{0, 0}}}).validate(), std::invalid_argument);
  EXPECT_THROW((Net{{{0, 0}, {0, 0}}}).validate(), std::invalid_argument);
  EXPECT_NO_THROW(square_net().validate());
}

TEST(Net, DuplicatePinsFollowPointEquality) {
  // 0.0 == -0.0, so these two pins coincide.
  EXPECT_THROW((Net{{{0, 5}, {1, 1}, {-0.0, 5}}}).validate(), std::invalid_argument);
  EXPECT_THROW((Net{{{3, 0.0}, {3, -0.0}}}).validate(), std::invalid_argument);
  // A NaN coordinate compares unequal to everything, itself included.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NO_THROW((Net{{{nan, 1}, {nan, 1}, {2, 2}}}).validate());
  EXPECT_NO_THROW((Net{{{0, nan}, {0, nan}}}).validate());
  // ... but does not hide a duplicate among the other pins.
  EXPECT_THROW((Net{{{nan, 1}, {2, 2}, {nan, 1}, {2, 2}}}).validate(),
               std::invalid_argument);
}

TEST(UnionFind, MergesAndCounts) {
  UnionFind uf(5);
  EXPECT_EQ(uf.component_count(), 5u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(1, 2));
  EXPECT_FALSE(uf.unite(0, 2));
  EXPECT_EQ(uf.component_count(), 3u);
  EXPECT_TRUE(uf.connected(0, 2));
  EXPECT_FALSE(uf.connected(0, 4));
}

TEST(RoutingGraph, ConstructionFromNet) {
  const RoutingGraph g(square_net());
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.node(0).kind, NodeKind::kSource);
  EXPECT_EQ(g.node(3).kind, NodeKind::kSink);
  EXPECT_EQ(g.sinks().size(), 3u);
  EXPECT_FALSE(g.is_connected());
}

TEST(RoutingGraph, AddEdgeComputesManhattanLength) {
  RoutingGraph g(square_net());
  const EdgeId e = g.add_edge(0, 2);
  EXPECT_DOUBLE_EQ(g.edge(e).length, 200.0);
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_DOUBLE_EQ(g.total_wirelength(), 200.0);
}

TEST(RoutingGraph, AddEdgeRejectsSelfLoopAndDeduplicates) {
  RoutingGraph g(square_net());
  EXPECT_THROW(g.add_edge(1, 1), std::invalid_argument);
  const EdgeId e1 = g.add_edge(0, 1);
  const EdgeId e2 = g.add_edge(1, 0);
  EXPECT_EQ(e1, e2);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(RoutingGraph, TreeAndCycleDetection) {
  RoutingGraph g(square_net());
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  EXPECT_TRUE(g.is_tree());
  EXPECT_EQ(g.cycle_count(), 0u);
  g.add_edge(3, 0);  // close the square: one cycle
  EXPECT_TRUE(g.is_connected());
  EXPECT_FALSE(g.is_tree());
  EXPECT_EQ(g.cycle_count(), 1u);
}

TEST(RoutingGraph, RemoveEdgeRestoresTree) {
  RoutingGraph g(square_net());
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  g.remove_edge(*g.find_edge(3, 0));
  EXPECT_TRUE(g.is_tree());
  EXPECT_FALSE(g.has_edge(3, 0));
}

TEST(RoutingGraph, SplitEdgeInsertsSteinerNode) {
  RoutingGraph g(square_net());
  const EdgeId e = g.add_edge(0, 1);
  const NodeId mid = g.split_edge(e, {40, 0});
  EXPECT_EQ(g.node(mid).kind, NodeKind::kSteiner);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 2u);
  // Splitting on the bbox path preserves total length.
  EXPECT_DOUBLE_EQ(g.total_wirelength(), 100.0);
  EXPECT_TRUE(g.has_edge(0, mid));
  EXPECT_TRUE(g.has_edge(mid, 1));
}

TEST(RoutingGraph, WireAreaTracksWidths) {
  RoutingGraph g(square_net());
  const EdgeId e = g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_DOUBLE_EQ(g.total_wire_area(), 200.0);
  g.set_edge_width(e, 3.0);
  EXPECT_DOUBLE_EQ(g.total_wire_area(), 400.0);
  EXPECT_DOUBLE_EQ(g.total_wirelength(), 200.0);  // cost ignores widths
  EXPECT_THROW(g.set_edge_width(e, 0.0), std::invalid_argument);
  EXPECT_THROW(g.set_edge_width(e, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(g.set_edge_width(e, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_DOUBLE_EQ(g.edge(e).width, 3.0);
}

TEST(Paths, DijkstraOnCycleTakesShorterWay) {
  RoutingGraph g(square_net());
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  const ShortestPaths sp = shortest_paths(g, 0);
  EXPECT_DOUBLE_EQ(sp.distance[2], 200.0);  // both ways equal
  EXPECT_DOUBLE_EQ(sp.distance[3], 100.0);  // direct edge beats the long way
  EXPECT_EQ(sp.parent[3], 0u);
}

TEST(Paths, RootTreeRejectsCycles) {
  RoutingGraph g(square_net());
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  EXPECT_THROW(root_tree(g, 0), std::invalid_argument);
}

TEST(Paths, TreePathLengthsAndExtraction) {
  RoutingGraph g(square_net());
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const RootedTree t = root_tree(g, 0);
  const std::vector<double> len = tree_path_lengths(g, t);
  EXPECT_DOUBLE_EQ(len[0], 0.0);
  EXPECT_DOUBLE_EQ(len[3], 300.0);
  // The parent chain from node 3 walks the path back to the root.
  std::vector<NodeId> path;
  for (NodeId u = 3; u != kInvalidNode; u = t.parent[u]) path.push_back(u);
  EXPECT_EQ(path, (std::vector<NodeId>{3, 2, 1, 0}));
}

TEST(Paths, RoutingRadiusIsMaxSinkDistance) {
  RoutingGraph g(square_net());
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  EXPECT_DOUBLE_EQ(routing_radius(g), 300.0);
  g.add_edge(3, 0);
  EXPECT_DOUBLE_EQ(routing_radius(g), 200.0);
}

TEST(Paths, UnreachableNodesReportInfinity) {
  RoutingGraph g(square_net());
  g.add_edge(0, 1);
  const ShortestPaths sp = shortest_paths(g, 0);
  EXPECT_TRUE(std::isinf(sp.distance[2]));
  EXPECT_EQ(sp.parent[2], kInvalidNode);
}

TEST(RoutingGraph, MstRoutingSpansNet) {
  const RoutingGraph g = mst_routing(square_net());
  EXPECT_TRUE(g.is_tree());
  EXPECT_DOUBLE_EQ(g.total_wirelength(), 300.0);
}

// Regression for the documented invariant "add_edge on an existing pair
// returns the existing id": it must hold for BOTH orientations, or a
// caller iterating unordered pairs could silently create a parallel edge.
TEST(RoutingGraph, AddEdgeReturnsExistingIdInBothOrientations) {
  RoutingGraph g(square_net());
  const EdgeId e = g.add_edge(0, 1);
  EXPECT_EQ(g.add_edge(0, 1), e);
  EXPECT_EQ(g.add_edge(1, 0), e);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.find_edge(1, 0), std::optional<EdgeId>(e));
  EXPECT_TRUE(g.has_edge(1, 0));
  // Re-adding in the reverse orientation must not disturb the adjacency.
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

}  // namespace
}  // namespace ntr::graph
