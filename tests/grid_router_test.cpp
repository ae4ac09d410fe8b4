#include <gtest/gtest.h>

#include "delay/evaluator.h"
#include "expt/net_generator.h"
#include "grid/global_router.h"
#include "grid/net_router.h"

namespace ntr::grid {
namespace {

const spice::Technology kTech = spice::kTable1Technology;

Grid layout_grid(unsigned capacity = 4) {
  // 10x10 mm layout at 250um pitch: 40x40 cells.
  return Grid(40, 40, 250.0, capacity);
}

TEST(NetRouter, RoutesSimpleNet) {
  Grid g = layout_grid();
  graph::Net net{{{100, 100}, {5000, 100}, {5000, 5000}}};
  const MazeNetRouting r = route_net(g, net);
  ASSERT_EQ(r.pin_cells.size(), 3u);
  ASSERT_EQ(r.paths.size(), 2u);
  for (const CellPath& p : r.paths) EXPECT_FALSE(p.empty());
  EXPECT_GT(routed_wirelength(g, r), 0.0);
}

TEST(NetRouter, WirelengthMatchesManhattanWhenUnobstructed) {
  Grid g = layout_grid();
  graph::Net net{{{125, 125}, {5125, 125}}};  // cell centers, 20 cells apart
  const MazeNetRouting r = route_net(g, net);
  EXPECT_DOUBLE_EQ(routed_wirelength(g, r), 5000.0);
}

TEST(NetRouter, RejectsCoincidentOrBlockedPins) {
  Grid g = layout_grid();
  graph::Net coincident{{{100, 100}, {120, 130}}};  // same 250um cell
  EXPECT_THROW(route_net(g, coincident), std::invalid_argument);

  Grid g2 = layout_grid();
  g2.block(g2.snap({5000, 5000}));
  graph::Net blocked{{{100, 100}, {5000, 5000}}};
  EXPECT_THROW(route_net(g2, blocked), std::invalid_argument);
}

TEST(NetRouter, ThrowsWhenPinWalledOff) {
  Grid g = layout_grid();
  // Wall the right half off completely.
  g.block_rect({20, 0}, {20, 39});
  graph::Net net{{{100, 100}, {9000, 9000}}};
  EXPECT_THROW(route_net(g, net), std::runtime_error);
}

TEST(NetRouter, UsageCommitAndRelease) {
  Grid g = layout_grid(1);
  graph::Net net{{{125, 125}, {3125, 125}, {3125, 3125}}};
  const MazeNetRouting r = route_net(g, net);
  EXPECT_EQ(g.max_usage(), 0u);
  commit_usage(g, r, +1);
  EXPECT_GT(g.max_usage(), 0u);
  EXPECT_FALSE(has_overflow(g, r));  // at capacity, not over
  commit_usage(g, r, +1);            // pretend a second identical net
  EXPECT_TRUE(has_overflow(g, r));
  commit_usage(g, r, -1);
  commit_usage(g, r, -1);
  EXPECT_EQ(g.max_usage(), 0u);
}

TEST(NetRouter, ToRoutingGraphIsConnectedTreeOnSimpleNets) {
  Grid g = layout_grid();
  expt::NetGenerator gen(5);
  for (int trial = 0; trial < 4; ++trial) {
    const graph::Net net = gen.random_net(6);
    const MazeNetRouting r = route_net(g, net);
    const graph::RoutingGraph rg = to_routing_graph(g, net, r);
    EXPECT_TRUE(rg.is_connected());
    EXPECT_EQ(rg.node(0).kind, graph::NodeKind::kSource);
    EXPECT_EQ(rg.sinks().size(), net.sink_count());
    // Contraction must preserve total length: wirelength equals the grid
    // routing's metal.
    EXPECT_NEAR(rg.total_wirelength(), routed_wirelength(g, r), 1e-6);
  }
}

TEST(NetRouter, RoutedGraphFeedsDelayEvaluators) {
  Grid g = layout_grid();
  graph::Net net{{{100, 100}, {8000, 200}, {4000, 7000}}};
  const MazeNetRouting r = route_net(g, net);
  const graph::RoutingGraph rg = to_routing_graph(g, net, r);
  const delay::TransientEvaluator eval(kTech);
  const std::vector<double> delays = eval.sink_delays(rg);
  ASSERT_EQ(delays.size(), 2u);
  for (const double d : delays) {
    EXPECT_GT(d, 0.0);
    EXPECT_TRUE(std::isfinite(d));
  }
}

TEST(NetRouter, DetoursAroundObstacle) {
  Grid g = layout_grid();
  g.block_rect({10, 0}, {12, 30});
  graph::Net net{{{125, 125}, {8125, 125}}};
  const MazeNetRouting r = route_net(g, net);
  // Forced above the wall: longer than the direct 8000um.
  EXPECT_GT(routed_wirelength(g, r), 8000.0);
  for (const CellPath& p : r.paths)
    for (const Cell c : p) EXPECT_FALSE(g.blocked(c));
}

TEST(GlobalRouter, ResolvesContention) {
  // Two parallel nets through a 1-capacity corridor: sequential routing
  // overflows, rip-up must spread them apart.
  Grid g(20, 5, 100.0, 1);
  std::vector<graph::Net> nets;
  nets.push_back(graph::Net{{{50, 250}, {1850, 250}}});   // row 2 straight
  nets.push_back(graph::Net{{{50, 250}, {1850, 250}}});
  // Perturb the second net's pins slightly so cells differ by one row.
  nets[1].pins[0].y = 160.0;  // row 1
  nets[1].pins[1].y = 160.0;

  GlobalRouteResult result = route_nets(g, nets);
  EXPECT_EQ(result.overflow, 0u);
  EXPECT_LE(g.max_usage(), g.capacity());
}

TEST(GlobalRouter, ManyRandomNetsRouteCleanlyWithCapacity) {
  Grid g(40, 40, 250.0, 6);
  expt::NetGenerator gen(11);
  std::vector<graph::Net> nets;
  for (int i = 0; i < 12; ++i) nets.push_back(gen.random_net(5));
  const GlobalRouteResult result = route_nets(g, nets);
  ASSERT_EQ(result.nets.size(), nets.size());
  EXPECT_EQ(result.overflow, 0u);
  EXPECT_GT(result.total_wirelength_um, 0.0);
  // The grid's committed usage is consistent with the recorded routings.
  double wl = 0.0;
  for (const MazeNetRouting& r : result.nets) wl += routed_wirelength(g, r);
  EXPECT_DOUBLE_EQ(wl, result.total_wirelength_um);
}

TEST(GlobalRouter, OverflowReportedWhenUnavoidable) {
  // Three identical 2-pin nets with pins in the same cells, capacity 1,
  // single-row grid corridor: contention cannot be fully resolved.
  Grid g(10, 2, 100.0, 1);
  std::vector<graph::Net> nets;
  for (int i = 0; i < 3; ++i)
    nets.push_back(graph::Net{{{50.0, 50.0 + i * 1e-9}, {850.0, 50.0 + i * 1e-9}}});
  const GlobalRouteResult result = route_nets(g, nets);
  EXPECT_GT(result.overflow, 0u);  // 3 nets, 2 rows, capacity 1
  EXPECT_LE(result.passes, 4u);    // rip-up gives up after 4 passes
}

}  // namespace
}  // namespace ntr::grid
