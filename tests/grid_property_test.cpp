// Randomized properties of the grid-routing substrate.

#include <gtest/gtest.h>

#include <random>

#include "expt/net_generator.h"
#include "graph/mst.h"
#include "grid/global_router.h"
#include "grid/net_router.h"

namespace ntr::grid {
namespace {

class GridPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(GridPropertyTest, SearchLengthsMatchManhattanWhenUnobstructed) {
  const Grid g(30, 30, 100.0);
  std::mt19937 rng(GetParam());
  for (int k = 0; k < 20; ++k) {
    const Cell a{rng() % 30, rng() % 30};
    const Cell b{rng() % 30, rng() % 30};
    const double expected =
        (static_cast<double>(a.col > b.col ? a.col - b.col : b.col - a.col) +
         static_cast<double>(a.row > b.row ? a.row - b.row : b.row - a.row)) *
        g.pitch();
    const std::vector<Cell> sources{a};
    const CellPath path = dijkstra_route(g, sources, b, pitch_cost);
    ASSERT_FALSE(path.empty());
    EXPECT_DOUBLE_EQ(static_cast<double>(path.size() - 1) * g.pitch(), expected);
  }
}

TEST_P(GridPropertyTest, CommitReleaseIsExactlyReversible) {
  Grid g(20, 20, 200.0, 3);
  expt::NetGenerator gen(GetParam());
  std::vector<MazeNetRouting> routings;
  for (int i = 0; i < 5; ++i) {
    // Pins over a 4000x4000 window mapped into this 20x20x200um grid.
    graph::Net net;
    expt::NetGenerator local(GetParam() * 11 + i);
    net = local.random_net(4);
    for (geom::Point& p : net.pins) {
      p.x = p.x * 4000.0 / 10000.0;
      p.y = p.y * 4000.0 / 10000.0;
    }
    try {
      routings.push_back(route_net(g, net));
      commit_usage(g, routings.back(), +1);
    } catch (const std::invalid_argument&) {
      // colliding pin cells at this coarse pitch: skip the net
    }
  }
  ASSERT_FALSE(routings.empty());
  EXPECT_GT(g.max_usage(), 0u);
  for (const MazeNetRouting& r : routings) commit_usage(g, r, -1);
  EXPECT_EQ(g.max_usage(), 0u);
  EXPECT_EQ(g.total_overflow(), 0u);
}

TEST_P(GridPropertyTest, RoutedWirelengthAtLeastSpanningLowerBound) {
  Grid g(40, 40, 250.0);
  expt::NetGenerator gen(GetParam() * 3 + 2);
  for (int t = 0; t < 4; ++t) {
    const graph::Net net = gen.random_net(5);
    MazeNetRouting r;
    try {
      r = route_net(g, net);
    } catch (const std::invalid_argument&) {
      continue;
    }
    // The routing connects the snapped pin cells with possible trunk
    // sharing (a Steiner-like structure), so its wirelength can dip below
    // the MST of the snapped centers -- but never below the rectilinear
    // Steiner bound of 2/3 x MST (Hwang's ratio).
    std::vector<geom::Point> snapped;
    for (const Cell c : r.pin_cells) snapped.push_back(g.center(c));
    const auto mst_edges = graph::prim_mst(snapped);
    const double mst_cost = graph::edges_cost(snapped, mst_edges);
    EXPECT_GE(routed_wirelength(g, r) + 1e-6, (2.0 / 3.0) * mst_cost);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridPropertyTest, ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace ntr::grid
