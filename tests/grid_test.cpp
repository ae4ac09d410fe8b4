#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "grid/grid.h"
#include "grid/search.h"

namespace ntr::grid {
namespace {

/// The search the global router runs, under the pure pitch cost.
CellPath shortest_route(const Grid& g, std::span<const Cell> sources, Cell target) {
  return dijkstra_route(g, sources, target, pitch_cost);
}

/// Wire length of a cell path: (cells - 1) * pitch.
double wire_length(const Grid& g, const CellPath& path) {
  return path.empty() ? 0.0 : static_cast<double>(path.size() - 1) * g.pitch();
}

TEST(Grid, ConstructionAndValidation) {
  EXPECT_THROW(Grid(1, 5, 100.0), std::invalid_argument);
  EXPECT_THROW(Grid(5, 5, 0.0), std::invalid_argument);
  EXPECT_THROW(Grid(5, 5, 100.0, 0), std::invalid_argument);
  const Grid g(8, 5, 100.0, 2);
  EXPECT_EQ(g.cell_count(), 40u);
  EXPECT_EQ(g.capacity(), 2u);
}

TEST(Grid, IndexRoundTrip) {
  const Grid g(7, 4, 50.0);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 7; ++c) {
      const Cell cell{c, r};
      EXPECT_EQ(g.cell_at(g.index(cell)), cell);
    }
}

TEST(Grid, NeighborsRespectBorders) {
  const Grid g(3, 3, 10.0);
  Cell n;
  EXPECT_FALSE(g.neighbor({0, 0}, Direction::kWest, n));
  EXPECT_FALSE(g.neighbor({0, 0}, Direction::kSouth, n));
  EXPECT_TRUE(g.neighbor({0, 0}, Direction::kEast, n));
  EXPECT_EQ(n, (Cell{1, 0}));
  EXPECT_TRUE(g.neighbor({0, 0}, Direction::kNorth, n));
  EXPECT_EQ(n, (Cell{0, 1}));
  EXPECT_FALSE(g.neighbor({2, 2}, Direction::kEast, n));
}

TEST(Grid, SnapClampsToLayout) {
  const Grid g(10, 10, 100.0);
  EXPECT_EQ(g.snap({0.0, 0.0}), (Cell{0, 0}));
  EXPECT_EQ(g.snap({150.0, 950.0}), (Cell{1, 9}));
  EXPECT_EQ(g.snap({-50.0, 1e9}), (Cell{0, 9}));
  // Center of a cell snaps back to it.
  EXPECT_EQ(g.snap(g.center({4, 7})), (Cell{4, 7}));
}

TEST(Grid, BoundaryIdsAreSharedBetweenSides) {
  Grid g(4, 3, 10.0);
  EXPECT_EQ(g.boundary_id({1, 1}, Direction::kEast),
            g.boundary_id({2, 1}, Direction::kWest));
  EXPECT_EQ(g.boundary_id({1, 1}, Direction::kNorth),
            g.boundary_id({1, 2}, Direction::kSouth));
  EXPECT_NE(g.boundary_id({1, 1}, Direction::kEast),
            g.boundary_id({1, 1}, Direction::kNorth));
  EXPECT_THROW(static_cast<void>(g.boundary_id({3, 0}, Direction::kEast)),
               std::out_of_range);
}

TEST(Grid, UsageAccounting) {
  Grid g(4, 4, 10.0, 1);
  g.add_usage({1, 1}, Direction::kEast, 1);
  EXPECT_EQ(g.usage({2, 1}, Direction::kWest), 1u);
  EXPECT_EQ(g.usage({1, 1}, Direction::kNorth), 0u);
  EXPECT_EQ(g.total_overflow(), 0u);  // usage == capacity: full, not over
  g.add_usage({1, 1}, Direction::kEast, 1);
  EXPECT_EQ(g.total_overflow(), 1u);
  EXPECT_EQ(g.max_usage(), 2u);
  g.add_usage({1, 1}, Direction::kEast, -2);
  EXPECT_EQ(g.total_overflow(), 0u);
  EXPECT_THROW(g.add_usage({1, 1}, Direction::kEast, -1), std::logic_error);
}

TEST(Grid, BlockRect) {
  Grid g(5, 5, 10.0);
  g.block_rect({1, 1}, {3, 2});
  EXPECT_TRUE(g.blocked({2, 2}));
  EXPECT_FALSE(g.blocked({0, 0}));
  EXPECT_FALSE(g.blocked({4, 3}));
  EXPECT_THROW(g.block_rect({3, 3}, {1, 1}), std::invalid_argument);
}

TEST(Search, LeeFindsShortestPath) {
  const Grid g(10, 10, 100.0);
  const Cell from{0, 0}, to{7, 4};
  const CellPath path = shortest_route(g, std::vector<Cell>{from}, to);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), from);
  EXPECT_EQ(path.back(), to);
  EXPECT_DOUBLE_EQ(wire_length(g, path), (7 + 4) * 100.0);
}

TEST(Search, PathNeverEntersBlockedCells) {
  Grid g(12, 12, 10.0);
  g.block_rect({3, 3}, {8, 8});
  const CellPath path = shortest_route(g, std::vector<Cell>{{0, 5}}, {11, 5});
  ASSERT_FALSE(path.empty());
  for (const Cell c : path) EXPECT_FALSE(g.blocked(c));
}

TEST(Search, UnreachableReturnsEmpty) {
  Grid g(8, 8, 10.0);
  g.block_rect({3, 0}, {3, 7});  // full wall
  EXPECT_TRUE(shortest_route(g, std::vector<Cell>{{0, 0}}, {7, 7}).empty());
}

TEST(Search, MultiSourcePicksNearest) {
  const Grid g(20, 3, 10.0);
  const std::vector<Cell> sources{{0, 0}, {18, 0}};
  const CellPath path = shortest_route(g, sources, {16, 2});
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), (Cell{18, 0}));
  EXPECT_DOUBLE_EQ(wire_length(g, path), 4 * 10.0);
}

TEST(Search, EndpointValidation) {
  Grid g(5, 5, 10.0);
  g.block({2, 2});
  EXPECT_THROW(shortest_route(g, std::vector<Cell>{{2, 2}}, {0, 0}),
               std::invalid_argument);
  EXPECT_THROW(shortest_route(g, std::vector<Cell>{{0, 0}}, {2, 2}),
               std::invalid_argument);
  EXPECT_THROW(shortest_route(g, std::vector<Cell>{}, {0, 0}), std::invalid_argument);
  EXPECT_THROW(shortest_route(g, std::vector<Cell>{{9, 9}}, {0, 0}), std::out_of_range);
}

TEST(Search, CongestionCostAvoidsFullBoundaries) {
  Grid g(3, 2, 10.0, 1);
  // Fill the direct east boundary at row 0 between (0,0)-(1,0).
  g.add_usage({0, 0}, Direction::kEast, 1);
  const CellPath direct =
      dijkstra_route(g, std::vector<Cell>{{0, 0}}, {2, 0}, pitch_cost);
  const CellPath avoiding =
      dijkstra_route(g, std::vector<Cell>{{0, 0}}, {2, 0}, congestion_cost(10.0));
  EXPECT_EQ(direct.size(), 3u);    // straight across
  EXPECT_EQ(avoiding.size(), 5u);  // detours through row 1
  for (std::size_t i = 0; i + 1 < avoiding.size(); ++i) {
    const bool takes_full_boundary =
        avoiding[i] == Cell{0, 0} && avoiding[i + 1] == Cell{1, 0};
    EXPECT_FALSE(takes_full_boundary);
  }
}

TEST(Search, TargetInSourceSetIsTrivial) {
  const Grid g(5, 5, 10.0);
  const std::vector<Cell> sources{{1, 1}};
  const CellPath path = shortest_route(g, sources, {1, 1});
  ASSERT_EQ(path.size(), 1u);
  EXPECT_DOUBLE_EQ(wire_length(g, path), 0.0);
}

}  // namespace
}  // namespace ntr::grid
