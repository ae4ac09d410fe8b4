#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "geom/bbox.h"
#include "geom/hanan.h"
#include "geom/point.h"

namespace ntr::geom {
namespace {

TEST(Point, ManhattanDistanceBasics) {
  EXPECT_DOUBLE_EQ(manhattan_distance({0, 0}, {3, 4}), 7.0);
  EXPECT_DOUBLE_EQ(manhattan_distance({-1, -2}, {1, 2}), 6.0);
  EXPECT_DOUBLE_EQ(manhattan_distance({5, 5}, {5, 5}), 0.0);
}

TEST(Point, ManhattanIsSymmetric) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> d(-100.0, 100.0);
  for (int i = 0; i < 200; ++i) {
    const Point a{d(rng), d(rng)}, b{d(rng), d(rng)};
    EXPECT_DOUBLE_EQ(manhattan_distance(a, b), manhattan_distance(b, a));
  }
}

TEST(Point, ManhattanTriangleInequality) {
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> d(-100.0, 100.0);
  for (int i = 0; i < 200; ++i) {
    const Point a{d(rng), d(rng)}, b{d(rng), d(rng)}, c{d(rng), d(rng)};
    EXPECT_LE(manhattan_distance(a, b),
              manhattan_distance(a, c) + manhattan_distance(c, b) + 1e-9);
  }
}

TEST(Point, ManhattanDominatesEuclideanAndChebyshev) {
  std::mt19937 rng(13);
  std::uniform_real_distribution<double> d(-50.0, 50.0);
  for (int i = 0; i < 100; ++i) {
    const Point a{d(rng), d(rng)}, b{d(rng), d(rng)};
    const double euclidean = std::hypot(a.x - b.x, a.y - b.y);
    const double chebyshev = std::max(std::abs(a.x - b.x), std::abs(a.y - b.y));
    EXPECT_GE(manhattan_distance(a, b) + 1e-12, euclidean);
    EXPECT_GE(euclidean + 1e-12, chebyshev);
  }
}

TEST(Point, WithinBoundingBoxSplitsDistanceExactly) {
  const Point a{0, 0}, b{10, 6};
  const Point inside{4, 3};
  ASSERT_TRUE(within_bounding_box(a, b, inside));
  EXPECT_DOUBLE_EQ(manhattan_distance(a, inside) + manhattan_distance(inside, b),
                   manhattan_distance(a, b));
  EXPECT_FALSE(within_bounding_box(a, b, Point{-1, 3}));
  EXPECT_FALSE(within_bounding_box(a, b, Point{4, 7}));
}

TEST(BBox, EmptyAndExpansion) {
  BBox box;
  EXPECT_TRUE(box.empty());
  EXPECT_DOUBLE_EQ(box.half_perimeter(), 0.0);
  box.expand({1, 2});
  EXPECT_FALSE(box.empty());
  EXPECT_DOUBLE_EQ(box.width(), 0.0);
  box.expand({4, -2});
  EXPECT_DOUBLE_EQ(box.width(), 3.0);
  EXPECT_DOUBLE_EQ(box.height(), 4.0);
  EXPECT_DOUBLE_EQ(box.half_perimeter(), 7.0);
  EXPECT_TRUE(box.contains({2, 0}));
  EXPECT_FALSE(box.contains({0, 0}));
}

TEST(Hanan, GridOfTwoDiagonalPins) {
  const std::vector<Point> pins{{0, 0}, {10, 10}};
  const std::vector<Point> grid = hanan_grid(pins);
  // 2x2 grid minus the two pins = the two off-diagonal corners.
  ASSERT_EQ(grid.size(), 2u);
  EXPECT_TRUE((grid[0] == Point{0, 10} && grid[1] == Point{10, 0}) ||
              (grid[0] == Point{10, 0} && grid[1] == Point{0, 10}));
}

TEST(Hanan, FullGridSizeIsProductOfUniqueCoords) {
  const std::vector<Point> pins{{0, 0}, {5, 7}, {5, 2}, {9, 7}};
  // unique x: {0,5,9}, unique y: {0,7,2} -> 9 grid points.
  EXPECT_EQ(hanan_grid_full(pins).size(), 9u);
  EXPECT_EQ(hanan_grid(pins).size(), 9u - pins.size() + 0u);
}

TEST(Hanan, CollinearPinsYieldNoCandidates) {
  const std::vector<Point> pins{{0, 0}, {5, 0}, {9, 0}};
  EXPECT_TRUE(hanan_grid(pins).empty());
}

}  // namespace
}  // namespace ntr::geom
