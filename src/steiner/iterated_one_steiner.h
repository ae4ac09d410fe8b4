#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/point.h"
#include "graph/mst.h"
#include "graph/net.h"
#include "graph/routing_graph.h"

namespace ntr::steiner {

struct SteinerResult {
  /// Steiner points actually used, in insertion order.
  std::vector<geom::Point> steiner_points;
  /// Routing tree over net pins + Steiner points: node 0 is the source,
  /// nodes 1..k the sinks, then the Steiner nodes; edges form the MST of
  /// the augmented point set.
  graph::RoutingGraph graph;
};

/// Iterated 1-Steiner heuristic of Kahng & Robins (the algorithm the paper
/// names for step 1 of SLDRG, refs [2,3,13]):
/// repeatedly add the Hanan-grid candidate that maximizes the MST cost
/// reduction of the augmented point set, pruning Steiner points whose MST
/// degree drops to 2 or below, until no candidate yields a positive gain.
SteinerResult iterated_one_steiner(const graph::Net& net);

/// Batched 1-Steiner gain estimates over a fixed candidate set: for each
/// candidate, the MST cost of a point set minus the MST cost of that set
/// plus the candidate, exact in real arithmetic. A call builds a table of
/// the longest edge on every path of the MST (O(n^2) for n points), then
/// costs each candidate O(1) plus O(points past the pins), for its nearest
/// point in each of the 8 octants. iterated_one_steiner ranks the
/// candidates by these estimates and confirms with Prim only the few that
/// can win.
class OneSteinerGains {
 public:
  /// The pins lead every point set passed to operator(); their nearest one
  /// to each candidate in each octant is found once, here.
  OneSteinerGains(std::span<const geom::Point> pins, std::span<const geom::Point> candidates);

  /// Estimated gain of each candidate, in candidate order. `points` is the
  /// pins followed by any further points and `tree` an MST of `points`
  /// (graph::prim_mst). In floating point each estimate lies within
  /// kGainSlack times the cost of `tree` of the gain computed with two
  /// Prim MSTs.
  std::vector<double> operator()(std::span<const geom::Point> points,
                                 std::span<const graph::IndexEdge> tree) const;

 private:
  static constexpr std::uint32_t kNoPin = UINT32_MAX;
  std::vector<geom::Point> pins_;
  std::vector<geom::Point> candidates_;
  /// Per candidate and octant, the index of the nearest pin, or kNoPin
  /// where the octant holds none.
  std::vector<std::array<std::uint32_t, 8>> nearest_pin_;
};

/// Bound on |estimate - Prim gain| relative to the cost of the MST; the
/// rounding argument is at its use in iterated_one_steiner.cpp.
inline constexpr double kGainSlack = 1e-9;

/// Exact rectilinear Steiner minimal tree for TINY nets, by brute force
/// over all subsets of up to `max_steiner_points` Hanan-grid candidates
/// (Hanan's theorem makes this exhaustive for k <= n-2). Exponential --
/// a ground-truth oracle for testing the Iterated 1-Steiner heuristic,
/// not a router. Throws std::invalid_argument for nets above
/// `max_pins_guard` pins (cost blows up combinatorially).
struct ExactSteinerResult {
  std::vector<geom::Point> steiner_points;
  graph::RoutingGraph graph;
  std::size_t trees_evaluated = 0;
};

ExactSteinerResult exact_steiner_tree(const graph::Net& net,
                                      std::size_t max_steiner_points = 3,
                                      std::size_t max_pins_guard = 7);

}  // namespace ntr::steiner
