#include "grid/global_router.h"

#include <algorithm>
#include <numeric>

#include "geom/bbox.h"

namespace ntr::grid {

namespace {

/// Linear over-capacity penalty of the congestion-aware step cost.
constexpr double kCongestionPenalty = 4.0;
/// Rip-up-and-reroute passes after the initial routing.
constexpr unsigned kMaxRipupPasses = 4;
/// Penalty growth per pass (history-style pressure).
constexpr double kPenaltyGrowth = 2.0;

}  // namespace

GlobalRouteResult route_nets(Grid& grid, std::span<const graph::Net> nets) {
  GlobalRouteResult result;
  result.nets.resize(nets.size());

  // Short nets first: they have the least routing freedom per unit length
  // and leave the big nets to detour around the congestion they create.
  std::vector<std::size_t> order(nets.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return geom::BBox(nets[a].pins).half_perimeter() <
           geom::BBox(nets[b].pins).half_perimeter();
  });

  double penalty = kCongestionPenalty;
  for (const std::size_t i : order) {
    result.nets[i] = route_net(grid, nets[i], congestion_cost(penalty));
    commit_usage(grid, result.nets[i], +1);
  }

  // Rip-up and reroute: nets crossing over-capacity boundaries get a
  // second chance under a stiffer penalty.
  for (unsigned pass = 0; pass < kMaxRipupPasses; ++pass) {
    if (grid.total_overflow() == 0) break;
    result.passes = pass + 1;
    penalty *= kPenaltyGrowth;
    bool rerouted_any = false;
    for (const std::size_t i : order) {
      if (!has_overflow(grid, result.nets[i])) continue;
      commit_usage(grid, result.nets[i], -1);
      result.nets[i] = route_net(grid, nets[i], congestion_cost(penalty));
      commit_usage(grid, result.nets[i], +1);
      rerouted_any = true;
    }
    if (!rerouted_any) break;
  }

  result.overflow = grid.total_overflow();
  result.max_usage = grid.max_usage();
  for (const MazeNetRouting& r : result.nets)
    result.total_wirelength_um += routed_wirelength(grid, r);
  return result;
}

}  // namespace ntr::grid
