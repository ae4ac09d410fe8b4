#pragma once

#include <span>
#include <vector>

#include "graph/net.h"
#include "grid/grid.h"
#include "grid/net_router.h"

namespace ntr::grid {

struct GlobalRouteResult {
  std::vector<MazeNetRouting> nets;  ///< indexed like the input nets
  std::size_t overflow = 0;          ///< remaining boundary overflow
  unsigned max_usage = 0;
  double total_wirelength_um = 0.0;
  unsigned passes = 0;  ///< rip-up passes actually run
};

/// Congestion-aware sequential global router over the GCell grid:
/// (1) route nets shortest-first under the congestion cost, committing
/// boundary usage; (2) while overflow remains, for up to 4 passes, rip up
/// every net that crosses an over-capacity boundary and reroute it under
/// a stiffer penalty. This is the multi-net substrate in which single-net
/// constructions (MST/ERT/LDRG-augmented) live in a real flow -- the
/// "global routing" context of the paper's references [8][10][17].
///
/// Usage state is committed into `grid`; callers can inspect it after the
/// call (and must pass a fresh grid for a fresh run).
GlobalRouteResult route_nets(Grid& grid, std::span<const graph::Net> nets);

}  // namespace ntr::grid
