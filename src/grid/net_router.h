#pragma once

#include <vector>

#include "graph/net.h"
#include "graph/routing_graph.h"
#include "grid/grid.h"
#include "grid/search.h"

namespace ntr::grid {

/// One net's maze routing: the grid cell of every pin plus the cell path
/// of each connection (one path per sink, attaching it to the
/// already-routed subtree -- sequential maze routing in the style of
/// Lee-router based global routers).
struct MazeNetRouting {
  std::vector<Cell> pin_cells;  ///< indexed like net.pins
  std::vector<CellPath> paths;  ///< k paths for k sinks, in routing order
};

/// Routes a net on the grid: snap pins to cells, then connect each sink
/// (nearest first) to the routed set with a Dijkstra wavefront under
/// `cost`. Throws std::invalid_argument when two pins snap to the same
/// cell (grid too coarse) or a pin lands on an obstacle, and
/// std::runtime_error when some pin is unreachable.
MazeNetRouting route_net(const Grid& grid, const graph::Net& net,
                         const StepCost& cost = pitch_cost);

/// Adds (delta=+1) or removes (delta=-1) this routing's wires from the
/// grid's boundary usage -- the bookkeeping behind congestion-aware
/// multi-net routing and rip-up-and-reroute.
void commit_usage(Grid& grid, const MazeNetRouting& routing, int delta);

/// True if any step of the routing crosses a boundary above capacity.
bool has_overflow(const Grid& grid, const MazeNetRouting& routing);

/// Total routed wirelength (sum of path lengths; shared cells between
/// paths of the same net are not double-counted).
double routed_wirelength(const Grid& grid, const MazeNetRouting& routing);

/// Converts the maze routing into an electrical RoutingGraph: one node
/// per used grid cell (pins keep their source/sink roles, bends and
/// junctions become Steiner nodes), then collinear degree-2 Steiner
/// chains are contracted away. The result plugs into every delay
/// evaluator and the LDRG family like any other routing.
graph::RoutingGraph to_routing_graph(const Grid& grid, const graph::Net& net,
                                     const MazeNetRouting& routing);

}  // namespace ntr::grid
