#include "grid/net_router.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "geom/point.h"

namespace ntr::grid {

namespace {

Direction step_direction(Cell a, Cell b) {
  if (b.col == a.col + 1 && b.row == a.row) return Direction::kEast;
  if (a.col == b.col + 1 && b.row == a.row) return Direction::kWest;
  if (b.row == a.row + 1 && b.col == a.col) return Direction::kNorth;
  if (a.row == b.row + 1 && b.col == a.col) return Direction::kSouth;
  throw std::logic_error("step_direction: cells are not adjacent");
}

/// Unique boundary ids crossed by a routing (per net, so shared segments
/// between a net's own paths count once).
std::unordered_set<std::size_t> crossed_boundaries(const Grid& grid,
                                                   const MazeNetRouting& routing) {
  std::unordered_set<std::size_t> ids;
  for (const CellPath& path : routing.paths) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      ids.insert(grid.boundary_id(path[i], step_direction(path[i], path[i + 1])));
    }
  }
  return ids;
}

/// Contracts collinear degree-2 Steiner chains (straight runs of grid
/// cells) into single edges, preserving lengths exactly, and drops the
/// isolated Steiner nodes left behind.
graph::RoutingGraph contract_collinear_steiner(graph::RoutingGraph g) {
  bool contracted = true;
  while (contracted) {
    contracted = false;
    for (graph::NodeId n = 0; n < g.node_count() && !contracted; ++n) {
      if (g.node(n).kind != graph::NodeKind::kSteiner || g.degree(n) != 2) continue;
      const auto incident = g.incident_edges(n);
      const graph::NodeId a = g.other_endpoint(incident[0], n);
      const graph::NodeId b = g.other_endpoint(incident[1], n);
      const geom::Point pa = g.node(a).pos, pn = g.node(n).pos, pb = g.node(b).pos;
      const bool collinear =
          (pa.x == pn.x && pn.x == pb.x) || (pa.y == pn.y && pn.y == pb.y);
      if (!collinear || a == b) continue;
      // Remove the higher edge id first so the lower one stays valid.
      const graph::EdgeId hi = std::max(incident[0], incident[1]);
      const graph::EdgeId lo = std::min(incident[0], incident[1]);
      g.remove_edge(hi);
      g.remove_edge(lo);
      g.add_edge(a, b);
      contracted = true;
    }
  }

  // Contraction leaves isolated Steiner nodes behind; rebuild compactly.
  graph::RoutingGraph compact;
  std::unordered_map<graph::NodeId, graph::NodeId> remap;
  for (graph::NodeId n = 0; n < g.node_count(); ++n) {
    const graph::GraphNode& node = g.node(n);
    if (node.kind == graph::NodeKind::kSteiner && g.degree(n) == 0) continue;
    remap[n] = compact.add_node(node.pos, node.kind);
  }
  for (const graph::GraphEdge& e : g.edges())
    compact.add_edge(remap.at(e.u), remap.at(e.v));
  return compact;
}

}  // namespace

MazeNetRouting route_net(const Grid& grid, const graph::Net& net,
                         const StepCost& cost) {
  net.validate();
  MazeNetRouting routing;
  routing.pin_cells.reserve(net.size());
  std::unordered_set<std::size_t> pin_cell_ids;
  for (const geom::Point& p : net.pins) {
    const Cell c = grid.snap(p);
    if (grid.blocked(c))
      throw std::invalid_argument("route_net: pin lands on a blocked cell");
    if (!pin_cell_ids.insert(grid.index(c)).second)
      throw std::invalid_argument(
          "route_net: two pins snap to the same grid cell (grid too coarse)");
    routing.pin_cells.push_back(c);
  }

  // Attach sinks nearest-first (cheap pins extend the subtree for the
  // farther ones, like the sequential Lee routers the paper's intro cites).
  std::vector<std::size_t> order;
  for (std::size_t i = 1; i < net.size(); ++i) order.push_back(i);
  const Cell source = routing.pin_cells[0];
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto dist = [&](std::size_t pin) {
      const Cell c = routing.pin_cells[pin];
      const auto dc = c.col > source.col ? c.col - source.col : source.col - c.col;
      const auto dr = c.row > source.row ? c.row - source.row : source.row - c.row;
      return dc + dr;
    };
    return dist(a) < dist(b);
  });

  std::vector<Cell> routed{source};
  std::unordered_set<std::size_t> routed_ids{grid.index(source)};
  for (const std::size_t pin : order) {
    CellPath path = dijkstra_route(grid, routed, routing.pin_cells[pin], cost);
    if (path.empty())
      throw std::runtime_error("route_net: pin unreachable (blocked off)");
    for (const Cell c : path) {
      if (routed_ids.insert(grid.index(c)).second) routed.push_back(c);
    }
    routing.paths.push_back(std::move(path));
  }
  return routing;
}

void commit_usage(Grid& grid, const MazeNetRouting& routing, int delta) {
  // Walk the paths, applying each boundary once per net (a net's own
  // paths may retrace shared trunk segments).
  std::unordered_set<std::size_t> seen;
  for (const CellPath& path : routing.paths) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const Direction d = step_direction(path[i], path[i + 1]);
      if (seen.insert(grid.boundary_id(path[i], d)).second)
        grid.add_usage(path[i], d, delta);
    }
  }
}

bool has_overflow(const Grid& grid, const MazeNetRouting& routing) {
  for (const CellPath& path : routing.paths) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const Direction d = step_direction(path[i], path[i + 1]);
      if (grid.usage(path[i], d) > grid.capacity()) return true;
    }
  }
  return false;
}

double routed_wirelength(const Grid& grid, const MazeNetRouting& routing) {
  return static_cast<double>(crossed_boundaries(grid, routing).size()) * grid.pitch();
}

graph::RoutingGraph to_routing_graph(const Grid& grid, const graph::Net& net,
                                     const MazeNetRouting& routing) {
  graph::RoutingGraph g;
  std::unordered_map<std::size_t, graph::NodeId> node_of;

  // Pins first, in net order, so node 0 is the source.
  for (std::size_t pin = 0; pin < routing.pin_cells.size(); ++pin) {
    const Cell c = routing.pin_cells[pin];
    node_of[grid.index(c)] = g.add_node(
        grid.center(c),
        pin == 0 ? graph::NodeKind::kSource : graph::NodeKind::kSink);
  }
  (void)net;

  const auto node_for = [&](Cell c) {
    auto [it, inserted] = node_of.try_emplace(grid.index(c), 0);
    if (inserted)
      it->second = g.add_node(grid.center(c), graph::NodeKind::kSteiner);
    return it->second;
  };
  for (const CellPath& path : routing.paths) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      g.add_edge(node_for(path[i]), node_for(path[i + 1]));
    }
  }

  return contract_collinear_steiner(std::move(g));
}

}  // namespace ntr::grid
