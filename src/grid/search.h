#pragma once

#include <functional>
#include <span>
#include <vector>

#include "grid/grid.h"

namespace ntr::grid {

/// Cost of stepping across one cell boundary. The default charges the
/// pitch (pure shortest path); congestion-aware routing adds a penalty on
/// boundaries at or over capacity.
using StepCost = std::function<double(const Grid&, Cell from, Direction d)>;

/// Unit-distance step cost (the grid pitch).
double pitch_cost(const Grid& grid, Cell from, Direction d);

/// Congestion-aware step cost: pitch * (1 + penalty * max(0, usage+1 -
/// capacity)) -- taking a boundary beyond its capacity gets linearly more
/// expensive, which is what lets rip-up-and-reroute converge.
StepCost congestion_cost(double penalty);

/// A path as a cell sequence (front = start, back = goal); empty when the
/// goal is unreachable.
using CellPath = std::vector<Cell>;

/// Dijkstra from `sources` to `target` under an arbitrary step cost
/// (pitch_cost gives plain shortest paths). With several sources the path
/// starts at whichever source is cheapest to reach the target from -- the
/// multi-source form used to attach a pin to an already-routed subtree.
/// Blocked cells are never entered (but a blocked source/target is an
/// error).
CellPath dijkstra_route(const Grid& grid, std::span<const Cell> sources, Cell target,
                        const StepCost& cost);

}  // namespace ntr::grid
