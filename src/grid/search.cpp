#include "grid/search.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

namespace ntr::grid {

double pitch_cost(const Grid& grid, Cell /*from*/, Direction /*d*/) {
  return grid.pitch();
}

StepCost congestion_cost(double penalty) {
  return [penalty](const Grid& grid, Cell from, Direction d) {
    const unsigned usage_after = grid.usage(from, d) + 1;
    const double over =
        usage_after > grid.capacity()
            ? static_cast<double>(usage_after - grid.capacity())
            : 0.0;
    return grid.pitch() * (1.0 + penalty * over);
  };
}

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

void check_endpoints(const Grid& grid, std::span<const Cell> sources, Cell target) {
  if (sources.empty()) throw std::invalid_argument("route: no source cells");
  for (const Cell s : sources) {
    if (!grid.in_bounds(s)) throw std::out_of_range("route: source out of bounds");
    if (grid.blocked(s)) throw std::invalid_argument("route: source cell blocked");
  }
  if (!grid.in_bounds(target)) throw std::out_of_range("route: target out of bounds");
  if (grid.blocked(target)) throw std::invalid_argument("route: target cell blocked");
}

CellPath backtrack(const Grid& grid, const std::vector<std::size_t>& parent,
                   Cell target) {
  CellPath path;
  for (std::size_t at = grid.index(target); at != kNone; at = parent[at])
    path.push_back(grid.cell_at(at));
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace

CellPath dijkstra_route(const Grid& grid, std::span<const Cell> sources, Cell target,
                        const StepCost& cost) {
  check_endpoints(grid, sources, target);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(grid.cell_count(), kInf);
  std::vector<std::size_t> parent(grid.cell_count(), kNone);
  using Entry = std::pair<double, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (const Cell s : sources) {
    dist[grid.index(s)] = 0.0;
    heap.emplace(0.0, grid.index(s));
  }
  while (!heap.empty()) {
    const auto [d_u, u] = heap.top();
    heap.pop();
    if (d_u > dist[u]) continue;
    const Cell c = grid.cell_at(u);
    if (c == target) return backtrack(grid, parent, target);
    for (const Direction d : kDirections) {
      Cell n;
      if (!grid.neighbor(c, d, n) || grid.blocked(n)) continue;
      const double nd = d_u + cost(grid, c, d);
      if (nd < dist[grid.index(n)]) {
        dist[grid.index(n)] = nd;
        parent[grid.index(n)] = u;
        heap.emplace(nd, grid.index(n));
      }
    }
  }
  return {};
}

}  // namespace ntr::grid
