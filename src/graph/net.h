#pragma once

#include <cstddef>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "geom/point.h"

namespace ntr::graph {

/// A signal net N = {n_0, n_1, ..., n_k}: a fixed set of pins in the
/// Manhattan plane. By convention pins[0] is the source n_0 (where the
/// signal originates); all other pins are sinks.
struct Net {
  std::vector<geom::Point> pins;

  [[nodiscard]] std::size_t size() const { return pins.size(); }
  [[nodiscard]] std::size_t sink_count() const {
    return pins.empty() ? 0 : pins.size() - 1;
  }
  [[nodiscard]] const geom::Point& source() const { return pins.at(0); }

  /// Throws std::invalid_argument when the net cannot be routed:
  /// fewer than two pins, or duplicate pin locations (which would create
  /// zero-length edges and degenerate RC segments).
  void validate() const {
    if (pins.size() < 2)
      throw std::invalid_argument("Net requires a source and at least one sink");
    // Expected O(n). Point == counts 0.0 and -0.0 as equal, and so does
    // std::hash<double>; a NaN coordinate makes a pin equal to no pin.
    std::unordered_set<geom::Point> seen;
    seen.reserve(pins.size());
    for (const geom::Point& p : pins)
      if (!seen.insert(p).second)
        throw std::invalid_argument("Net contains duplicate pin locations");
  }
};

}  // namespace ntr::graph
