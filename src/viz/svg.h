#pragma once

#include <string>
#include <vector>

#include "graph/routing_graph.h"

namespace ntr::viz {

struct SvgOptions {
  std::string title;
  /// Edges drawn in the accent color (e.g. the wires LDRG added), by id.
  std::vector<graph::EdgeId> highlight_edges;
};

/// Renders a routing as a standalone SVG document, 640 px wide with the
/// height following the aspect ratio: source as a filled square, sinks as
/// circles, Steiner points as small squares (matching the paper's figure
/// conventions), each labelled with its node id, and wires as L-shaped
/// (horizontal-then-vertical) rectilinear routes, as the paper's figures
/// draw them. The figure benches write these next to their console output
/// so the paper's figures can be compared visually.
std::string render_svg(const graph::RoutingGraph& g, const SvgOptions& options = {});

/// Convenience: render and write to `path`. Throws std::runtime_error on
/// I/O failure.
void write_svg(const std::string& path, const graph::RoutingGraph& g,
               const SvgOptions& options = {});

}  // namespace ntr::viz
