#include "viz/svg.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "geom/bbox.h"
#include "geom/point.h"

namespace ntr::viz {

namespace {

constexpr double kWidthPx = 640.0;
constexpr double kMarginPx = 28.0;

struct Mapper {
  double scale, offset_x, offset_y, height_px;
  [[nodiscard]] double x(double wx) const { return offset_x + wx * scale; }
  /// SVG y grows downward; flip so the layout reads like the plane.
  [[nodiscard]] double y(double wy) const { return height_px - (offset_y + wy * scale); }
};

}  // namespace

std::string render_svg(const graph::RoutingGraph& g, const SvgOptions& options) {
  geom::BBox box;
  for (const graph::GraphNode& n : g.nodes()) box.expand(n.pos);
  if (box.empty()) throw std::invalid_argument("render_svg: empty routing graph");

  const double usable = kWidthPx - 2.0 * kMarginPx;
  const double extent = std::max({box.width(), box.height(), 1.0});
  const double scale = usable / extent;
  const double height_px =
      std::max(box.height(), 1.0) * scale + 2.0 * kMarginPx +
      (options.title.empty() ? 0.0 : 22.0);
  const Mapper map{scale, kMarginPx - box.lo_x() * scale,
                   kMarginPx - box.lo_y() * scale, height_px};

  std::ostringstream svg;
  svg << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << kWidthPx
      << "\" height=\"" << height_px << "\" viewBox=\"0 0 " << kWidthPx << ' '
      << height_px << "\">\n";
  svg << "  <rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
  if (!options.title.empty()) {
    svg << "  <text x=\"" << kMarginPx << "\" y=\"18\" font-family=\"sans-serif\""
        << " font-size=\"14\">" << options.title << "</text>\n";
  }

  std::vector<bool> highlighted(g.edge_count(), false);
  for (const graph::EdgeId e : options.highlight_edges)
    if (e < highlighted.size()) highlighted[e] = true;

  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    const graph::GraphEdge& edge = g.edge(e);
    const geom::Point a = g.node(edge.u).pos;
    const geom::Point b = g.node(edge.v).pos;
    const char* color = highlighted[e] ? "#d62728" : "#1f77b4";
    const double stroke = 1.5 * edge.width + (highlighted[e] ? 0.5 : 0.0);
    if (a.x != b.x && a.y != b.y) {
      // L-route: horizontal first, then vertical.
      svg << "  <polyline fill=\"none\" stroke=\"" << color << "\" stroke-width=\""
          << stroke << "\" points=\"" << map.x(a.x) << ',' << map.y(a.y) << ' '
          << map.x(b.x) << ',' << map.y(a.y) << ' ' << map.x(b.x) << ',' << map.y(b.y)
          << "\"/>\n";
    } else {
      svg << "  <line stroke=\"" << color << "\" stroke-width=\"" << stroke
          << "\" x1=\"" << map.x(a.x) << "\" y1=\"" << map.y(a.y) << "\" x2=\""
          << map.x(b.x) << "\" y2=\"" << map.y(b.y) << "\"/>\n";
    }
  }

  for (graph::NodeId n = 0; n < g.node_count(); ++n) {
    const graph::GraphNode& node = g.node(n);
    const double cx = map.x(node.pos.x);
    const double cy = map.y(node.pos.y);
    switch (node.kind) {
      case graph::NodeKind::kSource:
        svg << "  <rect x=\"" << cx - 6 << "\" y=\"" << cy - 6
            << "\" width=\"12\" height=\"12\" fill=\"black\"/>\n";
        break;
      case graph::NodeKind::kSink:
        svg << "  <circle cx=\"" << cx << "\" cy=\"" << cy
            << "\" r=\"5\" fill=\"white\" stroke=\"black\" stroke-width=\"1.5\"/>\n";
        break;
      case graph::NodeKind::kSteiner:
        svg << "  <rect x=\"" << cx - 3.5 << "\" y=\"" << cy - 3.5
            << "\" width=\"7\" height=\"7\" fill=\"#555\"/>\n";
        break;
    }
    svg << "  <text x=\"" << cx + 8 << "\" y=\"" << cy - 8
        << "\" font-family=\"sans-serif\" font-size=\"11\">" << n << "</text>\n";
  }
  svg << "</svg>\n";
  return svg.str();
}

void write_svg(const std::string& path, const graph::RoutingGraph& g,
               const SvgOptions& options) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_svg: cannot open " + path);
  out << render_svg(g, options);
  if (!out) throw std::runtime_error("write_svg: write failed for " + path);
}

}  // namespace ntr::viz
