#include <gtest/gtest.h>

#include <fstream>

#include "expt/net_generator.h"
#include "graph/routing_graph.h"
#include "viz/svg.h"

namespace ntr::viz {
namespace {

graph::RoutingGraph sample_routing() {
  graph::Net net{{{0, 0}, {1000, 500}, {1000, 1500}}};
  graph::RoutingGraph g(net);
  g.add_edge(0, 1);
  const graph::EdgeId e = g.add_edge(1, 2);
  g.split_edge(e, {1000, 1000});
  return g;
}

/// Crude XML sanity: every '<tag' has a matching close and the document
/// has a single svg root.
bool balanced_svg(const std::string& svg) {
  if (svg.rfind("<svg", 0) != 0 && svg.find("<svg") == std::string::npos) return false;
  std::size_t opens = 0, closes = 0, self = 0, pos = 0;
  while ((pos = svg.find('<', pos)) != std::string::npos) {
    if (svg.compare(pos, 2, "</") == 0) {
      ++closes;
    } else {
      const std::size_t end = svg.find('>', pos);
      if (end == std::string::npos) return false;
      if (svg[end - 1] == '/') {
        ++self;
      } else {
        ++opens;
      }
    }
    ++pos;
  }
  return opens == closes;
}

TEST(Svg, ContainsExpectedShapes) {
  const std::string svg = render_svg(sample_routing());
  // 1 source square + 1 steiner square, 2 sink circles.
  EXPECT_NE(svg.find("<rect"), std::string::npos);
  EXPECT_NE(svg.find("<circle"), std::string::npos);
  // Diagonal edge 0-1 becomes an L-shaped polyline in rectilinear mode.
  EXPECT_NE(svg.find("<polyline"), std::string::npos);
  // Vertical edges stay straight lines.
  EXPECT_NE(svg.find("<line"), std::string::npos);
  EXPECT_TRUE(balanced_svg(svg));
}

TEST(Svg, TitleAndLabels) {
  SvgOptions opts;
  opts.title = "fig-1 analogue";
  const std::string with_labels = render_svg(sample_routing(), opts);
  EXPECT_NE(with_labels.find("fig-1 analogue"), std::string::npos);
  EXPECT_NE(with_labels.find("<text"), std::string::npos);

  // Without a title the node labels are still drawn.
  const std::string untitled = render_svg(sample_routing());
  EXPECT_EQ(untitled.find("fig-1 analogue"), std::string::npos);
  EXPECT_NE(untitled.find(">2</text>"), std::string::npos);
}

TEST(Svg, HighlightedEdgesGetAccentColor) {
  graph::RoutingGraph g = sample_routing();
  const graph::EdgeId extra = g.add_edge(0, 2);
  SvgOptions opts;
  opts.highlight_edges = {extra};
  const std::string svg = render_svg(g, opts);
  EXPECT_NE(svg.find("#d62728"), std::string::npos);  // accent
  EXPECT_NE(svg.find("#1f77b4"), std::string::npos);  // base wires still present
}

TEST(Svg, EdgeWidthsThickenStrokes) {
  graph::RoutingGraph g = sample_routing();
  g.set_edge_width(0, 3.0);
  const std::string svg = render_svg(g);
  EXPECT_NE(svg.find("stroke-width=\"4.5\""), std::string::npos);
}

TEST(Svg, EmptyGraphRejected) {
  const graph::RoutingGraph empty;
  EXPECT_THROW(static_cast<void>(render_svg(empty)), std::invalid_argument);
}

TEST(Svg, WriteToFile) {
  const std::string path = ::testing::TempDir() + "/viz_test_out.svg";
  write_svg(path, sample_routing());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_NE(first_line.find("<svg"), std::string::npos);
}

TEST(Svg, ScalesToRequestedWidth) {
  expt::NetGenerator gen(2);
  const graph::RoutingGraph g = graph::mst_routing(gen.random_net(10));
  const std::string svg = render_svg(g);
  EXPECT_NE(svg.find("width=\"640\""), std::string::npos);
}

}  // namespace
}  // namespace ntr::viz
