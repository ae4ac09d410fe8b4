#include <gtest/gtest.h>

#include "core/wire_sizing.h"
#include "delay/evaluator.h"
#include "graph/routing_graph.h"

namespace ntr::core {
namespace {

const spice::Technology kTech = spice::kTable1Technology;

/// A hub net with a heavy downstream subtree: the short source edge sees
/// almost all of the tree capacitance, so widening it must pay off.
graph::Net hub_net() {
  graph::Net net;
  net.pins.push_back({0, 0});      // source
  net.pins.push_back({300, 0});    // hub
  for (int i = 0; i < 6; ++i)
    net.pins.push_back({5300.0, 900.0 * i});  // heavy far fan-out
  return net;
}

graph::RoutingGraph hub_routing() {
  const graph::Net net = hub_net();
  graph::RoutingGraph g(net);
  g.add_edge(0, 1);
  for (graph::NodeId s = 2; s < g.node_count(); ++s) g.add_edge(1, s);
  return g;
}

TEST(WireSizing, WidensHeavyHubFeedAndImprovesDelay) {
  const delay::GraphElmoreEvaluator eval(kTech);
  const WireSizingResult res = greedy_wire_sizing(hub_routing(), eval);
  EXPECT_FALSE(res.steps.empty());
  EXPECT_LT(res.final_objective, res.initial_objective);
  EXPECT_GT(res.final_area, res.initial_area);
  // The source->hub edge should be among the widened ones.
  const graph::EdgeId feed = *res.graph.find_edge(0, 1);
  EXPECT_GT(res.graph.edge(feed).width, 1.0);
}

TEST(WireSizing, StepsImproveMonotonically) {
  const delay::GraphElmoreEvaluator eval(kTech);
  const WireSizingResult res = greedy_wire_sizing(hub_routing(), eval);
  for (const SizingStep& s : res.steps) {
    EXPECT_LT(s.objective_after, s.objective_before);
    EXPECT_GT(s.new_width, s.old_width);
  }
  for (std::size_t i = 1; i < res.steps.size(); ++i)
    EXPECT_LE(res.steps[i].objective_after, res.steps[i - 1].objective_after);
}

TEST(WireSizing, WidthsComeFromTheAllowedSet) {
  const delay::GraphElmoreEvaluator eval(kTech);
  WireSizingOptions opts;
  opts.widths = {1.0, 2.0, 4.0};
  const WireSizingResult res = greedy_wire_sizing(hub_routing(), eval, opts);
  for (const graph::GraphEdge& e : res.graph.edges()) {
    EXPECT_TRUE(e.width == 1.0 || e.width == 2.0 || e.width == 4.0)
        << "width " << e.width;
  }
}

TEST(WireSizing, AreaBudgetIsEnforced) {
  const delay::GraphElmoreEvaluator eval(kTech);
  WireSizingOptions opts;
  opts.max_area_ratio = 1.10;  // at most 10% more metal
  const WireSizingResult res = greedy_wire_sizing(hub_routing(), eval, opts);
  EXPECT_LE(res.final_area, res.initial_area * 1.10 * (1 + 1e-12));
}

TEST(WireSizing, UniformWidthNetGainsNothingWhenWireCapDominates) {
  // A plain 2-pin connection in this technology prefers minimum width:
  // wire cap dwarfs the sink load, so widening only adds capacitance.
  graph::Net net{{{0, 0}, {8000, 0}}};
  graph::RoutingGraph g(net);
  g.add_edge(0, 1);
  const delay::GraphElmoreEvaluator eval(kTech);
  const WireSizingResult res = greedy_wire_sizing(g, eval);
  EXPECT_TRUE(res.steps.empty());
  EXPECT_DOUBLE_EQ(res.final_objective, res.initial_objective);
}

TEST(WireSizing, ValidatesInputs) {
  const delay::GraphElmoreEvaluator eval(kTech);
  graph::Net net{{{0, 0}, {100, 0}, {200, 0}}};
  const graph::RoutingGraph disconnected(net);
  EXPECT_THROW(greedy_wire_sizing(disconnected, eval), std::invalid_argument);

  WireSizingOptions opts;
  opts.widths.clear();
  EXPECT_THROW(greedy_wire_sizing(hub_routing(), eval, opts), std::invalid_argument);
}

TEST(WireSizing, WorksOnNonTreeGraphs) {
  // HORG composition: size a graph that already has an extra LDRG-style edge.
  graph::RoutingGraph g = hub_routing();
  g.add_edge(0, 2);
  const delay::GraphElmoreEvaluator eval(kTech);
  const WireSizingResult res = greedy_wire_sizing(g, eval);
  EXPECT_LE(res.final_objective, res.initial_objective);
}

TEST(WireSizing, CriticalSinkWeightsArehonored) {
  const delay::GraphElmoreEvaluator eval(kTech);
  const graph::RoutingGraph g = hub_routing();
  WireSizingOptions opts;
  opts.criticality.assign(g.sinks().size(), 1.0);
  const WireSizingResult res = greedy_wire_sizing(g, eval, opts);
  EXPECT_LE(eval.objective(res.graph, opts.criticality),
            eval.objective(g, opts.criticality) * (1 + 1e-12));
}

}  // namespace
}  // namespace ntr::core
