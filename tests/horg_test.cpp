#include <gtest/gtest.h>

#include "core/horg.h"
#include "core/ldrg.h"
#include "core/wire_sizing.h"
#include "delay/evaluator.h"
#include "expt/net_generator.h"

namespace ntr::core {
namespace {

const spice::Technology kTech = spice::kTable1Technology;

TEST(Horg, NeverWorsensAndMovesAreMonotone) {
  expt::NetGenerator gen(91);
  const delay::GraphElmoreEvaluator eval(kTech);
  for (int trial = 0; trial < 5; ++trial) {
    const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(10));
    const HorgResult res = horg_greedy(mst, eval);
    EXPECT_LE(res.final_objective, res.initial_objective * (1 + 1e-12));
    for (std::size_t i = 0; i < res.steps.size(); ++i) {
      EXPECT_LT(res.steps[i].objective_after, res.steps[i].objective_before);
      if (i > 0) {
        EXPECT_LE(res.steps[i].objective_after, res.steps[i - 1].objective_after);
      }
    }
  }
}

TEST(Horg, AtLeastMatchesPureLdrgAndPureSizing) {
  // HORG's move set contains both pure strategies' moves, and greedy
  // selection per area could in principle diverge -- but on these nets it
  // must at least match the better of the two specialists within a small
  // tolerance.
  expt::NetGenerator gen(93);
  const delay::GraphElmoreEvaluator eval(kTech);
  for (int trial = 0; trial < 4; ++trial) {
    const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(10));
    const double horg = horg_greedy(mst, eval).final_objective;
    const double pure_ldrg = ldrg(mst, eval).final_objective;
    const double pure_sizing = greedy_wire_sizing(mst, eval).final_objective;
    EXPECT_LE(horg, std::min(pure_ldrg, pure_sizing) * 1.02);
  }
}

TEST(Horg, SelectsTheMoveKindEachShapeWants) {
  const delay::GraphElmoreEvaluator eval(kTech);

  // Hub shape: a short feed in front of a heavy fan-out wants WIDENING
  // (same construction as the wire-sizing tests).
  graph::Net hub;
  hub.pins.push_back({0, 0});
  hub.pins.push_back({300, 0});
  for (int i = 0; i < 6; ++i) hub.pins.push_back({5300.0, 900.0 * i});
  graph::RoutingGraph hub_graph(hub);
  hub_graph.add_edge(0, 1);
  for (graph::NodeId s = 2; s < hub_graph.node_count(); ++s) hub_graph.add_edge(1, s);
  const HorgResult hub_res = horg_greedy(hub_graph, eval);
  bool hub_widened = false;
  for (const HorgStep& s : hub_res.steps)
    hub_widened |= s.kind == HorgStep::Kind::kWidenEdge;
  EXPECT_TRUE(hub_widened);

  // Horseshoe shape: the far end loops back near the source and wants an
  // ADDED EDGE.
  graph::Net loop{{{0, 0},
                   {3000, 0},
                   {6000, 0},
                   {6000, 3000},
                   {6000, 6000},
                   {3000, 6000},
                   {0, 6000}}};
  const HorgResult loop_res = horg_greedy(graph::mst_routing(loop), eval);
  bool loop_added = false;
  for (const HorgStep& s : loop_res.steps)
    loop_added |= s.kind == HorgStep::Kind::kAddEdge;
  EXPECT_TRUE(loop_added);
}

TEST(Horg, AreaBudgetRespected) {
  expt::NetGenerator gen(97);
  const delay::GraphElmoreEvaluator eval(kTech);
  const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(10));
  HorgOptions opts;
  opts.max_area_ratio = 1.15;
  const HorgResult res = horg_greedy(mst, eval, opts);
  EXPECT_LE(res.final_area, res.initial_area * 1.15 * (1 + 1e-12));
}

TEST(Horg, MoveCapAndValidation) {
  expt::NetGenerator gen(99);
  const delay::GraphElmoreEvaluator eval(kTech);
  const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(8));
  HorgOptions opts;
  opts.widths.clear();
  EXPECT_THROW(horg_greedy(mst, eval, opts), std::invalid_argument);

  const graph::RoutingGraph disconnected(
      graph::Net{{{0, 0}, {100, 0}, {200, 0}}});
  EXPECT_THROW(horg_greedy(disconnected, eval), std::invalid_argument);
}

TEST(Horg, CriticalityWeighted) {
  expt::NetGenerator gen(101);
  const delay::GraphElmoreEvaluator eval(kTech);
  const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(8));
  HorgOptions opts;
  opts.criticality.assign(mst.sinks().size(), 1.0);
  const HorgResult res = horg_greedy(mst, eval, opts);
  EXPECT_LE(eval.objective(res.graph, opts.criticality),
            eval.objective(mst, opts.criticality) * (1 + 1e-12));
}

}  // namespace
}  // namespace ntr::core
