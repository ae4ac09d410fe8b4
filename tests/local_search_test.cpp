#include <gtest/gtest.h>

#include "core/ldrg.h"
#include "delay/evaluator.h"
#include "expt/net_generator.h"
#include "route/local_search.h"

namespace ntr::route {
namespace {

const spice::Technology kTech = spice::kTable1Technology;

TEST(EdgeSwap, StaysATreeAndNeverWorsens) {
  expt::NetGenerator gen(41);
  const delay::GraphElmoreEvaluator eval(kTech);
  for (int trial = 0; trial < 5; ++trial) {
    const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(9));
    const EdgeSwapResult res = edge_swap_search(mst, eval);
    EXPECT_TRUE(res.graph.is_tree());
    EXPECT_EQ(res.graph.node_count(), mst.node_count());
    EXPECT_LE(res.final_delay, res.initial_delay * (1 + 1e-12));
    EXPECT_NEAR(res.final_delay, eval.max_delay(res.graph),
                res.final_delay * 1e-9);
  }
}

TEST(EdgeSwap, ImprovesAPoorStartingTree) {
  // A deliberately bad spanning tree: a path in pin-index order (random
  // geometry, so the path zig-zags). The search must find big wins.
  expt::NetGenerator gen(43);
  const graph::Net net = gen.random_net(8);
  graph::RoutingGraph path(net);
  for (graph::NodeId n = 0; n + 1 < path.node_count(); ++n) path.add_edge(n, n + 1);
  const delay::GraphElmoreEvaluator eval(kTech);
  const EdgeSwapResult res = edge_swap_search(path, eval);
  EXPECT_GT(res.swaps, 0u);
  EXPECT_LT(res.final_delay, res.initial_delay * 0.9);
}

TEST(EdgeSwap, SwapCapRespectedAndInputValidated) {
  expt::NetGenerator gen(47);
  const graph::Net net = gen.random_net(8);
  graph::RoutingGraph path(net);
  for (graph::NodeId n = 0; n + 1 < path.node_count(); ++n) path.add_edge(n, n + 1);
  const delay::GraphElmoreEvaluator eval(kTech);
  graph::RoutingGraph cyclic = path;
  cyclic.add_edge(0, cyclic.node_count() - 1);
  EXPECT_THROW(edge_swap_search(cyclic, eval), std::invalid_argument);
}

TEST(EdgeSwap, LdrgNeverWorsensAnOptimizedTree) {
  // Empirical finding of this reproduction (see EXPERIMENTS.md): after a
  // strong tree-space local search, extra cycles rarely improve further
  // -- the non-tree advantage shows against *constructive* trees
  // (MST/ERT), not against exhaustively swap-optimized ones. The
  // invariant that must always hold: stacking LDRG can never regress.
  expt::NetGenerator gen(53);
  const delay::GraphElmoreEvaluator eval(kTech);
  for (int trial = 0; trial < 6; ++trial) {
    const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(10));
    const EdgeSwapResult tree = edge_swap_search(mst, eval);
    const core::LdrgResult stacked = core::ldrg(tree.graph, eval);
    EXPECT_LE(stacked.final_objective, tree.final_delay * (1 + 1e-12));
  }
}

}  // namespace
}  // namespace ntr::route
