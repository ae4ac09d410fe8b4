#include <gtest/gtest.h>

#include "core/exhaustive.h"
#include "core/ldrg.h"
#include "delay/evaluator.h"
#include "expt/net_generator.h"

namespace ntr::core {
namespace {

const spice::Technology kTech = spice::kTable1Technology;

TEST(ExhaustiveOrg, NeverWorseThanInitial) {
  expt::NetGenerator gen(61);
  const delay::GraphElmoreEvaluator eval(kTech);
  const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(7));
  const ExhaustiveOrgResult res = exhaustive_org_augmentation(mst, eval);
  EXPECT_LE(res.objective, eval.max_delay(mst) * (1 + 1e-12));
  EXPECT_GE(res.evaluated, 2u);
}

TEST(ExhaustiveOrg, DominatesGreedyLdrgWithSameBudget) {
  // The brute-force k-edge optimum can never lose to greedy LDRG capped at
  // the same k -- the defining relationship between the two searches.
  expt::NetGenerator gen(67);
  const delay::GraphElmoreEvaluator eval(kTech);
  for (int trial = 0; trial < 5; ++trial) {
    const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(7));
    LdrgOptions greedy_opts;
    greedy_opts.max_added_edges = 2;
    const LdrgResult greedy = ldrg(mst, eval, greedy_opts);
    ExhaustiveOrgOptions opts;
    opts.max_extra_edges = 2;
    const ExhaustiveOrgResult optimal = exhaustive_org_augmentation(mst, eval, opts);
    EXPECT_LE(optimal.objective, greedy.final_objective * (1 + 1e-9));
  }
}

TEST(ExhaustiveOrg, SingleEdgeMatchesLdrgSingleEdge) {
  // With a budget of ONE edge, greedy and exhaustive search the same space
  // and must agree exactly.
  expt::NetGenerator gen(71);
  const delay::GraphElmoreEvaluator eval(kTech);
  for (int trial = 0; trial < 5; ++trial) {
    const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(8));
    LdrgOptions greedy_opts;
    greedy_opts.max_added_edges = 1;
    const LdrgResult greedy = ldrg(mst, eval, greedy_opts);
    ExhaustiveOrgOptions opts;
    opts.max_extra_edges = 1;
    const ExhaustiveOrgResult optimal = exhaustive_org_augmentation(mst, eval, opts);
    EXPECT_NEAR(optimal.objective, greedy.final_objective,
                greedy.final_objective * 1e-9);
  }
}

TEST(ExhaustiveOrg, EvaluationCountIsExact) {
  // 4 nodes, MST has 3 edges, so 3 absent pairs: 1 base + 3 singles +
  // C(3,2) = 3 pairs -> 7 evaluations at k=2.
  graph::Net net{{{0, 0}, {1000, 0}, {2000, 0}, {3000, 0}}};
  const graph::RoutingGraph mst = graph::mst_routing(net);
  const delay::GraphElmoreEvaluator eval(kTech);
  ExhaustiveOrgOptions opts;
  opts.max_extra_edges = 2;
  const ExhaustiveOrgResult res = exhaustive_org_augmentation(mst, eval, opts);
  EXPECT_EQ(res.evaluated, 7u);
}

TEST(ExhaustiveOrg, RespectsCriticality) {
  expt::NetGenerator gen(73);
  const delay::GraphElmoreEvaluator eval(kTech);
  const graph::RoutingGraph mst = graph::mst_routing(gen.random_net(6));
  ExhaustiveOrgOptions opts;
  opts.max_extra_edges = 1;
  opts.criticality.assign(mst.sinks().size(), 1.0);
  const ExhaustiveOrgResult res = exhaustive_org_augmentation(mst, eval, opts);
  EXPECT_LE(res.objective,
            eval.objective(mst, opts.criticality) * (1 + 1e-12));
}

TEST(ExhaustiveOrg, RejectsDisconnectedInput) {
  graph::Net net{{{0, 0}, {100, 0}}};
  const graph::RoutingGraph g(net);
  const delay::GraphElmoreEvaluator eval(kTech);
  EXPECT_THROW(exhaustive_org_augmentation(g, eval), std::invalid_argument);
}

}  // namespace
}  // namespace ntr::core
