// The candidate screen of screened LDRG (LdrgOptions::screen): graph
// Elmore's Sherman-Morrison delta scorer must agree with a full solve of
// every trial graph, on trees and on bases that already have cycles.

#include <gtest/gtest.h>

#include <memory>

#include "delay/evaluator.h"
#include "expt/net_generator.h"
#include "graph/routing_graph.h"

namespace ntr::delay {
namespace {

const spice::Technology kTech = spice::kTable1Technology;

class ScreenerTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScreenerTest, MatchesFullSolveForEveryCandidate) {
  expt::NetGenerator gen(9 + GetParam());
  const graph::Net net = gen.random_net(GetParam());
  const graph::RoutingGraph mst = graph::mst_routing(net);
  const GraphElmoreEvaluator eval(kTech);
  const std::unique_ptr<CandidateScorer> screen = eval.make_candidate_scorer(mst);
  ASSERT_NE(screen, nullptr);

  for (graph::NodeId u = 0; u < mst.node_count(); ++u) {
    for (graph::NodeId v = u + 1; v < mst.node_count(); ++v) {
      if (mst.has_edge(u, v)) continue;
      graph::RoutingGraph with_edge = mst;
      with_edge.add_edge(u, v);
      const std::vector<double> full = eval.sink_delays(with_edge);
      const std::vector<double> screened = screen->candidate_sink_delays(u, v);
      ASSERT_EQ(full.size(), screened.size());
      for (std::size_t i = 0; i < full.size(); ++i) {
        EXPECT_NEAR(screened[i], full[i], full[i] * 1e-6 + 1e-18)
            << "edge (" << u << "," << v << ") sink " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScreenerTest, ::testing::Values<std::size_t>(5, 8, 12));

TEST(Screener, WorksOnNonTreeBase) {
  expt::NetGenerator gen(55);
  graph::RoutingGraph g = graph::mst_routing(gen.random_net(9));
  g.add_edge(0, 5);  // base already has a cycle
  const GraphElmoreEvaluator eval(kTech);
  const std::unique_ptr<CandidateScorer> screen = eval.make_candidate_scorer(g);
  graph::RoutingGraph with_edge = g;
  with_edge.add_edge(2, 7);
  const std::vector<double> full = eval.sink_delays(with_edge);
  const std::vector<double> screened = screen->candidate_sink_delays(2, 7);
  ASSERT_EQ(full.size(), screened.size());
  for (std::size_t i = 0; i < full.size(); ++i)
    EXPECT_NEAR(screened[i], full[i], full[i] * 1e-6 + 1e-18);
}

TEST(Screener, RejectsInvalidPairs) {
  expt::NetGenerator gen(5);
  const graph::RoutingGraph g = graph::mst_routing(gen.random_net(5));
  const std::unique_ptr<CandidateScorer> screen =
      GraphElmoreEvaluator(kTech).make_candidate_scorer(g);
  EXPECT_THROW(static_cast<void>(screen->candidate_sink_delays(1, 1)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(screen->candidate_sink_delays(0, 99)),
               std::invalid_argument);
}

}  // namespace
}  // namespace ntr::delay
