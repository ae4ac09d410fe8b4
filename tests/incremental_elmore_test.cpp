#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "delay/incremental_elmore.h"
#include "delay/moments.h"
#include "expt/net_generator.h"
#include "graph/routing_graph.h"

namespace ntr::delay {
namespace {

const spice::Technology kTech = spice::kTable1Technology;

/// Relative (to the largest base delay) agreement bound between the O(n)
/// delta path and a full recompute. The PR's contract: 1e-12.
constexpr double kTol = 1e-12;

double max_abs(const std::vector<double>& v) {
  double m = 0.0;
  for (const double x : v) m = std::max(m, std::abs(x));
  return m;
}

void expect_delays_close(const std::vector<double>& got,
                         const std::vector<double>& want, double scale,
                         const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(got[i], want[i], kTol * scale) << context << " node " << i;
}

// The PR's property test: on 200 random nets, the Sherman-Morrison delta
// for a random absent edge agrees with a from-scratch recompute of the
// trial graph to 1e-12 (relative).
TEST(IncrementalElmore, DeltaMatchesFullRecomputeOn200RandomNets) {
  std::mt19937_64 rng(19940101);
  for (int trial = 0; trial < 200; ++trial) {
    expt::NetGenerator gen(1000 + static_cast<std::uint64_t>(trial));
    // >= 4 pins so an absent pair always remains after the extra edge.
    const std::size_t pins = 4 + static_cast<std::size_t>(rng() % 13);
    graph::RoutingGraph g = graph::mst_routing(gen.random_net(pins));
    // Half the trials start from a non-tree (one extra edge already in).
    if (trial % 2 == 1 && !g.has_edge(0, g.node_count() - 1))
      g.add_edge(0, g.node_count() - 1);

    const IncrementalElmore engine(g, kTech);

    // A random absent pair.
    graph::NodeId u = 0, v = 0;
    do {
      u = static_cast<graph::NodeId>(rng() % g.node_count());
      v = static_cast<graph::NodeId>(rng() % g.node_count());
    } while (u == v || g.has_edge(u, v));

    const std::vector<double> delta = engine.candidate_delays(u, v);
    graph::RoutingGraph trial_graph = g;
    trial_graph.add_edge(u, v);
    const std::vector<double> full = graph_elmore_delays(trial_graph, kTech);
    expect_delays_close(delta, full, max_abs(full),
                        "trial " + std::to_string(trial));
  }
}

TEST(IncrementalElmore, ExactPathAgreesWithDeltaPath) {
  expt::NetGenerator gen(21);
  const graph::RoutingGraph g = graph::mst_routing(gen.random_net(15));
  const IncrementalElmore engine(g, kTech);
  const std::vector<double> delta = engine.candidate_delays(1, 5);
  const std::vector<double> exact = engine.candidate_delays_exact(1, 5);
  expect_delays_close(delta, exact, max_abs(exact), "exact-vs-delta");
}

TEST(IncrementalElmore, RejectsAnEdgeAlreadyPresent) {
  expt::NetGenerator gen(23);
  const graph::RoutingGraph g = graph::mst_routing(gen.random_net(8));
  const IncrementalElmore engine(g, kTech);
  const graph::GraphEdge& e = g.edge(0);
  EXPECT_THROW(static_cast<void>(engine.candidate_delays(e.u, e.v)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(engine.candidate_delays(e.v, e.u)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(engine.candidate_delays_exact(e.u, e.v)),
               std::invalid_argument);
}

TEST(IncrementalElmore, RejectsDisconnectedGraphs) {
  graph::RoutingGraph g;
  g.add_node({0, 0}, graph::NodeKind::kSource);
  g.add_node({100, 0}, graph::NodeKind::kSink);
  EXPECT_THROW(IncrementalElmore(g, kTech), std::invalid_argument);
}

}  // namespace
}  // namespace ntr::delay
