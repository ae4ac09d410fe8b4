#pragma once

#include <cstddef>
#include <vector>

#include "delay/evaluator.h"
#include "graph/routing_graph.h"

namespace ntr::route {

struct EdgeSwapOptions {
  double min_relative_improvement = 1e-9;
};

struct EdgeSwapResult {
  graph::RoutingGraph graph;
  double initial_delay = 0.0;
  double final_delay = 0.0;
  std::size_t swaps = 0;
};

/// Steepest-descent 1-exchange local search over spanning TREES: starting
/// from any spanning tree, repeatedly remove one tree edge and reconnect
/// the two components with the non-tree pin pair that minimizes the delay
/// objective, until no exchange improves it. The classical iterative-
/// improvement baseline sitting between one-shot constructions (MST/ERT)
/// and the paper's non-tree LDRG: it explores TREE topology space, so
/// comparing it against LDRG isolates how much of LDRG's win comes from
/// cycles rather than from topology search per se
/// (bench/ablation_tree_vs_graph).
EdgeSwapResult edge_swap_search(const graph::RoutingGraph& initial_tree,
                                const delay::DelayEvaluator& evaluator,
                                const EdgeSwapOptions& options = {});

}  // namespace ntr::route
