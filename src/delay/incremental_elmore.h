#pragma once

#include <vector>

#include "graph/routing_graph.h"
#include "linalg/dense_matrix.h"
#include "spice/technology.h"

namespace ntr::delay {

/// Incremental graph-Elmore engine for LDRG's inner question: "what are
/// the per-node Elmore delays of G + e_uv?" asked for every absent pair
/// (u,v) of the current routing.
///
/// What is cached, in circuit terms: the transfer-resistance matrix
/// R = G^{-1} of the grounded conductance system and the base moment
/// vector m1 = R C. On a tree, R(i,k) is exactly the resistance of the
/// shared source path of nodes i and k (plus the driver), and
/// m1_i = sum_k R(i,k) c_k is the classical "path resistance times
/// downstream capacitance" Elmore sum -- so this cache is the general-
/// graph form of the per-node subtree-capacitance / source-path-resistance
/// tables a tree-Elmore engine would keep.
///
/// A candidate wire (u,v) is a rank-1 conductance update
/// G' = G + g_e w w^T (w = e_u - e_v) plus two capacitance entries, so by
/// Sherman-Morrison the updated moments cost O(n) per candidate instead of
/// an O(n^3) re-factorization. When the update is too ill-conditioned for
/// the delta to be trustworthy (degenerate zero-length shorts driving
/// g_e * w^T R w beyond kDeltaConditionLimit), the engine transparently
/// falls back to an exact dense solve of the trial graph.
///
/// Cache invalidation: the cache is valid for exactly one graph revision
/// and keeps a pointer to it. Inserting an edge (or node) into the routing
/// invalidates it; build a new engine for the mutated graph, as LDRG does
/// each round through DelayEvaluator::make_candidate_scorer.
///
/// Thread safety: candidate_delays() is const and touches no shared
/// mutable state, so many threads may query one engine concurrently.
class IncrementalElmore {
 public:
  /// Builds the cache; O(n^3). Throws std::invalid_argument if g is not
  /// connected.
  IncrementalElmore(const graph::RoutingGraph& g, const spice::Technology& tech);

  /// Per-node Elmore delays of the attached graph + edge (u,v); O(n) on
  /// the delta path. (u,v) must be distinct in-range nodes that the graph
  /// does not already join; anything else throws std::invalid_argument.
  [[nodiscard]] std::vector<double> candidate_delays(graph::NodeId u,
                                                     graph::NodeId v) const;

  /// The same computation via a full assemble-and-solve of the trial
  /// graph, bypassing the cache. Exposed so tests (and the fallback path)
  /// can compare delta against ground truth; same precondition.
  [[nodiscard]] std::vector<double> candidate_delays_exact(graph::NodeId u,
                                                           graph::NodeId v) const;

  /// Delta updates whose g_e * w^T G^{-1} w exceed this are answered by
  /// the exact path: past ~1e12 the Sherman-Morrison subtraction cancels
  /// most mantissa bits and the 1e-12 agreement contract would be at risk.
  static constexpr double kDeltaConditionLimit = 1e12;

 private:
  const graph::RoutingGraph* g_;
  spice::Technology tech_;
  linalg::DenseMatrix inverse_;  ///< transfer resistances R = G^{-1}
  std::vector<double> cap_;      ///< diagonal C (wire halves + sink loads)
  std::vector<double> m1_;       ///< base moments R C
};

}  // namespace ntr::delay
