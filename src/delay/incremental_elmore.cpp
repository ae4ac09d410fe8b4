#include "delay/incremental_elmore.h"

#include <cmath>
#include <stdexcept>

#include "delay/moments.h"
#include "geom/point.h"
#include "linalg/vector_ops.h"

namespace ntr::delay {

namespace {

/// A candidate is a new wire between two distinct nodes of `g`.
void check_candidate(const graph::RoutingGraph& g, graph::NodeId u, graph::NodeId v) {
  if (u >= g.node_count() || v >= g.node_count() || u == v)
    throw std::invalid_argument("candidate_delays: invalid node pair");
  if (g.has_edge(u, v))
    throw std::invalid_argument("candidate_delays: edge already present");
}

}  // namespace

IncrementalElmore::IncrementalElmore(const graph::RoutingGraph& g,
                                     const spice::Technology& tech)
    : g_(&g), tech_(tech) {
  const GroundedSystem sys = assemble_grounded_system(g, tech_);
  const std::size_t n = g.node_count();
  const linalg::CholeskyFactorization chol(sys.conductance);

  // Explicit transfer-resistance matrix: n back-substitutions. This single
  // O(n^3) setup is amortized over the O(n^2) candidate queries of one
  // LDRG round.
  inverse_ = linalg::DenseMatrix(n, n);
  std::vector<double> unit(n, 0.0);
  for (std::size_t col = 0; col < n; ++col) {
    unit[col] = 1.0;
    const linalg::Vector x = chol.solve(unit);
    unit[col] = 0.0;
    for (std::size_t row = 0; row < n; ++row) inverse_(row, col) = x[row];
  }
  cap_ = sys.capacitance;
  m1_ = inverse_.multiply(cap_);
}

std::vector<double> IncrementalElmore::candidate_delays(graph::NodeId u,
                                                        graph::NodeId v) const {
  check_candidate(*g_, u, v);
  const std::size_t n = m1_.size();

  const double length = geom::manhattan_distance(g_->node(u).pos, g_->node(v).pos);
  const double g_e = wire_conductance(length, 1.0, tech_);
  const double c_half = tech_.wire_capacitance(length, 1.0) / 2.0;

  // y = G^{-1} (e_u - e_v), read off the symmetric cached inverse. The
  // Sherman-Morrison denominator 1 + g_e * w^T G^{-1} w is >= 1 for an SPD
  // system, but a degenerate short (g_e ~ 1e6 S) can still push the update
  // into cancellation; those queries take the exact path.
  const double y_u = inverse_(u, u) - inverse_(u, v);
  const double y_v = inverse_(v, u) - inverse_(v, v);
  const double spread = g_e * (y_u - y_v);
  if (!std::isfinite(spread) || spread > kDeltaConditionLimit)
    return candidate_delays_exact(u, v);

  //   m1' = X c' - g_e * y * (y . c') / (1 + g_e * (y_u - y_v))
  // with X = G^{-1} and X c' = m1 + c_half * (X e_u + X e_v).
  std::vector<double> result(n);
  double y_dot_cprime = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double y_i = inverse_(i, u) - inverse_(i, v);
    result[i] = m1_[i] + c_half * (inverse_(i, u) + inverse_(i, v));
    const double cprime_i = cap_[i] + (i == u || i == v ? c_half : 0.0);
    y_dot_cprime += y_i * cprime_i;
  }
  const double scale = g_e * y_dot_cprime / (1.0 + spread);
  for (std::size_t i = 0; i < n; ++i)
    result[i] -= scale * (inverse_(i, u) - inverse_(i, v));
  return result;
}

std::vector<double> IncrementalElmore::candidate_delays_exact(
    graph::NodeId u, graph::NodeId v) const {
  check_candidate(*g_, u, v);
  graph::RoutingGraph trial = *g_;
  trial.add_edge(u, v);
  return graph_elmore_delays(trial, tech_);
}

}  // namespace ntr::delay
