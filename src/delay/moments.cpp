#include "delay/moments.h"

#include <cmath>
#include <stdexcept>

#include "linalg/sparse_cholesky.h"

namespace ntr::delay {

double wire_conductance(double length_um, double width,
                        const spice::Technology& tech) {
  const double r = length_um > 0.0 ? tech.wire_resistance(length_um, width)
                                   : spice::kShortResistanceOhm;
  return 1.0 / r;
}

namespace {

void require_connected(const graph::RoutingGraph& g) {
  if (!g.is_connected())
    throw std::invalid_argument("moment analysis: routing graph must be connected");
}

/// Stamps the grounded conductance matrix through add_entry(row, col, value):
/// each wire's conductance, then the Norton-transformed driver (with the
/// ideal step shorted, the driver resistance grounds the source node).
template <class AddEntry>
void stamp_conductance(const graph::RoutingGraph& g, const spice::Technology& tech,
                       AddEntry add_entry) {
  for (const graph::GraphEdge& e : g.edges()) {
    const double conductance = wire_conductance(e.length, e.width, tech);
    add_entry(e.u, e.u, conductance);
    add_entry(e.v, e.v, conductance);
    add_entry(e.u, e.v, -conductance);
    add_entry(e.v, e.u, -conductance);
  }
  add_entry(g.source(), g.source(), 1.0 / tech.driver_resistance_ohm);
}

/// Diagonal capacitance vector: half of each wire cap at either endpoint,
/// plus the sink loads.
std::vector<double> grounded_capacitance(const graph::RoutingGraph& g,
                                         const spice::Technology& tech) {
  std::vector<double> cap(g.node_count(), 0.0);
  for (const graph::GraphEdge& e : g.edges()) {
    const double c_half = tech.wire_capacitance(e.length, e.width) / 2.0;
    cap[e.u] += c_half;
    cap[e.v] += c_half;
  }
  for (graph::NodeId u = 0; u < g.node_count(); ++u)
    if (g.node(u).kind == graph::NodeKind::kSink)
      cap[u] += tech.sink_capacitance_f;
  return cap;
}

linalg::DenseMatrix dense_conductance(const graph::RoutingGraph& g,
                                      const spice::Technology& tech) {
  const std::size_t n = g.node_count();
  linalg::DenseMatrix conductance(n, n);
  stamp_conductance(g, tech, [&](std::size_t r, std::size_t c, double v) {
    conductance(r, c) += v;
  });
  return conductance;
}

linalg::CsrMatrix sparse_conductance(const graph::RoutingGraph& g,
                                     const spice::Technology& tech) {
  linalg::TripletBuilder builder(g.node_count(), g.node_count());
  stamp_conductance(g, tech, [&](std::size_t r, std::size_t c, double v) {
    builder.add(r, c, v);
  });
  return linalg::CsrMatrix(builder);
}

/// G m1 = C and, when asked, G m2 = C m1 over one factorization of G:
/// dense Cholesky up to kDenseMomentNodeLimit nodes, RCM + envelope
/// Cholesky above.
MomentAnalysis solve_moments(const graph::RoutingGraph& g,
                             const spice::Technology& tech, bool want_m2) {
  require_connected(g);
  const std::vector<double> cap = grounded_capacitance(g, tech);
  MomentAnalysis result;
  const auto solve_with = [&](const auto& chol) {
    result.m1 = chol.solve(cap);
    if (!want_m2) return;
    std::vector<double> c_m1(cap.size());
    for (std::size_t i = 0; i < cap.size(); ++i) c_m1[i] = cap[i] * result.m1[i];
    result.m2 = chol.solve(c_m1);
  };
  if (g.node_count() > kDenseMomentNodeLimit)
    solve_with(linalg::EnvelopeCholesky(sparse_conductance(g, tech)));
  else
    solve_with(linalg::CholeskyFactorization(dense_conductance(g, tech)));
  return result;
}

}  // namespace

GroundedSystem assemble_grounded_system(const graph::RoutingGraph& g,
                                        const spice::Technology& tech) {
  require_connected(g);
  return {dense_conductance(g, tech), grounded_capacitance(g, tech)};
}

linalg::CsrMatrix grounded_conductance_csr(const graph::RoutingGraph& g,
                                           const spice::Technology& tech) {
  require_connected(g);
  return sparse_conductance(g, tech);
}

MomentAnalysis moment_analysis(const graph::RoutingGraph& g,
                               const spice::Technology& tech) {
  return solve_moments(g, tech, /*want_m2=*/true);
}

std::vector<double> graph_elmore_delays(const graph::RoutingGraph& g,
                                        const spice::Technology& tech) {
  return solve_moments(g, tech, /*want_m2=*/false).m1;
}

std::vector<double> d2m_delays(const graph::RoutingGraph& g,
                               const spice::Technology& tech) {
  const MomentAnalysis m = moment_analysis(g, tech);
  std::vector<double> d(m.m1.size(), 0.0);
  constexpr double kLn2 = 0.6931471805599453;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (m.m2[i] > 0.0) {
      d[i] = kLn2 * m.m1[i] * m.m1[i] / std::sqrt(m.m2[i]);
    } else {
      d[i] = kLn2 * m.m1[i];  // degenerate: fall back to single-pole estimate
    }
  }
  return d;
}

}  // namespace ntr::delay
