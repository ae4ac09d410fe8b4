#pragma once

#include <vector>

#include "graph/routing_graph.h"
#include "linalg/dense_matrix.h"
#include "linalg/sparse.h"
#include "spice/technology.h"

namespace ntr::delay {

/// First and second moments of the step response at every routing-graph
/// node, computed directly from the graph (each wire as one lumped pi,
/// which matches the distributed first moment exactly; see DESIGN.md).
///
/// m1 is the *graph Elmore delay*: the extension of Elmore delay to
/// arbitrary (cyclic) topologies via one SPD solve G m1 = C 1, in the
/// spirit of Chan-Karplus tree/link partitioning that the paper cites as
/// the way to generalize Elmore beyond trees.
struct MomentAnalysis {
  std::vector<double> m1;  ///< per-node Elmore delay (seconds)
  std::vector<double> m2;  ///< per-node second moment (seconds^2)
};

/// Throws std::invalid_argument when the graph is not connected (the
/// conductance matrix would be singular).
MomentAnalysis moment_analysis(const graph::RoutingGraph& g,
                               const spice::Technology& tech);

/// The grounded node system behind the moment computations: SPD
/// conductance matrix G (wire conductances + the Norton-transformed
/// driver at the source) and the diagonal capacitance vector C (half of
/// each wire cap at either endpoint + sink loads). Exposed for engines
/// that build on the same electrical model (the incremental candidate
/// scorer, delay bounds, tests).
struct GroundedSystem {
  linalg::DenseMatrix conductance;
  std::vector<double> capacitance;
};

/// Effective conductance of a wire of the given length/width; degenerate
/// zero-length wires get the same numerical short as the netlist builder.
double wire_conductance(double length_um, double width, const spice::Technology& tech);

GroundedSystem assemble_grounded_system(const graph::RoutingGraph& g,
                                        const spice::Technology& tech);

/// The same conductance matrix in CSR form (for the sparse solver path).
linalg::CsrMatrix grounded_conductance_csr(const graph::RoutingGraph& g,
                                           const spice::Technology& tech);

/// Node count above which moment_analysis / graph_elmore_delays switch
/// from the dense Cholesky to the RCM + envelope-Cholesky sparse path.
/// Routing-graph conductance matrices are near-planar and low-degree, so
/// the sparse path wins quickly (see bench/ablation_sparse_scaling).
inline constexpr std::size_t kDenseMomentNodeLimit = 320;

/// Per-node Elmore delay of an arbitrary routing graph (m1 only).
std::vector<double> graph_elmore_delays(const graph::RoutingGraph& g,
                                        const spice::Technology& tech);

/// D2M two-pole delay metric of Alpert et al.: ln(2) * m1^2 / sqrt(m2).
/// A substantially better 50%-threshold estimate than raw Elmore, still
/// requiring only two SPD solves.
std::vector<double> d2m_delays(const graph::RoutingGraph& g,
                               const spice::Technology& tech);

}  // namespace ntr::delay
