#pragma once

#include <vector>

#include "graph/paths.h"
#include "graph/routing_graph.h"
#include "spice/technology.h"

namespace ntr::delay {

/// O(k) Elmore delay of a routing *tree* (equation (1) of the paper):
///
///   t_ED(n_i) = r_d * C_root + sum over path edges e_j of
///               r_{e_j} * (c_{e_j}/2 + C_j)
///
/// where C_j is the capacitance of the subtree hanging below edge e_j
/// (edge caps plus sink loads). Returns one delay per graph node, indexed
/// by NodeId (the source entry is r_d * C_root: the delay contribution of
/// charging the whole tree through the driver). Throws
/// std::invalid_argument if the graph is not a tree -- the paper's H2/H3
/// heuristics rely on exactly this restriction.
std::vector<double> elmore_node_delays(const graph::RoutingGraph& g,
                                       const spice::Technology& tech);

/// Same computation when the caller already holds a rooted orientation.
std::vector<double> elmore_node_delays(const graph::RoutingGraph& g,
                                       const graph::RootedTree& tree,
                                       const spice::Technology& tech);

}  // namespace ntr::delay
