#pragma once

#include <vector>

#include "graph/routing_graph.h"
#include "spice/netlist.h"
#include "spice/technology.h"

namespace ntr::spice {

/// Controls how routing wires are expanded into lumped circuit elements.
struct NetlistOptions {
  /// Lumped pi sections per wire. One section is the classical pi model
  /// (C/2 -- R -- C/2); more sections converge to the distributed RC line
  /// (see bench/ablation_segmentation for the convergence study).
  unsigned segments_per_edge = 1;

  /// Include the series wire inductance of Table 1 (RLC lines). Off by
  /// default: at 0.8um geometries wL << R, see bench/ablation_inductance.
  bool include_inductance = false;
};

/// A circuit built from a routing graph, with the mapping needed to read
/// delays back out.
struct GraphNetlist {
  Circuit circuit;
  /// circuit node for each routing-graph node (index = graph NodeId).
  std::vector<CircuitNode> graph_to_circuit;
  /// The ideal-step node feeding the driver resistor.
  CircuitNode driver_input = kGround;
  /// Graph ids of the sink pins, in the order used for delay reporting.
  std::vector<graph::NodeId> sink_graph_nodes;
};

/// Expands a routing graph into the paper's circuit model: an ideal step
/// source behind the driver resistance at the net source, each wire as a
/// chain of lumped pi sections (RC, optionally RLC), and the Table-1 sink
/// load at every sink pin. Works for arbitrary graph topologies (cycles
/// included) -- this is the "SPICE" half of the reproduction.
GraphNetlist build_netlist(const graph::RoutingGraph& g, const Technology& tech,
                           const NetlistOptions& options = {});

}  // namespace ntr::spice
