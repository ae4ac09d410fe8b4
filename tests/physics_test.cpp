// Physical invariants of the electrical stack, checked end to end on
// routing-derived circuits: linearity, settling, monotonicity, and
// conservation-style totals.

#include <gtest/gtest.h>

#include <cmath>

#include "expt/net_generator.h"
#include "sim/mna.h"
#include "sim/transient.h"
#include "spice/graph_netlist.h"

namespace ntr {
namespace {

const spice::Technology kTech = spice::kTable1Technology;

spice::GraphNetlist netlist_for(const graph::RoutingGraph& g,
                                const spice::Technology& tech) {
  return spice::build_netlist(g, tech);
}

std::vector<spice::CircuitNode> sink_watch(const spice::GraphNetlist& n) {
  std::vector<spice::CircuitNode> watch;
  for (const graph::NodeId s : n.sink_graph_nodes)
    watch.push_back(n.graph_to_circuit[s]);
  return watch;
}

TEST(Physics, EveryNodeSettlesToVdd) {
  // A connected RC routing has a DC path from the driver to every node,
  // so every final value equals the supply exactly.
  expt::NetGenerator gen(61);
  for (int trial = 0; trial < 3; ++trial) {
    graph::RoutingGraph g = graph::mst_routing(gen.random_net(10));
    if (trial == 2) g.add_edge(0, 7);
    const spice::GraphNetlist n = netlist_for(g, kTech);
    const sim::MnaSystem mna = sim::assemble_mna(n.circuit);
    const linalg::Vector x_inf = sim::dc_operating_point(mna);
    for (graph::NodeId node = 0; node < g.node_count(); ++node) {
      EXPECT_NEAR(mna.node_voltage(x_inf, n.graph_to_circuit[node]), kTech.vdd_v,
                  1e-9);
    }
  }
}

TEST(Physics, LinearityInSupply) {
  // Doubling Vdd scales every waveform sample by exactly 2 and leaves the
  // (fractional-threshold) delay untouched -- the linearity that makes
  // the paper's normalized tables supply-independent.
  expt::NetGenerator gen(67);
  const graph::Net net = gen.random_net(8);
  const graph::RoutingGraph g = graph::mst_routing(net);

  spice::Technology doubled = kTech;
  doubled.vdd_v = 2.0;
  const spice::GraphNetlist n1 = netlist_for(g, kTech);
  const spice::GraphNetlist n2 = netlist_for(g, doubled);
  sim::TransientSimulator s1(n1.circuit);
  sim::TransientSimulator s2(n2.circuit);

  const auto r1 = s1.measure_crossings(sink_watch(n1), 0.5);
  const auto r2 = s2.measure_crossings(sink_watch(n2), 0.5);
  ASSERT_TRUE(r1.all_crossed);
  ASSERT_TRUE(r2.all_crossed);
  for (std::size_t i = 0; i < r1.crossing_s.size(); ++i)
    EXPECT_NEAR(r2.crossing_s[i], r1.crossing_s[i], r1.crossing_s[i] * 1e-9);
}

TEST(Physics, StepResponsesAreMonotoneOnTreesAndOurGraphs) {
  // RC-tree step responses are monotone; empirically the LDRG-style
  // graphs stay monotone too (single source, grounded caps). Guard with
  // a tight numerical tolerance.
  expt::NetGenerator gen(71);
  for (int trial = 0; trial < 2; ++trial) {
    graph::RoutingGraph g = graph::mst_routing(gen.random_net(8));
    if (trial == 1) g.add_edge(0, 5);
    const spice::GraphNetlist n = netlist_for(g, kTech);
    sim::TransientSimulator simulator(n.circuit);
    const auto watch = sink_watch(n);
    // Five time constants: the auto step is tau / 200.
    const auto wf = simulator.run(simulator.time_step() * 1000.0, watch);
    for (const std::vector<double>& column : wf.voltage_v) {
      for (std::size_t i = 1; i < column.size(); ++i)
        EXPECT_GE(column[i], column[i - 1] - 1e-7);
    }
  }
}

TEST(Physics, NetlistTotalsMatchAnalyticTotals) {
  expt::NetGenerator gen(73);
  const graph::Net net = gen.random_net(12);
  const graph::RoutingGraph g = graph::mst_routing(net);
  const spice::GraphNetlist n = netlist_for(g, kTech);
  const double expected_cap =
      kTech.wire_capacitance_f_per_um * g.total_wirelength() +
      static_cast<double>(g.sinks().size()) * kTech.sink_capacitance_f;
  double total_cap = 0.0;
  for (const spice::Element& e : n.circuit.elements())
    if (e.kind == spice::ElementKind::kCapacitor) total_cap += e.value;
  EXPECT_NEAR(total_cap, expected_cap, expected_cap * 1e-12);
}

TEST(Physics, DelayScalesWithTechnologyResistance) {
  // Scaling ALL resistances by k scales every RC product -- and hence
  // every crossing time -- by exactly k.
  expt::NetGenerator gen(79);
  const graph::RoutingGraph g = graph::mst_routing(gen.random_net(8));
  spice::Technology scaled = kTech;
  scaled.driver_resistance_ohm *= 3.0;
  scaled.wire_resistance_ohm_per_um *= 3.0;

  const spice::GraphNetlist n1 = netlist_for(g, kTech);
  const spice::GraphNetlist n2 = netlist_for(g, scaled);
  sim::TransientSimulator s1(n1.circuit);
  sim::TransientSimulator s2(n2.circuit);
  const auto r1 = s1.measure_crossings(sink_watch(n1), 0.5);
  const auto r2 = s2.measure_crossings(sink_watch(n2), 0.5);
  for (std::size_t i = 0; i < r1.crossing_s.size(); ++i)
    EXPECT_NEAR(r2.crossing_s[i], 3.0 * r1.crossing_s[i],
                r1.crossing_s[i] * 3e-3);
}

TEST(Physics, GeometryScalingIsQuadraticForWires) {
  // Doubling all pin coordinates doubles both wire R and wire C, so the
  // wire-dominated part of the delay quadruples. With driver and sink
  // terms in the mix the ratio lands strictly between 2x and 4x.
  expt::NetGenerator gen(83);
  graph::Net net = gen.random_net(10);
  graph::Net big = net;
  for (geom::Point& p : big.pins) {
    p.x *= 2.0;
    p.y *= 2.0;
  }
  const spice::GraphNetlist n1 = netlist_for(graph::mst_routing(net), kTech);
  const spice::GraphNetlist n2 = netlist_for(graph::mst_routing(big), kTech);
  sim::TransientSimulator s1(n1.circuit);
  sim::TransientSimulator s2(n2.circuit);
  const double d1 = s1.measure_crossings(sink_watch(n1), 0.5).max_crossing_s;
  const double d2 = s2.measure_crossings(sink_watch(n2), 0.5).max_crossing_s;
  EXPECT_GT(d2, 2.0 * d1);
  EXPECT_LT(d2, 4.0 * d1);
}

}  // namespace
}  // namespace ntr
