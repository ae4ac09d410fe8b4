#include <gtest/gtest.h>

#include "graph/routing_graph.h"
#include "spice/deck_io.h"
#include "spice/graph_netlist.h"
#include "spice/netlist.h"
#include "spice/technology.h"
#include "spice/units.h"

namespace ntr::spice {
namespace {

TEST(Units, ParseSpiceNumbers) {
  EXPECT_DOUBLE_EQ(parse_spice_number("100"), 100.0);
  EXPECT_DOUBLE_EQ(parse_spice_number("15.3f"), 15.3e-15);
  EXPECT_DOUBLE_EQ(parse_spice_number("15.3fF"), 15.3e-15);
  EXPECT_DOUBLE_EQ(parse_spice_number("0.03"), 0.03);
  EXPECT_DOUBLE_EQ(parse_spice_number("1k"), 1000.0);
  EXPECT_DOUBLE_EQ(parse_spice_number("2.5meg"), 2.5e6);
  EXPECT_DOUBLE_EQ(parse_spice_number("3n"), 3e-9);
  EXPECT_DOUBLE_EQ(parse_spice_number("-4.5p"), -4.5e-12);
  EXPECT_DOUBLE_EQ(parse_spice_number("1e-9"), 1e-9);
  EXPECT_DOUBLE_EQ(parse_spice_number("10ohm"), 10.0);
  EXPECT_THROW(parse_spice_number(""), std::invalid_argument);
  EXPECT_THROW(parse_spice_number("abc"), std::invalid_argument);
}

TEST(Units, FormatRoundTripsThroughParse) {
  for (const double v : {100.0, 15.3e-15, 0.03, 492e-18, 1e-12, 2.5e6, 0.0}) {
    const std::string s = format_spice_number(v);
    EXPECT_NEAR(parse_spice_number(s.empty() ? "0" : s), v,
                std::abs(v) * 1e-5 + 1e-30)
        << "formatted as " << s;
  }
}

TEST(Units, FormatTimePicksSensibleUnit) {
  EXPECT_EQ(format_time(1.3e-9), "1.3ns");
  EXPECT_EQ(format_time(2.5e-12), "2.5ps");
  EXPECT_EQ(format_time(4e-6), "4us");
}

TEST(Technology, Table1Values) {
  const Technology& t = kTable1Technology;
  EXPECT_DOUBLE_EQ(t.driver_resistance_ohm, 100.0);
  EXPECT_DOUBLE_EQ(t.wire_resistance(1000.0), 30.0);
  EXPECT_DOUBLE_EQ(t.wire_capacitance(1000.0), 0.352e-12);
  EXPECT_DOUBLE_EQ(t.wire_inductance(1000.0), 492e-15);
  EXPECT_DOUBLE_EQ(t.sink_capacitance_f, 15.3e-15);
  EXPECT_DOUBLE_EQ(t.layout_side_um, 10000.0);
}

TEST(Technology, WidthScalesResistanceDownCapacitanceUp) {
  const Technology& t = kTable1Technology;
  EXPECT_DOUBLE_EQ(t.wire_resistance(1000.0, 2.0), 15.0);
  EXPECT_DOUBLE_EQ(t.wire_capacitance(1000.0, 2.0), 0.704e-12);
}

TEST(Circuit, ElementValidation) {
  Circuit c;
  const CircuitNode a = c.add_node("a");
  EXPECT_THROW(c.add_resistor("R1", a, a, 10.0), std::invalid_argument);
  EXPECT_THROW(c.add_resistor("R1", a, kGround, -5.0), std::invalid_argument);
  EXPECT_THROW(c.add_capacitor("C1", a, kGround, 0.0), std::invalid_argument);
  EXPECT_THROW(c.add_resistor("R1", a, 99, 1.0), std::out_of_range);
  c.add_resistor("R1", a, kGround, 10.0);
  c.add_capacitor("C1", a, kGround, 1e-12);
  c.add_capacitor("C2", a, kGround, 2e-12);
  EXPECT_EQ(c.element_count(ElementKind::kResistor), 1u);
  EXPECT_EQ(c.element_count(ElementKind::kCapacitor), 2u);
}

TEST(DeckIo, WriteParseRoundTrip) {
  Circuit c;
  const CircuitNode in = c.add_node("in");
  const CircuitNode mid = c.add_node("mid");
  c.add_voltage_source("Vstep", in, kGround, 1.0, SourceWaveform::kStep);
  c.add_resistor("Rdrv", in, mid, 100.0);
  c.add_capacitor("Cload", mid, kGround, 15.3e-15);
  c.add_inductor("Lw", mid, kGround, 492e-15);

  const std::string deck = write_deck(c, "round trip");
  EXPECT_NE(deck.find("Rdrv in mid 100"), std::string::npos);
  EXPECT_NE(deck.find(".TRAN"), std::string::npos);
  EXPECT_NE(deck.find(".END"), std::string::npos);

  const Circuit parsed = parse_deck(deck);
  ASSERT_EQ(parsed.elements().size(), c.elements().size());
  for (std::size_t i = 0; i < c.elements().size(); ++i) {
    const Element& orig = c.elements()[i];
    const Element& back = parsed.elements()[i];
    EXPECT_EQ(back.kind, orig.kind);
    EXPECT_NEAR(back.value, orig.value, std::abs(orig.value) * 1e-5);
    EXPECT_EQ(back.waveform, orig.waveform);
    EXPECT_EQ(parsed.node_name(back.a), c.node_name(orig.a));
    EXPECT_EQ(parsed.node_name(back.b), c.node_name(orig.b));
  }
}

TEST(DeckIo, ParseRejectsUnsupportedElements) {
  EXPECT_THROW(parse_deck("* title\nQ1 a b c model\n.END\n"), std::invalid_argument);
  EXPECT_THROW(parse_deck("* title\nR1 a\n.END\n"), std::invalid_argument);
}

TEST(DeckIo, ParseAcceptsDcAndBareValueSources) {
  const Circuit c = parse_deck("* t\nV1 a 0 DC 5\nV2 b 0 3.3\nR1 a b 1k\n.END\n");
  EXPECT_EQ(c.element_count(ElementKind::kVoltageSource), 2u);
  EXPECT_DOUBLE_EQ(c.elements()[0].value, 5.0);
  EXPECT_DOUBLE_EQ(c.elements()[1].value, 3.3);
}

double total_capacitance(const Circuit& c) {
  double sum = 0.0;
  for (const Element& e : c.elements())
    if (e.kind == ElementKind::kCapacitor) sum += e.value;
  return sum;
}

graph::RoutingGraph two_pin_graph(double length_um) {
  graph::Net net{{{0, 0}, {length_um, 0}}};
  graph::RoutingGraph g(net);
  g.add_edge(0, 1);
  return g;
}

TEST(GraphNetlist, TwoPinStructure) {
  const graph::RoutingGraph g = two_pin_graph(1000.0);
  const GraphNetlist n = build_netlist(g, kTable1Technology);
  // 1 wire resistor + driver, 2 half wire caps + 1 sink cap, 1 source.
  EXPECT_EQ(n.circuit.element_count(ElementKind::kResistor), 2u);
  EXPECT_EQ(n.circuit.element_count(ElementKind::kCapacitor), 3u);
  EXPECT_EQ(n.circuit.element_count(ElementKind::kVoltageSource), 1u);
  EXPECT_EQ(n.circuit.element_count(ElementKind::kInductor), 0u);
  ASSERT_EQ(n.sink_graph_nodes.size(), 1u);
  EXPECT_EQ(n.sink_graph_nodes[0], 1u);
  // Total capacitance: full wire cap + sink load.
  EXPECT_NEAR(total_capacitance(n.circuit), 0.352e-12 + 15.3e-15, 1e-20);
}

TEST(GraphNetlist, SegmentationPreservesTotals) {
  const graph::RoutingGraph g = two_pin_graph(1000.0);
  NetlistOptions opts;
  opts.segments_per_edge = 5;
  const GraphNetlist n = build_netlist(g, kTable1Technology, opts);
  EXPECT_EQ(n.circuit.element_count(ElementKind::kResistor), 6u);  // 5 + driver
  EXPECT_EQ(n.circuit.element_count(ElementKind::kCapacitor), 11u);
  EXPECT_NEAR(total_capacitance(n.circuit), 0.352e-12 + 15.3e-15, 1e-20);
}

TEST(GraphNetlist, InductanceOptionAddsInductors) {
  const graph::RoutingGraph g = two_pin_graph(1000.0);
  NetlistOptions opts;
  opts.include_inductance = true;
  opts.segments_per_edge = 3;
  const GraphNetlist n = build_netlist(g, kTable1Technology, opts);
  EXPECT_EQ(n.circuit.element_count(ElementKind::kInductor), 3u);
}

TEST(GraphNetlist, CycleTopologyIsAccepted) {
  graph::Net net{{{0, 0}, {1000, 0}, {1000, 1000}, {0, 1000}}};
  graph::RoutingGraph g(net);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);  // non-tree!
  const GraphNetlist n = build_netlist(g, kTable1Technology);
  EXPECT_EQ(n.circuit.element_count(ElementKind::kResistor), 5u);
  EXPECT_EQ(n.sink_graph_nodes.size(), 3u);
}

TEST(GraphNetlist, SteinerNodesCarryNoLoad) {
  graph::Net net{{{0, 0}, {2000, 0}}};
  graph::RoutingGraph g(net);
  const graph::EdgeId e = g.add_edge(0, 1);
  g.split_edge(e, {1000, 0});
  const GraphNetlist n = build_netlist(g, kTable1Technology);
  // Caps: 2 wires x 2 halves + 1 sink load only (no load on the Steiner node).
  EXPECT_EQ(n.circuit.element_count(ElementKind::kCapacitor), 5u);
}

}  // namespace
}  // namespace ntr::spice
