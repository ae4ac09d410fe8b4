#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <sstream>
#include <string>

#include "core/solver.h"
#include "delay/evaluator.h"
#include "expt/protocol.h"
#include "route/constructions.h"
#include "sim/waveform_io.h"
#include "sim/transient.h"
#include "spice/netlist.h"

namespace ntr::expt {
namespace {

const spice::Technology kTech = spice::kTable1Technology;

TEST(Protocol, IdenticalRoutersGiveUnitRatiosAndNoWinners) {
  const delay::GraphElmoreEvaluator measure(kTech);
  ProtocolConfig config;
  config.net_sizes = {6};
  config.trials = 4;
  const auto mst = [](const graph::Net& n) { return graph::mst_routing(n); };
  const std::vector<AggregateRow> rows = run_protocol(config, mst, mst, measure);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].all_delay_ratio, 1.0);
  EXPECT_DOUBLE_EQ(rows[0].all_cost_ratio, 1.0);
  EXPECT_DOUBLE_EQ(rows[0].percent_winners, 0.0);
}

TEST(Protocol, SeedSaltingKeepsSizesIndependent) {
  const delay::GraphElmoreEvaluator measure(kTech);
  const auto mst = [](const graph::Net& n) { return graph::mst_routing(n); };
  const auto star = [](const graph::Net& n) { return ntr::route::star_routing(n); };

  ProtocolConfig both;
  both.net_sizes = {5, 10};
  both.trials = 3;
  ProtocolConfig only10;
  only10.net_sizes = {10};
  only10.trials = 3;

  const auto rows_both = run_protocol(both, mst, star, measure);
  const auto rows_10 = run_protocol(only10, mst, star, measure);
  // The 10-pin row must be identical whether or not size 5 also ran.
  EXPECT_DOUBLE_EQ(rows_both[1].all_delay_ratio, rows_10[0].all_delay_ratio);
  EXPECT_DOUBLE_EQ(rows_both[1].all_cost_ratio, rows_10[0].all_cost_ratio);
}

TEST(Protocol, DifferentSeedsChangeTheNumbers) {
  const delay::GraphElmoreEvaluator measure(kTech);
  const auto mst = [](const graph::Net& n) { return graph::mst_routing(n); };
  const auto star = [](const graph::Net& n) { return ntr::route::star_routing(n); };
  ProtocolConfig a;
  a.net_sizes = {8};
  a.trials = 3;
  ProtocolConfig b = a;
  b.seed = a.seed + 1;
  const auto ra = run_protocol(a, mst, star, measure);
  const auto rb = run_protocol(b, mst, star, measure);
  EXPECT_NE(ra[0].all_delay_ratio, rb[0].all_delay_ratio);
}

}  // namespace
}  // namespace ntr::expt

namespace ntr::sim {
namespace {

std::string render_csv(const TransientSimulator::Waveform& wf,
                         std::span<const std::string> names) {
  std::ostringstream os;
  write_waveform_csv(os, wf, names);
  return os.str();
}

TEST(WaveformIo, CsvLayout) {
  TransientSimulator::Waveform wf;
  wf.time_s = {0.0, 1e-9, 2e-9};
  wf.voltage_v = {{0.0, 0.5, 0.9}, {0.0, 0.2, 0.4}};
  const std::vector<std::string> names{"a", "b"};
  const std::string csv = render_csv(wf, names);
  EXPECT_NE(csv.find("time_s,a,b"), std::string::npos);
  EXPECT_NE(csv.find("0,0,0"), std::string::npos);
  EXPECT_NE(csv.find("2e-09,0.9,0.4"), std::string::npos);
  // Three data lines + header.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

TEST(WaveformIo, Validation) {
  TransientSimulator::Waveform wf;
  wf.time_s = {0.0, 1e-9};
  wf.voltage_v = {{0.0, 0.5}};
  const std::vector<std::string> wrong{"a", "b"};
  EXPECT_THROW(static_cast<void>(render_csv(wf, wrong)), std::invalid_argument);
  wf.voltage_v[0].pop_back();  // ragged
  const std::vector<std::string> one{"a"};
  EXPECT_THROW(static_cast<void>(render_csv(wf, one)), std::invalid_argument);
}

TEST(WaveformIo, RealSimulationRoundTrip) {
  spice::Circuit ckt;
  const auto in = ckt.add_node("in");
  const auto out = ckt.add_node("out");
  ckt.add_voltage_source("V1", in, spice::kGround, 1.0, spice::SourceWaveform::kStep);
  ckt.add_resistor("R1", in, out, 1000.0);
  ckt.add_capacitor("C1", out, spice::kGround, 1e-12);
  TransientSimulator sim(ckt);
  const std::vector<spice::CircuitNode> watch{out};
  const auto wf = sim.run(2e-9, watch);
  const std::vector<std::string> names{"v_out"};
  const std::string csv = render_csv(wf, names);
  EXPECT_NE(csv.find("time_s,v_out"), std::string::npos);
  EXPECT_EQ(csv.find("nan"), std::string::npos);
}

}  // namespace
}  // namespace ntr::sim
