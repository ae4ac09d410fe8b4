#include <gtest/gtest.h>

#include <cmath>

#include "sim/mna.h"
#include "sim/transient.h"
#include "spice/netlist.h"

namespace ntr::sim {
namespace {

constexpr double kLn2 = 0.6931471805599453;

/// V -- R -- node -- C -- gnd, driven by a 1V step.
spice::Circuit rc_lowpass(double r, double c) {
  spice::Circuit ckt;
  const spice::CircuitNode in = ckt.add_node("in");
  const spice::CircuitNode out = ckt.add_node("out");
  ckt.add_voltage_source("V1", in, spice::kGround, 1.0, spice::SourceWaveform::kStep);
  ckt.add_resistor("R1", in, out, r);
  ckt.add_capacitor("C1", out, spice::kGround, c);
  return ckt;
}

TEST(Mna, ResistorDividerDc) {
  spice::Circuit ckt;
  const auto in = ckt.add_node("in");
  const auto mid = ckt.add_node("mid");
  ckt.add_voltage_source("V1", in, spice::kGround, 6.0, spice::SourceWaveform::kDc);
  ckt.add_resistor("R1", in, mid, 1000.0);
  ckt.add_resistor("R2", mid, spice::kGround, 2000.0);
  const MnaSystem mna = assemble_mna(ckt);
  EXPECT_EQ(mna.node_unknowns, 2u);
  EXPECT_EQ(mna.branch_unknowns, 1u);
  const linalg::Vector x = dc_operating_point(mna);
  EXPECT_NEAR(mna.node_voltage(x, in), 6.0, 1e-9);
  EXPECT_NEAR(mna.node_voltage(x, mid), 4.0, 1e-9);
  // Source branch current: 6V across 3k = 2mA flowing out of the source.
  EXPECT_NEAR(std::abs(x[mna.node_unknowns]), 2e-3, 1e-9);
}

TEST(Mna, FirstMomentOfRcEqualsTau) {
  const double r = 1000.0, c = 1e-12;
  const MnaSystem mna = assemble_mna(rc_lowpass(r, c));
  const linalg::Vector x_inf = dc_operating_point(mna);
  const linalg::Vector m1 = first_moment(mna, x_inf);
  const std::size_t out_idx = mna.unknown_of_node(2);  // "out" is node 2
  EXPECT_NEAR(m1[out_idx] / x_inf[out_idx], r * c, r * c * 1e-9);
}

TEST(Mna, EmptyCircuitRejected) {
  const spice::Circuit empty;
  EXPECT_THROW(assemble_mna(empty), std::invalid_argument);
}

TEST(Transient, RcStepMatchesAnalyticHalfDelay) {
  const double r = 1000.0, c = 1e-12;  // tau = 1ns
  TransientSimulator sim(rc_lowpass(r, c));
  // The auto step is tau / 200, with tau the RC time constant.
  EXPECT_NEAR(sim.time_step(), r * c / 200.0, r * c / 200.0 * 1e-6);

  const std::vector<spice::CircuitNode> watch{2};
  const auto report = sim.measure_crossings(watch, 0.5);
  ASSERT_TRUE(report.all_crossed);
  // Analytic 50% crossing: tau * ln 2.
  EXPECT_NEAR(report.crossing_s[0], r * c * kLn2, r * c * kLn2 * 5e-3);
  EXPECT_NEAR(report.final_v[0], 1.0, 1e-9);
}

TEST(Transient, RcStepWaveformMatchesExponential) {
  const double r = 500.0, c = 2e-12;  // tau = 1ns
  TransientOptions opts;
  opts.time_step_s = r * c / 400.0;
  TransientSimulator sim(rc_lowpass(r, c), opts);
  const std::vector<spice::CircuitNode> watch{2};
  const auto wf = sim.run(3e-9, watch);
  ASSERT_GT(wf.time_s.size(), 100u);
  for (std::size_t i = 0; i < wf.time_s.size(); i += 50) {
    const double t = wf.time_s[i];
    const double expected = 1.0 - std::exp(-t / (r * c));
    EXPECT_NEAR(wf.voltage_v[0][i], expected, 6e-3) << "t=" << t;
  }
}

TEST(Transient, BackwardEulerAgreesWithTrapezoidalOnFineGrid) {
  const double r = 1000.0, c = 1e-12;
  TransientOptions be;
  be.method = Integration::kBackwardEuler;
  be.time_step_s = r * c / 4000.0;
  TransientOptions trap;
  trap.time_step_s = r * c / 400.0;

  const std::vector<spice::CircuitNode> watch{2};
  const double d_be =
      TransientSimulator(rc_lowpass(r, c), be).measure_crossings(watch).crossing_s[0];
  const double d_trap =
      TransientSimulator(rc_lowpass(r, c), trap).measure_crossings(watch).crossing_s[0];
  EXPECT_NEAR(d_be, d_trap, r * c * 1e-2);
}

TEST(Transient, TwoStageLadderElmoreIsUpperBound) {
  // in -- R1 -- a -- R2 -- b, caps at a and b. Elmore(b) = R1(Ca+Cb)+R2 Cb.
  spice::Circuit ckt;
  const auto in = ckt.add_node("in");
  const auto a = ckt.add_node("a");
  const auto b = ckt.add_node("b");
  ckt.add_voltage_source("V1", in, spice::kGround, 1.0, spice::SourceWaveform::kStep);
  ckt.add_resistor("R1", in, a, 1000.0);
  ckt.add_resistor("R2", a, b, 2000.0);
  ckt.add_capacitor("Ca", a, spice::kGround, 1e-12);
  ckt.add_capacitor("Cb", b, spice::kGround, 3e-12);

  const double elmore_b = 1000.0 * (1e-12 + 3e-12) + 2000.0 * 3e-12;  // 10ns
  TransientSimulator sim(ckt);
  // The auto step is tau / 200, with tau the largest node Elmore delay.
  EXPECT_NEAR(sim.time_step(), elmore_b / 200.0, elmore_b / 200.0 * 1e-6);

  const std::vector<spice::CircuitNode> watch{b};
  const auto report = sim.measure_crossings(watch, 0.5);
  ASSERT_TRUE(report.all_crossed);
  // 50% delay never exceeds Elmore on RC trees, and is above the
  // single-pole lower bound ln(2) * dominant-time-constant heuristically.
  EXPECT_LT(report.crossing_s[0], elmore_b);
  EXPECT_GT(report.crossing_s[0], 0.3 * elmore_b);
}

TEST(Transient, InductorBranchRlDecay) {
  // in -- R -- a -- L -- gnd: v_a(t) = e^{-tR/L} after a unit step.
  spice::Circuit ckt;
  const auto in = ckt.add_node("in");
  const auto a = ckt.add_node("a");
  ckt.add_voltage_source("V1", in, spice::kGround, 1.0, spice::SourceWaveform::kStep);
  ckt.add_resistor("R1", in, a, 100.0);
  ckt.add_inductor("L1", a, spice::kGround, 1e-6);  // tau = L/R = 10ns

  TransientOptions opts;
  opts.time_step_s = 1e-11;
  opts.max_time_s = 50e-9;
  TransientSimulator sim(ckt, opts);
  const std::vector<spice::CircuitNode> watch{a};
  const auto wf = sim.run(30e-9, watch);
  const double tau = 1e-6 / 100.0;
  // Skip the first BE startup samples, then compare against the decay.
  for (std::size_t i = 10; i < wf.time_s.size(); i += 200) {
    const double expected = std::exp(-wf.time_s[i] / tau);
    EXPECT_NEAR(wf.voltage_v[0][i], expected, 2e-2) << "t=" << wf.time_s[i];
  }
  // DC final value of an inductor to ground is 0.
  const MnaSystem mna = assemble_mna(ckt);
  EXPECT_NEAR(mna.node_voltage(dc_operating_point(mna), a), 0.0, 1e-9);
}

TEST(Transient, NodeWithZeroFinalValueReportsNoCrossing) {
  spice::Circuit ckt;
  const auto in = ckt.add_node("in");
  const auto a = ckt.add_node("a");
  const auto orphan = ckt.add_node("orphan");
  ckt.add_voltage_source("V1", in, spice::kGround, 1.0, spice::SourceWaveform::kStep);
  ckt.add_resistor("R1", in, a, 100.0);
  ckt.add_capacitor("Ca", a, spice::kGround, 1e-12);
  ckt.add_resistor("Rorphan", orphan, spice::kGround, 1000.0);
  ckt.add_capacitor("Corphan", orphan, spice::kGround, 1e-12);

  TransientSimulator sim(ckt);
  const std::vector<spice::CircuitNode> watch{a, orphan};
  const auto report = sim.measure_crossings(watch);
  EXPECT_FALSE(report.all_crossed);
  EXPECT_TRUE(std::isfinite(report.crossing_s[0]));
  EXPECT_TRUE(std::isinf(report.crossing_s[1]));
  EXPECT_TRUE(std::isinf(report.max_crossing_s));
}

TEST(Transient, ThresholdValidation) {
  TransientSimulator sim(rc_lowpass(1000.0, 1e-12));
  const std::vector<spice::CircuitNode> watch{2};
  EXPECT_THROW(sim.measure_crossings(watch, 0.0), std::invalid_argument);
  EXPECT_THROW(sim.measure_crossings(watch, 1.0), std::invalid_argument);
}

TEST(Transient, SinglePoleRiseTimeIsLnNineTau) {
  const double r = 1000.0, c = 1e-12;  // tau = 1ns
  TransientSimulator sim(rc_lowpass(r, c));
  const std::vector<spice::CircuitNode> watch{2};
  const double t10 = sim.measure_crossings(watch, 0.1).crossing_s[0];
  const double t90 = sim.measure_crossings(watch, 0.9).crossing_s[0];
  // t(0.9) - t(0.1) = tau (ln 10 - ln(10/9)) = tau * ln 9.
  EXPECT_NEAR(t90 - t10, r * c * std::log(9.0), r * c * 0.01);
}

}  // namespace
}  // namespace ntr::sim
