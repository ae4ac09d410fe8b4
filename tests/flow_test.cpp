#include <gtest/gtest.h>

#include "delay/evaluator.h"
#include "flow/timing_flow.h"

namespace ntr::flow {
namespace {

const spice::Technology kTech = spice::kTable1Technology;

/// A design with two routed nets: a wide fanout into a deep cone (should
/// become critical) and a short net into a shallow cone.
struct Fixture {
  sta::TimingGraph design;
  std::vector<BoundNet> nets;

  Fixture() {
    const sta::NetId pi = design.add_net("pi");
    const sta::NetId fan = design.add_net("fan");
    const sta::NetId deep_in = design.add_net("deep_in");
    const sta::NetId side_in = design.add_net("side_in");
    const sta::NetId po1 = design.add_net("po1");
    const sta::NetId po2 = design.add_net("po2");

    design.add_gate("drv", 0.2e-9, {pi}, fan);
    const sta::GateId rx1 = design.add_gate("rx1", 0.4e-9, {fan}, deep_in);
    const sta::GateId rx2 = design.add_gate("rx2", 0.2e-9, {fan}, side_in);
    const sta::GateId deep = design.add_gate("deep", 2.5e-9, {deep_in}, po1);
    design.add_gate("side", 0.2e-9, {side_in}, po2);

    // fan: source bottom-left, rx1 far corner (critical), rx2 nearby.
    BoundNet fan_net;
    fan_net.name = "fan";
    fan_net.net.pins = {{300, 300}, {9300, 8700}, {1500, 2500}};
    fan_net.sta_net = fan;
    fan_net.sink_gates = {rx1, rx2};
    nets.push_back(fan_net);

    // deep_in: a long two-pin net from rx1's output to the deep gate.
    BoundNet deep_net;
    deep_net.name = "deep_in";
    deep_net.net.pins = {{9300, 8800}, {800, 8800}};
    deep_net.sta_net = deep_in;
    deep_net.sink_gates = {deep};
    nets.push_back(deep_net);
  }
};

TEST(Flow, ImprovesWorstSlack) {
  Fixture fx;
  const delay::TransientEvaluator measure(kTech);
  FlowOptions options;
  options.clock_period_s = 5.5e-9;
  const FlowResult result = run_timing_flow(fx.design, fx.nets, measure, options);

  ASSERT_EQ(result.routings.size(), fx.nets.size());
  for (const graph::RoutingGraph& g : result.routings)
    EXPECT_TRUE(g.is_connected());
  EXPECT_GE(result.final_report.worst_slack_s,
            result.initial_report.worst_slack_s);
  EXPECT_GT(result.nets_rerouted, 0u);
  EXPECT_GE(result.iterations, 1u);
}

TEST(Flow, HighThresholdMeansNoRerouting) {
  Fixture fx;
  const delay::TransientEvaluator measure(kTech);
  FlowOptions options;
  // Everything has huge slack: no pin reaches the rerouting threshold.
  options.clock_period_s = 50e-9;
  const FlowResult result = run_timing_flow(fx.design, fx.nets, measure, options);
  EXPECT_EQ(result.nets_rerouted, 0u);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_DOUBLE_EQ(result.final_report.worst_slack_s,
                   result.initial_report.worst_slack_s);
}

TEST(Flow, IterationCapRespected) {
  Fixture fx;
  const delay::TransientEvaluator measure(kTech);
  FlowOptions options;
  options.clock_period_s = 1e-9;  // hopeless timing: always critical
  const FlowResult result = run_timing_flow(fx.design, fx.nets, measure, options);
  EXPECT_LE(result.iterations, 3u);
}

TEST(Flow, ValidatesBindings) {
  Fixture fx;
  const delay::TransientEvaluator measure(kTech);
  // Wrong sink_gates count.
  std::vector<BoundNet> bad = fx.nets;
  bad[0].sink_gates.pop_back();
  EXPECT_THROW(run_timing_flow(fx.design, bad, measure), std::invalid_argument);
  // Gate that is not a sink of the STA net.
  bad = fx.nets;
  bad[0].sink_gates[0] = bad[1].sink_gates[0];
  bad[0].sink_gates[1] = bad[1].sink_gates[0];
  EXPECT_THROW(run_timing_flow(fx.design, bad, measure), std::invalid_argument);
  // Out-of-range STA net id.
  bad = fx.nets;
  bad[0].sta_net = 999;
  EXPECT_THROW(run_timing_flow(fx.design, bad, measure), std::invalid_argument);
}

TEST(Flow, AnnotationsReflectFinalRoutings) {
  Fixture fx;
  const delay::TransientEvaluator measure(kTech);
  FlowOptions options;
  options.clock_period_s = 5.5e-9;
  const FlowResult result = run_timing_flow(fx.design, fx.nets, measure, options);
  // Re-annotate manually from the returned routings; STA must reproduce
  // the flow's final report exactly.
  for (std::size_t i = 0; i < fx.nets.size(); ++i) {
    const std::vector<double> delays = measure.sink_delays(result.routings[i]);
    for (std::size_t k = 0; k < fx.nets[i].sink_gates.size(); ++k)
      fx.design.set_interconnect_delay(fx.nets[i].sta_net,
                                       fx.nets[i].sink_gates[k], delays[k]);
  }
  const sta::TimingReport check = sta::analyze(fx.design, options.clock_period_s);
  EXPECT_DOUBLE_EQ(check.worst_slack_s, result.final_report.worst_slack_s);
  EXPECT_DOUBLE_EQ(check.worst_arrival_s, result.final_report.worst_arrival_s);
}

}  // namespace
}  // namespace ntr::flow
