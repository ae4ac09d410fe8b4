// The full strategy x evaluator compatibility matrix: every routing
// strategy must compose with every delay evaluator that supports its
// topology class, produce finite positive delays, and respect the basic
// electrical orderings between the evaluators.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/solver.h"
#include "delay/evaluator.h"
#include "expt/net_generator.h"

namespace ntr::core {
namespace {

const spice::Technology kTech = spice::kTable1Technology;

struct Case {
  Strategy strategy;
  const char* evaluator;
};

std::unique_ptr<delay::DelayEvaluator> make(const std::string& name) {
  if (name == "graph-elmore")
    return std::make_unique<delay::GraphElmoreEvaluator>(kTech);
  if (name == "d2m") return std::make_unique<delay::TwoPoleEvaluator>(kTech);
  return std::make_unique<delay::TransientEvaluator>(kTech);
}

class StrategyMatrixTest : public ::testing::TestWithParam<Case> {};

TEST_P(StrategyMatrixTest, SolvesWithFiniteDelays) {
  const auto [strategy, evaluator_name] = GetParam();
  expt::NetGenerator gen(2026);
  const graph::Net net = gen.random_net(8);
  const std::unique_ptr<delay::DelayEvaluator> evaluator = make(evaluator_name);
  const Solution sol = solve(net, strategy, *evaluator);
  EXPECT_TRUE(sol.graph.is_connected());
  EXPECT_TRUE(std::isfinite(sol.delay_s));
  EXPECT_GT(sol.delay_s, 0.0);
  // Whatever the search evaluator, the transient measurement of the
  // result must be finite too and bounded by its graph-Elmore value.
  const delay::TransientEvaluator transient(kTech);
  const delay::GraphElmoreEvaluator elmore(kTech);
  const double t = transient.max_delay(sol.graph);
  EXPECT_TRUE(std::isfinite(t));
  EXPECT_LT(t, elmore.max_delay(sol.graph) * 1.01);
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const Strategy s :
       {Strategy::kMst, Strategy::kStar, Strategy::kSteinerTree, Strategy::kErt,
        Strategy::kSert, Strategy::kLdrg, Strategy::kSldrg, Strategy::kErtLdrg,
        Strategy::kH1, Strategy::kH2, Strategy::kH3}) {
    for (const char* e : {"transient", "graph-elmore", "d2m"}) {
      cases.push_back({s, e});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    All, StrategyMatrixTest, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string name = strategy_name(info.param.strategy) + std::string("_") +
                         info.param.evaluator;
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

}  // namespace
}  // namespace ntr::core
