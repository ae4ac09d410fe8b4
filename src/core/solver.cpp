#include "core/solver.h"

#include <stdexcept>

#include "check/contracts.h"
#include "graph/validate.h"
#include "core/heuristics.h"
#include "route/constructions.h"
#include "route/ert.h"
#include "steiner/iterated_one_steiner.h"

namespace ntr::core {

std::string strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kMst: return "MST";
    case Strategy::kStar: return "SPT/star";
    case Strategy::kSteinerTree: return "1-Steiner";
    case Strategy::kErt: return "ERT";
    case Strategy::kSert: return "SERT";
    case Strategy::kLdrg: return "LDRG";
    case Strategy::kSldrg: return "SLDRG";
    case Strategy::kErtLdrg: return "ERT+LDRG";
    case Strategy::kH1: return "H1";
    case Strategy::kH2: return "H2";
    case Strategy::kH3: return "H3";
  }
  throw std::logic_error("strategy_name: unknown strategy");
}

Solution solve(const graph::Net& net, Strategy strategy,
               const delay::DelayEvaluator& evaluator, const SolverConfig& config) {
  net.validate();

  // An already-tripped token fails the solve before any construction work,
  // so an expired deadline costs a batch driver one poll per net, not one
  // tree construction per net.
  if (config.stop.engaged()) config.stop.throw_if_stopped("solve");

  // The top-level thread knob wins over the per-strategy one when set.
  LdrgOptions ldrg_options = config.ldrg;
  if (config.parallel.num_threads != 1) ldrg_options.parallel = config.parallel;
  if (config.stop.engaged()) ldrg_options.stop = config.stop;

  Solution solution;
  solution.strategy = strategy;

  switch (strategy) {
    case Strategy::kMst:
      solution.graph = graph::mst_routing(net);
      break;
    case Strategy::kStar:
      solution.graph = route::star_routing(net);
      break;
    case Strategy::kSteinerTree:
      solution.graph = steiner::iterated_one_steiner(net).graph;
      break;
    case Strategy::kErt:
      solution.graph = route::elmore_routing_tree(net, config.tech).graph;
      break;
    case Strategy::kSert: {
      route::ErtOptions opts;
      opts.steiner = true;
      solution.graph = route::elmore_routing_tree(net, config.tech, opts).graph;
      break;
    }
    case Strategy::kLdrg:
      solution.graph = ldrg(graph::mst_routing(net), evaluator, ldrg_options).graph;
      break;
    case Strategy::kSldrg: {
      const auto steiner_tree = steiner::iterated_one_steiner(net);
      solution.graph = ldrg(steiner_tree.graph, evaluator, ldrg_options).graph;
      break;
    }
    case Strategy::kErtLdrg: {
      const auto ert = route::elmore_routing_tree(net, config.tech);
      solution.graph = ldrg(ert.graph, evaluator, ldrg_options).graph;
      break;
    }
    case Strategy::kH1:
      solution.graph = h1(graph::mst_routing(net), evaluator).graph;
      break;
    case Strategy::kH2:
      solution.graph = h2(graph::mst_routing(net), config.tech).graph;
      break;
    case Strategy::kH3:
      solution.graph = h3(graph::mst_routing(net), config.tech).graph;
      break;
  }

  // Every strategy must hand back a structurally sound routing of the
  // whole net: sourced at node 0, connected, Manhattan edge lengths.
  NTR_DCHECK(check::require(
      graph::validate_graph(solution.graph,
                            {.require_source = true, .require_connected = true}),
      "solve postcondition"));
  NTR_DCHECK(solution.graph.node_count() >= net.size());

  solution.delay_s = evaluator.max_delay(solution.graph);
  solution.cost_um = solution.graph.total_wirelength();
  return solution;
}

}  // namespace ntr::core
