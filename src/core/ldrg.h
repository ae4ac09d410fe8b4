#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "core/parallel.h"
#include "delay/evaluator.h"
#include "graph/routing_graph.h"
#include "runtime/stop.h"

namespace ntr::core {

/// One accepted edge addition of the LDRG greedy loop.
struct LdrgStep {
  graph::NodeId u = graph::kInvalidNode;
  graph::NodeId v = graph::kInvalidNode;
  double objective_before = 0.0;  ///< seconds
  double objective_after = 0.0;   ///< seconds
  double cost_after = 0.0;        ///< total wirelength (um) after this step
};

struct LdrgOptions {
  /// Maximum number of extra edges added (the paper reports iterations one
  /// and two separately; unbounded runs terminate on their own, typically
  /// after ~2 iterations).
  std::size_t max_added_edges = std::numeric_limits<std::size_t>::max();

  /// A candidate edge is accepted only if it improves the objective by
  /// more than this fraction -- guards against chasing solver noise.
  double min_relative_improvement = 1e-9;

  /// Wirelength budget: candidates that would push total cost above
  /// max_cost_ratio x the initial routing's cost are never taken. The
  /// paper reports delay improvements *at* their incurred cost; this knob
  /// turns LDRG into the constrained form routers deploy (and sweeps the
  /// delay-cost Pareto front, bench/ext_pareto).
  double max_cost_ratio = std::numeric_limits<double>::infinity();

  /// CSORG objective weights (Section 5.1), indexed like graph.sinks();
  /// empty selects the ORG objective max_i t(n_i).
  std::vector<double> criticality;

  /// Candidate-scan thread count. Results are bit-identical for every
  /// value: candidates are scored independently over statically chunked
  /// index ranges and the winner is reduced by (delay, candidate index),
  /// so the lane count can never change the chosen edge.
  ParallelConfig parallel;

  /// Lets the evaluator stop scoring a candidate as soon as its delay
  /// provably exceeds the best score seen so far (bounded_max_delay). A
  /// pure branch-and-bound cutoff: pruned candidates were never winners,
  /// so the selected edges and reported objectives are unchanged. Only
  /// applies to the ORG (max-delay) objective without an incremental
  /// scorer; disable to force full scoring of every candidate.
  bool bounded_scoring = true;

  /// Optional Elmore-style screen (non-owning; must outlive the call).
  /// When set, each round first ranks every budget-filtered candidate with
  /// the screen's delta scorer (make_candidate_scorer), keeps the 4 best,
  /// and scans only those with `evaluator` -- the paper's H2/H3 result
  /// (Elmore ranks candidates the way SPICE does) makes this a
  /// near-lossless way to avoid a quadratic number of accurate
  /// evaluations per round. `evaluator` still gates and reports every
  /// accepted edge. A screen without a delta scorer is rejected with
  /// std::invalid_argument.
  const delay::DelayEvaluator* screen = nullptr;

  /// Cooperative deadline/cancellation. Polled at every round boundary
  /// and every 16 candidates inside each scan lane; when it trips, the
  /// lanes drain cooperatively (the pool joins cleanly) and ldrg unwinds
  /// with NtrError (kTimeout / kCancelled). An un-engaged token (the
  /// default) is one hoisted bool test -- the scan and its result stay
  /// bit-identical.
  runtime::StopToken stop{};
};

struct LdrgResult {
  graph::RoutingGraph graph;
  double initial_objective = 0.0;
  double final_objective = 0.0;
  double initial_cost = 0.0;
  double final_cost = 0.0;
  std::vector<LdrgStep> steps;

  [[nodiscard]] std::size_t added_edges() const { return steps.size(); }
  [[nodiscard]] bool improved() const { return !steps.empty(); }
};

/// The Low Delay Routing Graph algorithm (Figure 4 of the paper): starting
/// from `initial` (an MST, Steiner tree, or ERT -- any connected routing),
/// repeatedly add the node pair whose extra edge minimizes the delay
/// objective, while any candidate still improves it. The delay oracle is
/// pluggable; the paper's reference configuration uses the transient
/// (SPICE-substitute) evaluator.
///
/// When `initial` contains Steiner nodes this is exactly the SLDRG loop of
/// Figure 6: candidate endpoints range over pins and Steiner points alike.
/// With options.screen set, each round's candidate list is narrowed to the
/// screen's top-k ranking before the evaluator scans it (screened LDRG).
LdrgResult ldrg(const graph::RoutingGraph& initial,
                const delay::DelayEvaluator& evaluator, const LdrgOptions& options = {});

}  // namespace ntr::core
