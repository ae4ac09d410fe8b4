#include "core/ldrg.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "check/contracts.h"
#include "core/annotations.h"
#include "check/faultinject.h"
#include "graph/validate.h"

namespace ntr::core {

namespace {

struct Candidate {
  graph::NodeId u = graph::kInvalidNode;
  graph::NodeId v = graph::kInvalidNode;
};

/// Screened candidates verified with the evaluator per round. 1 would
/// trust the screen completely; a few more close the small fidelity gap
/// between the screen and the evaluator.
constexpr std::size_t kScreenTopK = 4;

/// Narrows `candidates` to the kScreenTopK best by the screen's
/// delta scorer, best first. Every candidate's score lands in its own
/// pre-sized slot, and the partial_sort permutation depends only on
/// comparison results, so the ranking is bit-identical for every lane
/// count. Ties keep whatever order partial_sort leaves them in; the
/// verify scan then breaks its own ties by rank.
void keep_screened_top_k(std::vector<Candidate>& candidates,
                         const graph::RoutingGraph& g, const LdrgOptions& options,
                         ThreadPool* pool) {
  const std::unique_ptr<delay::CandidateScorer> screen =
      options.screen->make_candidate_scorer(g);
  if (!screen)
    throw std::invalid_argument("ldrg: the screen evaluator has no delta scorer");
  std::vector<double> scores(candidates.size());
  // Unbounded: every slot must be filled, so the argmin's winner is unused.
  static_cast<void>(parallel_argmin(
      pool, candidates.size(), options.stop, "ldrg screen scan",
      std::numeric_limits<double>::infinity(), [&](std::size_t i, double) {
        scores[i] = delay::sink_objective(
            screen->candidate_sink_delays(candidates[i].u, candidates[i].v),
            options.criticality);
        return scores[i];
      }));
  std::vector<std::size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const std::size_t top_k = std::min(kScreenTopK, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(top_k),
                    order.end(),
                    [&](std::size_t a, std::size_t b) { return scores[a] < scores[b]; });
  std::vector<Candidate> ranked;
  ranked.reserve(top_k);
  for (std::size_t k = 0; k < top_k; ++k) ranked.push_back(candidates[order[k]]);
  candidates = std::move(ranked);
}

}  // namespace

// NTR_HOT: the per-round candidate scan is the paper's O(n^2) inner
// loop; everything this reaches must be allocation-disciplined.
NTR_HOT LdrgResult ldrg(const graph::RoutingGraph& initial,
                        const delay::DelayEvaluator& evaluator,
                        const LdrgOptions& options) {
  if (!initial.is_connected())
    throw std::invalid_argument("ldrg: initial routing must be connected");

  LdrgResult result;
  result.graph = initial;
  result.initial_objective = evaluator.objective(result.graph, options.criticality);
  result.initial_cost = result.graph.total_wirelength();
  result.final_objective = result.initial_objective;
  result.final_cost = result.initial_cost;

  const double cost_budget = options.max_cost_ratio * result.initial_cost;
  const bool weighted = !options.criticality.empty();

  const std::size_t lanes = options.parallel.resolved_threads();
  std::unique_ptr<ThreadPool> pool;
  if (lanes > 1) pool = std::make_unique<ThreadPool>(lanes);

  while (result.steps.size() < options.max_added_edges) {
    // Round boundary: the natural resumption point -- result.graph holds a
    // complete, valid routing after every accepted edge, so unwinding here
    // loses at most one round of scan work.
    NTR_FAULT_POINT(kLdrgDeadline);
    if (options.stop.engaged()) options.stop.throw_if_stopped("ldrg round");

    const double current = result.final_objective;
    const double accept_below =
        current * (1.0 - options.min_relative_improvement);

    // The paper's step 2: exists e_ij in N x N improving t(G)? Enumerate
    // every absent pair (pins and Steiner points alike) within the cost
    // budget; the enumeration order defines the tie-break index.
    NTR_FAULT_POINT(kLdrgAllocation);
    std::vector<Candidate> candidates;
    const std::size_t pair_bound = result.graph.node_count() *
                                   (result.graph.node_count() - 1) / 2;
    candidates.reserve(pair_bound);
    for (graph::NodeId u = 0; u < result.graph.node_count(); ++u) {
      for (graph::NodeId v = u + 1; v < result.graph.node_count(); ++v) {
        if (result.graph.has_edge(u, v)) continue;
        const double edge_len = geom::manhattan_distance(
            result.graph.node(u).pos, result.graph.node(v).pos);
        if (result.final_cost + edge_len > cost_budget) continue;
        candidates.push_back({u, v});
      }
    }
    if (candidates.empty()) break;

    // Screened LDRG: only the screen's top-k, in rank order, reach the
    // evaluator; the rank then defines the tie-break index.
    if (options.screen != nullptr)
      keep_screened_top_k(candidates, result.graph, options, pool.get());

    // Incremental path: evaluators with a delta engine (Sherman-Morrison
    // Elmore) score a candidate in O(n) off the cached factorization of
    // the *current* graph. The cache is rebuilt here each round -- the
    // accepted edge of the previous round invalidated it.
    const std::unique_ptr<delay::CandidateScorer> scorer =
        evaluator.make_candidate_scorer(result.graph);

    // The lane bound starts at the acceptance threshold: a candidate whose
    // delay provably exceeds the lane's best can never become the winner,
    // so its evaluation may stop early (bounded_max_delay).
    const Argmin best = parallel_argmin(
        pool.get(), candidates.size(), options.stop, "ldrg candidate scan",
        accept_below, [&](std::size_t i, double bound) {
          const Candidate& c = candidates[i];
          if (scorer)
            return delay::sink_objective(scorer->candidate_sink_delays(c.u, c.v),
                                         options.criticality);
          graph::RoutingGraph trial = result.graph;
          trial.add_edge(c.u, c.v);
          return (!weighted && options.bounded_scoring)
                     ? evaluator.bounded_max_delay(trial, bound)
                     : evaluator.objective(trial, options.criticality);
        });
    if (!best.found()) break;  // no candidate improves t(G)

    const Candidate winner = candidates[best.index];
    result.graph.add_edge(winner.u, winner.v);

    // Delta scores carry O(1e-12) relative error; re-measure the accepted
    // routing with the exact oracle so every reported objective is the
    // evaluator's own number. (Without a scorer the scan value *is* the
    // exact evaluator output for this graph, bit for bit.)
    double accepted = best.score;
    if (scorer) {
      accepted = evaluator.objective(result.graph, options.criticality);
      if (!(accepted < accept_below)) {
        // The delta promised an improvement the exact solve cannot
        // confirm (a sub-1e-12 margin): undo and stop.
        const auto e = result.graph.find_edge(winner.u, winner.v);
        NTR_CHECK(e.has_value());
        result.graph.remove_edge(*e);
        break;
      }
    }

    result.final_objective = accepted;
    result.final_cost = result.graph.total_wirelength();
    // ntr-alloc-in-hot-path(one step per accepted round; the trace IS the result)
    result.steps.push_back(
        LdrgStep{winner.u, winner.v, current, accepted, result.final_cost});
  }

  // Every accepted edge strictly improved the objective and stayed within
  // the wirelength budget, and edge insertion cannot disconnect a graph.
  NTR_CHECK(result.final_objective <= result.initial_objective);
  NTR_CHECK(result.final_cost <=
            std::max(result.initial_cost, cost_budget) * (1.0 + 1e-12));
  NTR_DCHECK(check::require(
      graph::validate_graph(result.graph, {.require_connected = true}),
      "ldrg postcondition"));
  return result;
}

}  // namespace ntr::core
