#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/routing_graph.h"
#include "runtime/stop.h"
#include "sim/transient.h"
#include "spice/graph_netlist.h"
#include "spice/technology.h"

namespace ntr::delay {

/// Fast what-if oracle for one routing revision: per-sink delays of the
/// attached graph plus one candidate edge (u,v), without materializing the
/// trial graph. Obtained from DelayEvaluator::make_candidate_scorer; valid
/// until the attached graph mutates. Implementations must be safe for
/// concurrent const calls -- LDRG's parallel scan queries one scorer from
/// every worker lane.
class CandidateScorer {
 public:
  virtual ~CandidateScorer() = default;

  /// Delays (seconds) per sink, ordered like g.sinks(), of the attached
  /// graph with edge (u,v) added. Must agree with sink_delays() on the
  /// materialized trial graph to ~1e-12.
  [[nodiscard]] virtual std::vector<double> candidate_sink_delays(
      graph::NodeId u, graph::NodeId v) const = 0;
};

/// The routing objective over per-sink delays: max_i t(n_i), the ORG
/// objective, for an empty `criticality`; otherwise sum_i alpha_i t(n_i),
/// the CSORG objective of Section 5.1, with `criticality` indexed like the
/// delays (std::invalid_argument if the sizes differ).
[[nodiscard]] double sink_objective(std::span<const double> sink_delays,
                                    std::span<const double> criticality);

/// Pluggable source-to-sink delay oracle over routing graphs. Every router
/// in this library (LDRG, heuristics, ERT, wire sizing) consumes this
/// interface, so the cost/accuracy point is a caller decision: the
/// transient engine plays the paper's SPICE role, the moment evaluators
/// play the Elmore screening role.
class DelayEvaluator {
 public:
  virtual ~DelayEvaluator() = default;

  /// Delay (seconds) per sink, ordered like g.sinks(). Implementations may
  /// require specific topologies (the tree-Elmore evaluator throws on
  /// cyclic graphs, as the paper's H2/H3 discussion demands).
  [[nodiscard]] virtual std::vector<double> sink_delays(
      const graph::RoutingGraph& g) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// t(G) = max over sinks (the ORG objective).
  [[nodiscard]] double max_delay(const graph::RoutingGraph& g) const;

  /// sink_objective of g's sink delays: t(G) for an empty `criticality`,
  /// else the CSORG sum.
  [[nodiscard]] double objective(const graph::RoutingGraph& g,
                                 std::span<const double> criticality) const;

  /// Optional incremental engine for add-edge what-if queries against `g`.
  /// Evaluators without a delta path return nullptr and callers fall back
  /// to sink_delays() on a trial copy. The default has no delta path.
  [[nodiscard]] virtual std::unique_ptr<CandidateScorer> make_candidate_scorer(
      const graph::RoutingGraph& g) const {
    (void)g;
    return nullptr;
  }

  /// max_delay with permission to give up: an implementation may return
  /// +infinity as soon as it can prove max_delay(g) > give_up_s, and must
  /// return exactly max_delay(g) whenever that value is <= give_up_s.
  /// LDRG's candidate scan uses this as a branch-and-bound cutoff -- a
  /// candidate whose delay provably exceeds the best score seen so far
  /// can never be selected, so its evaluation may stop early. The default
  /// ignores the bound.
  [[nodiscard]] virtual double bounded_max_delay(const graph::RoutingGraph& g,
                                                 double give_up_s) const {
    (void)give_up_s;
    return max_delay(g);
  }
};

/// O(k) tree Elmore formula; throws std::invalid_argument on non-trees.
class ElmoreTreeEvaluator final : public DelayEvaluator {
 public:
  explicit ElmoreTreeEvaluator(const spice::Technology& tech) : tech_(tech) {}
  [[nodiscard]] std::vector<double> sink_delays(
      const graph::RoutingGraph& g) const override;
  [[nodiscard]] std::string name() const override { return "elmore-tree"; }

 private:
  spice::Technology tech_;
};

/// Graph Elmore (first moment) via one SPD solve; works on any connected
/// topology.
class GraphElmoreEvaluator final : public DelayEvaluator {
 public:
  explicit GraphElmoreEvaluator(const spice::Technology& tech) : tech_(tech) {}
  [[nodiscard]] std::vector<double> sink_delays(
      const graph::RoutingGraph& g) const override;
  [[nodiscard]] std::string name() const override { return "elmore-graph"; }
  /// Sherman-Morrison delta engine (delay/incremental_elmore.h): one
  /// O(n^3) setup, then O(n) per candidate instead of a fresh SPD solve.
  [[nodiscard]] std::unique_ptr<CandidateScorer> make_candidate_scorer(
      const graph::RoutingGraph& g) const override;

 private:
  spice::Technology tech_;
};

/// D2M two-pole metric; two SPD solves, any topology.
class TwoPoleEvaluator final : public DelayEvaluator {
 public:
  explicit TwoPoleEvaluator(const spice::Technology& tech) : tech_(tech) {}
  [[nodiscard]] std::vector<double> sink_delays(
      const graph::RoutingGraph& g) const override;
  [[nodiscard]] std::string name() const override { return "two-pole-d2m"; }

 private:
  spice::Technology tech_;
};

/// Full transient 50%-threshold measurement through the in-repo circuit
/// simulator: the accurate-but-costly oracle, standing in for SPICE.
class TransientEvaluator final : public DelayEvaluator {
 public:
  explicit TransientEvaluator(const spice::Technology& tech,
                              spice::NetlistOptions netlist_options = {},
                              sim::TransientOptions transient_options = {})
      : tech_(tech),
        netlist_options_(netlist_options),
        transient_options_(transient_options) {}

  [[nodiscard]] std::vector<double> sink_delays(
      const graph::RoutingGraph& g) const override;
  [[nodiscard]] std::string name() const override { return "transient"; }
  /// Stops time-stepping once the simulated time passes give_up_s with a
  /// sink still below threshold (its crossing then provably exceeds the
  /// bound) and reports +infinity. Exact whenever the true max delay is
  /// within the bound.
  [[nodiscard]] double bounded_max_delay(const graph::RoutingGraph& g,
                                         double give_up_s) const override;

 private:
  /// Netlist, sink watch list and one crossing march cut off at give_up_s.
  [[nodiscard]] sim::TransientSimulator::ThresholdReport measure(
      const graph::RoutingGraph& g, double give_up_s) const;

  spice::Technology tech_;
  spice::NetlistOptions netlist_options_;
  sim::TransientOptions transient_options_;
};

/// Constructs the evaluator the command surfaces name: "transient" (the
/// SPICE-role oracle; `stop` is threaded into its time-march so
/// deadlines/cancellation reach the inner loop), "elmore" (tree Elmore),
/// "graph-elmore", or "d2m". nullptr for unknown names. One instance per
/// request/solve keeps callers re-entrant: evaluators share nothing.
[[nodiscard]] std::unique_ptr<DelayEvaluator> make_evaluator(
    const std::string& name, const spice::Technology& tech,
    const runtime::StopToken& stop = {});

/// True for exactly the names make_evaluator accepts, so the command
/// surfaces validate against the one list above.
[[nodiscard]] bool is_evaluator_name(const std::string& name);

}  // namespace ntr::delay
