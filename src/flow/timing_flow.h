#pragma once

#include <string>
#include <vector>

#include "core/ldrg.h"
#include "core/parallel.h"
#include "core/resilience.h"
#include "delay/evaluator.h"
#include "graph/net.h"
#include "graph/routing_graph.h"
#include "spice/technology.h"
#include "sta/timing_graph.h"

namespace ntr::flow {

/// A signal net bound to the timing graph: geometry (pins, source first)
/// plus which STA net it realizes and which gate reads each sink pin.
struct BoundNet {
  std::string name;
  graph::Net net;
  sta::NetId sta_net = sta::kNoId;
  /// Aligned with net sinks (pins[1..k] -> sink_gates[0..k-1]).
  std::vector<sta::GateId> sink_gates;
};

struct FlowOptions {
  spice::Technology tech{};
  double clock_period_s = 5e-9;
  core::LdrgOptions ldrg{};
  /// Reroute-stage thread count: the critical nets of one iteration are
  /// independent CSORG problems, so they are rerouted on parallel lanes
  /// and re-annotated serially in input order -- the flow result is
  /// bit-identical for every lane count. The inner LDRG scans stay on
  /// ldrg.parallel (serial by default) to avoid nested pools.
  core::ParallelConfig parallel{};
  /// Per-net fault tolerance. resilience.stop bounds the whole flow (it
  /// is threaded into every reroute's LDRG loop and polled at net and
  /// iteration boundaries); failures walk the measure -> graph-Elmore ->
  /// keep-seed-tree ladder per net instead of aborting the batch, except
  /// under OnError::kFail, which rethrows the first failure.
  core::ResilienceOptions resilience{};
};

struct FlowResult {
  /// Final routing per bound net, in input order.
  std::vector<graph::RoutingGraph> routings;
  sta::TimingReport initial_report;  ///< after the MST pass
  sta::TimingReport final_report;
  unsigned iterations = 0;       ///< reroute iterations actually run
  std::size_t nets_rerouted = 0; ///< total reroute operations
  /// One record per bound net, in input order: which evaluator/routing
  /// rung stands behind routings[i] and the first failure (if any) that
  /// forced a fallback. All-kOk in a fault-free, deadline-free run.
  std::vector<core::NetOutcome> outcomes;
};

/// The timing-driven routing loop the paper's Section 5.1 sketches,
/// packaged end to end:
///
///   1. route every bound net as an MST; measure per-sink interconnect
///      delays with `measure` and annotate the timing graph,
///   2. STA: arrivals, slacks, per-pin criticalities,
///   3. re-route every net holding a pin of criticality
///      (= max(0, (period - slack)/period)) at or above 0.8 with
///      CSORG-weighted LDRG (criticalities as the alpha vector);
///      re-annotate,
///   4. repeat 2-3 until no net qualifies, nothing improves the worst
///      slack, or 3 iterations have run.
///
/// The design's interconnect delays are left annotated with the final
/// routing (so callers can keep analyzing it). Throws
/// std::invalid_argument on inconsistent bindings (a caller bug, not a
/// per-net condition); per-net numerical/timeout failures are absorbed by
/// the degradation ladder (see FlowOptions::resilience) unless the policy
/// is OnError::kFail.
FlowResult run_timing_flow(sta::TimingGraph& design, std::vector<BoundNet>& nets,
                           const delay::DelayEvaluator& measure,
                           const FlowOptions& options = {});

}  // namespace ntr::flow
