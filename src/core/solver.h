#pragma once

#include <string>
#include <vector>

#include "core/ldrg.h"
#include "core/parallel.h"
#include "delay/evaluator.h"
#include "graph/net.h"
#include "graph/routing_graph.h"
#include "runtime/stop.h"
#include "spice/technology.h"

namespace ntr::core {

/// All routing constructions this library offers, from classical trees to
/// the paper's non-tree routings.
enum class Strategy {
  kMst,          ///< minimum spanning tree (Prim)
  kStar,         ///< shortest-path-tree / source-rooted star
  kSteinerTree,  ///< Iterated 1-Steiner tree
  kErt,          ///< Elmore Routing Tree (paper ref [4])
  kSert,         ///< Steiner ERT
  kLdrg,         ///< LDRG from the MST (the paper's main algorithm, Fig. 4)
  kSldrg,        ///< LDRG from the Steiner tree (Fig. 6)
  kErtLdrg,      ///< LDRG seeded with an ERT (Table 7)
  kH1,           ///< one-simulation source-connection heuristic
  kH2,           ///< Elmore-only source-connection heuristic
  kH3,           ///< pathlength x Elmore / new-edge-length heuristic
};

[[nodiscard]] std::string strategy_name(Strategy s);

struct SolverConfig {
  spice::Technology tech{};
  /// Candidate-evaluation thread count for the LDRG-family strategies.
  /// A non-default value overrides ldrg.parallel, so callers (the CLI's
  /// --threads, the bench harness's NTR_THREADS) can set one knob without
  /// reaching into the per-strategy options. Routing output is
  /// bit-identical for every thread count.
  ParallelConfig parallel{};
  /// Options forwarded to ldrg() for the LDRG-family strategies.
  LdrgOptions ldrg{};
  /// Cooperative deadline/cancellation for the whole solve. An engaged
  /// token overrides ldrg.stop (same pattern as `parallel`), is checked
  /// once on entry, and is polled by the LDRG rounds/lanes. Evaluator-side
  /// polling (the transient march) rides in the evaluator's own options.
  /// Trips unwind with NtrError (kTimeout / kCancelled).
  runtime::StopToken stop{};
};

struct Solution {
  Strategy strategy = Strategy::kMst;
  graph::RoutingGraph graph;
  /// Max source-sink delay under `evaluator` (seconds).
  double delay_s = 0.0;
  /// Total wirelength (um).
  double cost_um = 0.0;
};

/// One-call facade: construct a routing for `net` with the requested
/// strategy and measure it with `evaluator`. The evaluator drives both the
/// inner search of the LDRG/H1 strategies and the reported delay, exactly
/// as the paper drives its loop and its tables with SPICE.
Solution solve(const graph::Net& net, Strategy strategy,
               const delay::DelayEvaluator& evaluator, const SolverConfig& config = {});

}  // namespace ntr::core
