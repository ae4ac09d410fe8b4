#include "flow/timing_flow.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/parallel.h"
#include "runtime/stop.h"
#include "runtime/status.h"

namespace ntr::flow {

namespace {

/// A net is re-routed when any of its sink pins has criticality
/// (= max(0, (period - slack)/period)) at or above this threshold.
constexpr double kCriticalityThreshold = 0.8;
/// Timing-convergence iterations (route -> STA -> reroute ...).
constexpr unsigned kMaxIterations = 3;

void validate(const sta::TimingGraph& design, const std::vector<BoundNet>& nets) {
  for (const BoundNet& b : nets) {
    b.net.validate();
    if (b.sta_net >= design.net_count())
      throw std::invalid_argument("run_timing_flow: bad STA net for " + b.name);
    if (b.sink_gates.size() != b.net.sink_count())
      throw std::invalid_argument(
          "run_timing_flow: sink_gates must match the net's sinks for " + b.name);
    const auto& sta_sinks = design.net(b.sta_net).sinks;
    for (const sta::GateId g : b.sink_gates) {
      if (std::find(sta_sinks.begin(), sta_sinks.end(), g) == sta_sinks.end())
        throw std::invalid_argument("run_timing_flow: gate is not a sink of " +
                                    b.name);
    }
  }
}

/// Measures a routing and pushes its per-sink delays into the design.
void annotate(sta::TimingGraph& design, const BoundNet& bound,
              const graph::RoutingGraph& routing,
              const delay::DelayEvaluator& measure) {
  const std::vector<double> delays = measure.sink_delays(routing);
  for (std::size_t i = 0; i < bound.sink_gates.size(); ++i)
    design.set_interconnect_delay(bound.sta_net, bound.sink_gates[i], delays[i]);
}

/// Folds one failure into a net's record: the first failure owns the
/// status, and the disposition/rung only ever worsen.
void record_failure(core::NetOutcome& outcome, core::NetDisposition disposition,
                    int rung, const runtime::Status& status) {
  if (outcome.status.ok()) outcome.status = status;
  if (static_cast<int>(disposition) > static_cast<int>(outcome.disposition)) {
    outcome.disposition = disposition;
    outcome.rung = rung;
  }
}

/// annotate() with the per-net ladder: primary measure, then graph
/// Elmore, then leave the previous annotation standing (quarantine).
/// Under OnError::kFail the primary failure is rethrown. Returns false
/// only when even the Elmore fallback failed.
bool annotate_resilient(sta::TimingGraph& design, const BoundNet& bound,
                        const graph::RoutingGraph& routing,
                        const delay::DelayEvaluator& measure,
                        const delay::GraphElmoreEvaluator& elmore,
                        core::OnError policy, core::NetOutcome& outcome) {
  try {
    annotate(design, bound, routing, measure);
    return true;
  } catch (const std::exception& e) {
    if (policy == core::OnError::kFail) throw;
    const runtime::Status status = runtime::exception_to_status(e);
    if (policy == core::OnError::kSkip) {
      record_failure(outcome, core::NetDisposition::kQuarantined, 0, status);
      return false;
    }
    record_failure(outcome, core::NetDisposition::kDegraded, 1, status);
  }
  try {
    annotate(design, bound, routing, elmore);
    return true;
  } catch (const std::exception& e) {
    record_failure(outcome, core::NetDisposition::kQuarantined, 1,
                   runtime::exception_to_status(e));
    return false;
  }
}

}  // namespace

FlowResult run_timing_flow(sta::TimingGraph& design, std::vector<BoundNet>& nets,
                           const delay::DelayEvaluator& measure,
                           const FlowOptions& options) {
  validate(design, nets);

  const core::OnError policy = options.resilience.on_error;
  const runtime::StopToken& stop = options.resilience.stop;
  const bool stop_engaged = stop.engaged();
  const delay::GraphElmoreEvaluator elmore(options.tech);

  FlowResult result;
  result.outcomes.resize(nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    result.outcomes[i].net_index = i;
    result.outcomes[i].net_name = nets[i].name;
  }

  result.routings.reserve(nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const BoundNet& b = nets[i];
    // MST construction is pure geometry and cannot fail; measurement can.
    result.routings.push_back(graph::mst_routing(b.net));
    if (stop_engaged && stop.poll() != runtime::StatusCode::kOk) {
      if (policy == core::OnError::kFail)
        stop.throw_if_stopped("timing flow initial pass");
      // Budget spent: annotate the remaining nets with the cheap Elmore
      // model so the batch still completes with every net accounted for.
      record_failure(result.outcomes[i], core::NetDisposition::kDegraded, 1,
                     runtime::Status(stop.poll(),
                                     "timing flow initial pass: budget spent "
                                     "before net " +
                                         b.name));
      try {
        annotate(design, b, result.routings.back(), elmore);
      } catch (const std::exception& e) {
        record_failure(result.outcomes[i], core::NetDisposition::kQuarantined, 1,
                       runtime::exception_to_status(e));
      }
      continue;
    }
    annotate_resilient(design, b, result.routings.back(), measure, elmore,
                       policy, result.outcomes[i]);
  }
  result.initial_report = sta::analyze(design, options.clock_period_s);
  result.final_report = result.initial_report;

  for (unsigned iter = 0; iter < kMaxIterations; ++iter) {
    if (stop_engaged && stop.poll() != runtime::StatusCode::kOk) {
      // Out of budget at an iteration boundary: every routing is valid and
      // annotated, so stopping the optimization here degrades nothing.
      if (policy == core::OnError::kFail)
        stop.throw_if_stopped("timing flow iteration");
      break;
    }

    // Which nets hold critical pins under the current timing?
    std::vector<std::size_t> targets;
    std::vector<std::vector<double>> alphas;
    for (std::size_t i = 0; i < nets.size(); ++i) {
      std::vector<double> alpha =
          sta::sink_criticalities(design, result.final_report, nets[i].sta_net);
      // Map from the STA net's sink order to the bound net's sink order.
      // sink_criticalities is indexed by the STA net's sinks; re-project
      // onto this net's sink_gates.
      const auto& sta_sinks = design.net(nets[i].sta_net).sinks;
      std::vector<double> projected(nets[i].sink_gates.size(), 0.0);
      for (std::size_t k = 0; k < nets[i].sink_gates.size(); ++k) {
        for (std::size_t s = 0; s < sta_sinks.size(); ++s) {
          if (sta_sinks[s] == nets[i].sink_gates[k]) {
            projected[k] = alpha[s];
            break;
          }
        }
      }
      const double worst =
          projected.empty()
              ? 0.0
              : *std::max_element(projected.begin(), projected.end());
      if (worst >= kCriticalityThreshold) {
        targets.push_back(i);
        alphas.push_back(std::move(projected));
      }
    }
    if (targets.empty()) break;

    result.iterations = iter + 1;
    // Each critical net is an independent CSORG problem: reroute them on
    // parallel lanes (static chunking keeps the assignment deterministic),
    // then annotate the shared timing graph serially in input order. A
    // lane catches its own nets' failures -- one bad matrix must not take
    // down the other lanes' work -- and leaves the fallback decision to
    // the serial pass below.
    std::vector<graph::RoutingGraph> rerouted(targets.size());
    std::vector<runtime::Status> lane_status(targets.size());
    {
      const std::size_t lanes = options.parallel.resolved_threads();
      std::unique_ptr<core::ThreadPool> pool;
      if (lanes > 1 && targets.size() > 1)
        pool = std::make_unique<core::ThreadPool>(lanes);
      core::parallel_chunks(
          pool.get(), targets.size(),
          [&](std::size_t, std::size_t begin, std::size_t end) {
            for (std::size_t k = begin; k < end; ++k) {
              try {
                core::LdrgOptions ldrg_opts = options.ldrg;
                ldrg_opts.criticality = alphas[k];
                ldrg_opts.stop = stop;
                rerouted[k] = core::ldrg(graph::mst_routing(nets[targets[k]].net),
                                         measure, ldrg_opts)
                                  .graph;
              } catch (const std::exception& e) {
                lane_status[k] = runtime::exception_to_status(e);
              }
            }
          });
    }
    for (std::size_t k = 0; k < targets.size(); ++k) {
      const std::size_t i = targets[k];
      if (!lane_status[k].ok()) {
        if (policy == core::OnError::kFail)
          throw runtime::NtrError(lane_status[k].code(), lane_status[k].message());
        if (policy == core::OnError::kSkip) {
          // Keep the net's current (valid, annotated) routing untouched.
          record_failure(result.outcomes[i], core::NetDisposition::kQuarantined,
                         0, lane_status[k]);
          continue;
        }
        record_failure(result.outcomes[i], core::NetDisposition::kDegraded, 1,
                       lane_status[k]);
        // Rung 1: Elmore-driven reroute, still deadline-bounded (it fails
        // in one poll when the budget is already spent).
        try {
          core::LdrgOptions ldrg_opts = options.ldrg;
          ldrg_opts.criticality = alphas[k];
          ldrg_opts.stop = stop;
          rerouted[k] =
              core::ldrg(graph::mst_routing(nets[i].net), elmore, ldrg_opts).graph;
        } catch (const std::exception&) {
          // Rung 2: keep the seed tree -- always valid, never times out.
          record_failure(result.outcomes[i], core::NetDisposition::kDegraded, 2,
                         lane_status[k]);
          rerouted[k] = graph::mst_routing(nets[i].net);
        }
      }
      result.routings[i] = std::move(rerouted[k]);
      annotate_resilient(design, nets[i], result.routings[i], measure, elmore,
                         policy, result.outcomes[i]);
      ++result.nets_rerouted;
    }

    const sta::TimingReport report = sta::analyze(design, options.clock_period_s);
    const bool improved = report.worst_slack_s > result.final_report.worst_slack_s;
    result.final_report = report;
    if (!improved) break;
  }
  return result;
}

}  // namespace ntr::flow
