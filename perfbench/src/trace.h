#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "delay/evaluator.h"
#include "spice/technology.h"

/// Spans and counters recorded by the benchmark around its calls into each
/// library module. A Tracer belongs to one thread; the library workloads
/// route with one thread, and each serve client owns its own Tracer.
namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

struct Span {
  const char* name = "";  ///< a string literal: "<module>.<operation>"
  double start_ms = 0.0;  ///< since the tracer's epoch
  double end_ms = 0.0;
  std::size_t parent = kNoParent;  ///< index of the enclosing span
  std::uint64_t item = 0;          ///< the net or request being worked on
};

class Tracer {
 public:
  Tracer();

  /// Opens a span nested in the innermost open one; returns its index.
  std::size_t begin(const char* name);
  void end(std::size_t span);

  /// The net or request id stamped on spans opened from now on.
  void set_item(std::uint64_t item) { item_ = item; }

  /// Adds to a named counter (counts, or times in ms).
  void add(const std::string& counter, double amount);
  [[nodiscard]] double counter(const std::string& name) const;

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Appends another tracer's spans (re-parented) and counters.
  void merge(const Tracer& other);

  /// Writes one JSON object per span.
  void write_jsonl(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::map<std::string, double> counters_;
  std::uint64_t item_ = 0;
};

/// Opens a span for the enclosing scope; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), span_(tracer ? tracer->begin(name) : kNoParent) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::size_t span_;
};

/// The name of the spans SpanTransientEvaluator's probe runs in. Probe time
/// is trace overhead: summarize() leaves it out of every enclosing span's
/// total.
inline constexpr const char* kProbeSpan = "bench.probe";

/// Per span name: total duration (minus the kProbeSpan spans inside it),
/// self time (duration minus the part its direct child spans cover) and
/// span count.
struct SpanTotals {
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::size_t count = 0;
};

[[nodiscard]] std::map<std::string, SpanTotals> summarize(const std::vector<Span>& spans);

/// Decorates any evaluator with delay-layer spans and counters. All four
/// virtuals forward to the wrapped evaluator, so its incremental scorer and
/// bounded (cutoff) paths stay engaged and the routing is bit-identical.
/// Counters: core.rounds (one make_candidate_scorer call per LDRG round),
/// delay.scorer_builds, delay.scored, delay.score_ms, delay.cutoffs.
/// Per-candidate scoring is counted, not spanned: a span per candidate
/// would cost more than the candidate.
class TracingEvaluator final : public ntr::delay::DelayEvaluator {
 public:
  TracingEvaluator(const ntr::delay::DelayEvaluator& inner, Tracer& tracer)
      : inner_(inner), tracer_(&tracer) {}

  [[nodiscard]] std::vector<double> sink_delays(
      const ntr::graph::RoutingGraph& g) const override;
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::unique_ptr<ntr::delay::CandidateScorer> make_candidate_scorer(
      const ntr::graph::RoutingGraph& g) const override;
  [[nodiscard]] double bounded_max_delay(const ntr::graph::RoutingGraph& g,
                                         double give_up_s) const override;

 private:
  const ntr::delay::DelayEvaluator& inner_;
  Tracer* tracer_;
};

/// The transient evaluator rebuilt from the public spice and sim entry
/// points (spice::build_netlist, sim::TransientSimulator) exactly as
/// delay::TransientEvaluator composes them, with a span around each step:
/// spice.netlist, sim.setup (MNA assembly and DC solve), sim.march (time
/// march, including the simulator's lazy LU factorizations). It must
/// return the same bits as delay::TransientEvaluator with default options.
///
/// Every kFactorProbeEvery-th simulation is followed by a probe, in a
/// kProbeSpan span:
///  - The simulator factors inside measure_crossings, which no public entry
///    point splits, so the probe re-factors the same two companion
///    matrices (counters linalg.factor_probe_ms, linalg.factor_probes,
///    which layer_metrics scales to every simulation).
///  - It evaluates the same graph with the library's own
///    delay::TransientEvaluator, throws std::logic_error when the bits
///    differ, and adds both times (counters bench.probe_copy_ms,
///    bench.probe_library_ms), so a copy that no longer times what the
///    library runs shows in bench.copy_time_gap.
/// Any change to delay::TransientEvaluator or sim::TransientSimulator must
/// be mirrored here, in the evaluator and in the probe.
class SpanTransientEvaluator final : public ntr::delay::DelayEvaluator {
 public:
  static constexpr std::size_t kFactorProbeEvery = 4;

  SpanTransientEvaluator(const ntr::spice::Technology& tech, Tracer& tracer)
      : tech_(tech), tracer_(&tracer), library_(tech) {}

  [[nodiscard]] std::vector<double> sink_delays(
      const ntr::graph::RoutingGraph& g) const override;
  [[nodiscard]] std::string name() const override { return "transient"; }
  [[nodiscard]] double bounded_max_delay(const ntr::graph::RoutingGraph& g,
                                         double give_up_s) const override;

 private:
  struct Measurement {
    std::vector<double> crossing_s;
    double max_crossing_s = 0.0;
  };
  /// `bounded` names the entry point the probe compares against.
  [[nodiscard]] Measurement measure(const ntr::graph::RoutingGraph& g, double give_up_s,
                                    bool bounded) const;

  ntr::spice::Technology tech_;
  Tracer* tracer_;
  ntr::delay::TransientEvaluator library_;
};

}  // namespace perfbench
