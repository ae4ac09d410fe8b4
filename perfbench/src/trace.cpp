#include "trace.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "linalg/dense_matrix.h"
#include "sim/mna.h"
#include "sim/transient.h"
#include "spice/graph_netlist.h"

namespace perfbench {

Tracer::Tracer() : epoch_(Clock::now()) {}

std::size_t Tracer::begin(const char* name) {
  Span s;
  s.name = name;
  s.start_ms = ms_between(epoch_, Clock::now());
  s.parent = open_.empty() ? kNoParent : open_.back();
  s.item = item_;
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t span) {
  if (open_.empty() || open_.back() != span)
    throw std::logic_error("tracer: spans must close innermost first");
  spans_[span].end_ms = ms_between(epoch_, Clock::now());
  open_.pop_back();
}

void Tracer::add(const std::string& counter, double amount) {
  counters_[counter] += amount;
}

double Tracer::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

void Tracer::merge(const Tracer& other) {
  const std::size_t offset = spans_.size();
  const double shift = ms_between(epoch_, other.epoch_);
  for (Span s : other.spans_) {
    if (s.parent != kNoParent) s.parent += offset;
    s.start_ms += shift;
    s.end_ms += shift;
    spans_.push_back(s);
  }
  for (const auto& [name, value] : other.counters_) counters_[name] += value;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out.precision(17);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ms\": " << s.start_ms << ", \"end_ms\": " << s.end_ms
        << ", \"parent\": "
        << (s.parent == kNoParent ? std::string("null") : std::to_string(s.parent))
        << ", \"item\": " << s.item << "}\n";
  }
  if (!out.flush()) throw std::runtime_error("cannot write spans to " + path);
}

std::map<std::string, SpanTotals> summarize(const std::vector<Span>& spans) {
  std::vector<double> child_ms(spans.size(), 0.0);
  std::vector<double> probe_ms(spans.size(), 0.0);  // kProbeSpan time inside
  for (const Span& s : spans) {
    const double duration = s.end_ms - s.start_ms;
    if (s.parent != kNoParent) child_ms.at(s.parent) += duration;
    if (std::string_view(s.name) == kProbeSpan)
      for (std::size_t p = s.parent; p != kNoParent; p = spans.at(p).parent)
        probe_ms[p] += duration;
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double duration = spans[i].end_ms - spans[i].start_ms;
    SpanTotals& t = totals[spans[i].name];
    t.total_ms += duration - probe_ms[i];
    t.self_ms += duration - child_ms[i];
    ++t.count;
  }
  return totals;
}

namespace {

/// Counts and times every candidate query, then reports the totals to the
/// tracer when LDRG drops the scorer at the end of its round.
class TracingScorer final : public ntr::delay::CandidateScorer {
 public:
  TracingScorer(std::unique_ptr<ntr::delay::CandidateScorer> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  ~TracingScorer() override {
    tracer_.add("delay.scored", static_cast<double>(scored_));
    tracer_.add("delay.score_ms", score_ms_);
  }
  TracingScorer(const TracingScorer&) = delete;
  TracingScorer& operator=(const TracingScorer&) = delete;

  [[nodiscard]] std::vector<double> candidate_sink_delays(
      ntr::graph::NodeId u, ntr::graph::NodeId v) const override {
    const Clock::time_point t0 = Clock::now();
    std::vector<double> delays = inner_->candidate_sink_delays(u, v);
    score_ms_ += ms_between(t0, Clock::now());
    ++scored_;
    return delays;
  }

 private:
  std::unique_ptr<ntr::delay::CandidateScorer> inner_;
  Tracer& tracer_;
  // Single-threaded by contract (see Tracer), so plain counters suffice.
  mutable std::size_t scored_ = 0;
  mutable double score_ms_ = 0.0;
};

}  // namespace

std::vector<double> TracingEvaluator::sink_delays(
    const ntr::graph::RoutingGraph& g) const {
  ScopedSpan span(tracer_, "delay.eval");
  return inner_.sink_delays(g);
}

std::unique_ptr<ntr::delay::CandidateScorer> TracingEvaluator::make_candidate_scorer(
    const ntr::graph::RoutingGraph& g) const {
  tracer_->add("core.rounds", 1.0);
  std::unique_ptr<ntr::delay::CandidateScorer> scorer;
  {
    ScopedSpan span(tracer_, "delay.scorer_build");
    scorer = inner_.make_candidate_scorer(g);
  }
  if (!scorer) return nullptr;
  tracer_->add("delay.scorer_builds", 1.0);
  return std::make_unique<TracingScorer>(std::move(scorer), *tracer_);
}

double TracingEvaluator::bounded_max_delay(const ntr::graph::RoutingGraph& g,
                                           double give_up_s) const {
  ScopedSpan span(tracer_, "delay.bounded");
  const double d = inner_.bounded_max_delay(g, give_up_s);
  if (std::isinf(d)) tracer_->add("delay.cutoffs", 1.0);
  return d;
}

std::vector<double> SpanTransientEvaluator::sink_delays(
    const ntr::graph::RoutingGraph& g) const {
  return measure(g, std::numeric_limits<double>::infinity(), false).crossing_s;
}

double SpanTransientEvaluator::bounded_max_delay(const ntr::graph::RoutingGraph& g,
                                                 double give_up_s) const {
  return measure(g, give_up_s, true).max_crossing_s;
}

SpanTransientEvaluator::Measurement SpanTransientEvaluator::measure(
    const ntr::graph::RoutingGraph& g, double give_up_s, bool bounded) const {
  const Clock::time_point start = Clock::now();
  std::optional<ntr::spice::GraphNetlist> netlist;
  {
    ScopedSpan span(tracer_, "spice.netlist");
    netlist.emplace(ntr::spice::build_netlist(g, tech_, ntr::spice::NetlistOptions{}));
  }
  std::vector<ntr::spice::CircuitNode> watch;
  watch.reserve(netlist->sink_graph_nodes.size());
  for (const ntr::graph::NodeId s : netlist->sink_graph_nodes)
    watch.push_back(netlist->graph_to_circuit[s]);

  std::optional<ntr::sim::TransientSimulator> simulator;
  {
    ScopedSpan span(tracer_, "sim.setup");
    simulator.emplace(netlist->circuit, ntr::sim::TransientOptions{});
  }
  Measurement m;
  {
    ScopedSpan span(tracer_, "sim.march");
    auto report =
        simulator->measure_crossings(watch, tech_.threshold_fraction, give_up_s);
    m.crossing_s = std::move(report.crossing_s);
    m.max_crossing_s = report.max_crossing_s;
  }
  const double copy_ms = ms_between(start, Clock::now());
  const double runs = tracer_->counter("sim.runs");
  tracer_->add("sim.runs", 1.0);
  tracer_->add("sim.node_sum", static_cast<double>(netlist->circuit.node_count()));
  if (static_cast<std::size_t>(runs) % kFactorProbeEvery != 0) return m;

  ScopedSpan probe(tracer_, kProbeSpan);
  // The two companion matrices the march factors: (G + C/h) for the
  // backward-Euler start-up steps and (G + 2C/h) for trapezoidal steps.
  const ntr::sim::MnaSystem mna = ntr::sim::assemble_mna(netlist->circuit);
  const double h = simulator->time_step();
  for (const double scale : {1.0 / h, 2.0 / h}) {
    ntr::linalg::DenseMatrix companion = mna.g;
    for (std::size_t r = 0; r < mna.size(); ++r)
      for (std::size_t c = 0; c < mna.size(); ++c) companion(r, c) += scale * mna.c(r, c);
    const Clock::time_point t0 = Clock::now();
    const ntr::linalg::LuFactorization lu(std::move(companion));
    tracer_->add("linalg.factor_probe_ms", ms_between(t0, Clock::now()));
  }
  tracer_->add("linalg.factor_probes", 1.0);

  // The library's own evaluator on the same graph.
  const Clock::time_point t0 = Clock::now();
  const bool same = bounded ? library_.bounded_max_delay(g, give_up_s) == m.max_crossing_s
                            : library_.sink_delays(g) == m.crossing_s;
  tracer_->add("bench.probe_library_ms", ms_between(t0, Clock::now()));
  tracer_->add("bench.probe_copy_ms", copy_ms);
  if (!same)
    throw std::logic_error(
        "SpanTransientEvaluator no longer matches delay::TransientEvaluator; "
        "mirror the library change in perfbench/src/trace.cpp");
  return m;
}

}  // namespace perfbench
