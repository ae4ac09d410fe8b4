#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "core/ldrg.h"
#include "expt/net_generator.h"
#include "refkernel.h"
#include "spice/technology.h"
#include "steiner/iterated_one_steiner.h"

namespace perfbench {

using ntr::graph::Net;

const MetricTable& end_to_end_metrics() {
  static const MetricTable kMetrics = {
      {"setup_s", "s"},         {"solve_s", "s"},          {"lat_p50_ms", "ms"},
      {"lat_tail_ms", "ms"},    {"delay_ratio", "ratio"},  {"cost_ratio", "ratio"},
      {"peak_rss_mb", "MB"},    {"ok_share", "share"},
  };
  return kMetrics;
}

const MetricTable& per_layer_metrics() {
  static const MetricTable kMetrics = {
      {"expt.gen_ms", "ms"},
      {"graph.seed_mst_ms", "ms"},
      {"steiner.i1s_ms", "ms"},
      {"steiner.points", "count"},
      {"core.ldrg_ms", "ms"},
      {"core.self_ms", "ms"},
      {"core.rounds", "count"},
      {"core.accepted_edges", "count"},
      {"core.candidates", "count"},
      {"core.useful_share", "share"},
      {"delay.evals", "count"},
      {"delay.eval_ms", "ms"},
      {"delay.bounded_evals", "count"},
      {"delay.bounded_ms", "ms"},
      {"delay.cutoff_share", "share"},
      {"delay.scorer_builds", "count"},
      {"delay.scorer_build_ms", "ms"},
      {"delay.scored", "count"},
      {"delay.score_ms", "ms"},
      {"delay.share", "share"},
      {"spice.netlist_ms", "ms"},
      {"sim.setup_ms", "ms"},
      {"sim.march_ms", "ms"},
      {"linalg.factor_ms", "ms"},
      {"sim.nodes", "count"},
      {"serve.rps", "1/s"},
      {"serve.local_solve_ms", "ms"},
      {"serve.overhead_ms", "ms"},
      {"serve.codec_ms", "ms"},
      {"serve.items", "count"},
      {"serve.overloaded", "count"},
      {"serve.retries", "count"},
      {"serve.watchdog_cancels", "count"},
      {"bench.ref_kernel_ms", "ms"},
      {"bench.ref_wakeup_us", "us"},
      {"bench.wall_solve_s", "s"},
      {"bench.trace_overhead", "share"},
      {"bench.copy_time_gap", "share"},
      {"bench.lat_tail_pct", "pct"},
      {"bench.lat_samples", "count"},
  };
  return kMetrics;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"transient_ldrg", "elmore_ldrg_large",
                                                  "sldrg_steiner", "serve_mix"};
  return kNames;
}

namespace {

/// Each corpus has one dominant size class holding its median and p75 net,
/// so the latency percentiles sit inside one size class, not between two.
const std::vector<LibraryWorkload>& library_workloads() {
  static const std::vector<LibraryWorkload> kWorkloads = {
      {"transient_ldrg", "transient", false, 2, {{10, 4}, {20, 6}, {30, 30}}},
      {"elmore_ldrg_large", "graph-elmore", false, kUnbounded, {{100, 24}, {150, 72}}},
      {"sldrg_steiner", "graph-elmore", true, kUnbounded,
       {{20, 10}, {30, 60}, {40, 6}, {50, 2}}},
  };
  return kWorkloads;
}

}  // namespace

const LibraryWorkload* find_library_workload(const std::string& name) {
  for (const LibraryWorkload& w : library_workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::uint64_t corpus_seed(const std::string& workload, unsigned slot,
                          std::uint64_t stream) {
  return fnv1a(workload + "/" + std::to_string(slot) + "/" + std::to_string(stream));
}

std::vector<Net> make_corpus(const LibraryWorkload& w, unsigned slot) {
  ntr::expt::NetGenerator gen(corpus_seed(w.name, slot));
  std::vector<Net> corpus;
  for (const auto& [pins, count] : w.sizes)
    for (std::size_t i = 0; i < count; ++i) corpus.push_back(gen.random_net(pins));
  return corpus;
}

Routed route_library_net(const Net& net, const LibraryWorkload& w,
                         const ntr::delay::DelayEvaluator& evaluator, Tracer* tracer) {
  ntr::graph::RoutingGraph seed;
  if (w.steiner_seed) {
    ScopedSpan span(tracer, "steiner.i1s");
    ntr::steiner::SteinerResult tree = ntr::steiner::iterated_one_steiner(net);
    if (tracer)
      tracer->add("steiner.points", static_cast<double>(tree.steiner_points.size()));
    seed = std::move(tree.graph);
  } else {
    ScopedSpan span(tracer, "graph.seed_mst");
    seed = ntr::graph::mst_routing(net);
  }
  ntr::core::LdrgOptions options;
  options.parallel.num_threads = 1;
  options.max_added_edges = w.max_added_edges;
  ntr::core::LdrgResult result;
  {
    ScopedSpan span(tracer, "core.ldrg");
    result = ntr::core::ldrg(seed, evaluator, options);
  }
  if (tracer)
    tracer->add("core.accepted_edges", static_cast<double>(result.steps.size()));
  Routed routed;
  routed.digest =
      NetDigest{routing_hash(result.graph), result.initial_objective,
                result.final_objective, result.initial_cost, result.final_cost};
  routed.graph = std::move(result.graph);
  return routed;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across exec,
  // so it would report the launching process's peak when that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string digest_path(const RunOptions& options) {
  return options.digest_dir + "/" + options.workload + ".digest";
}

std::string diagnostics_line(double kernel_ms, double wall_solve_s) {
  return "diagnostics {\"bench.ref_kernel_ms\": " + format_number(kernel_ms) +
         ", \"bench.wall_solve_s\": " + format_number(wall_solve_s) + "}";
}

std::vector<Metric> complete_per_layer(const std::vector<Metric>& measured) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it = std::find_if(measured.begin(), measured.end(),
                                 [&](const Metric& m) { return m.name == name; });
    out.push_back(Metric{name, it == measured.end() ? 0.0 : it->value, unit});
  }
  return out;
}

namespace {

constexpr int kSetupRepeats = 15;
/// Kernel samples on each side of a net that set its reference speed.
constexpr std::size_t kKernelHalfWindow = 2;

}  // namespace

double ratio_or_zero(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<Metric> layer_metrics(const Tracer& tracer, double passes, double speed) {
  const std::map<std::string, SpanTotals> spans = summarize(tracer.spans());
  const auto total = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_ms * speed / passes;
  };
  const auto count = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : static_cast<double>(it->second.count) / passes;
  };
  const auto counter = [&](const char* name) { return tracer.counter(name) / passes; };

  const double ldrg_ms = total("core.ldrg");
  const double score_ms = counter("delay.score_ms") * speed;
  const double delay_ms = total("delay.eval") + total("delay.bounded") +
                          total("delay.scorer_build") + score_ms;
  const double candidates = counter("delay.scored") + count("delay.bounded");
  const double runs = tracer.counter("sim.runs");
  const double probes = tracer.counter("linalg.factor_probes");
  const double factor_ms =
      probes > 0.0 ? counter("linalg.factor_probe_ms") * speed * runs / probes : 0.0;

  return {
      {"graph.seed_mst_ms", total("graph.seed_mst"), "ms"},
      {"steiner.i1s_ms", total("steiner.i1s"), "ms"},
      {"steiner.points", counter("steiner.points"), "count"},
      {"core.ldrg_ms", ldrg_ms, "ms"},
      {"core.self_ms", ldrg_ms - delay_ms, "ms"},
      {"core.rounds", counter("core.rounds"), "count"},
      {"core.accepted_edges", counter("core.accepted_edges"), "count"},
      {"core.candidates", candidates, "count"},
      {"core.useful_share", ratio_or_zero(counter("core.accepted_edges"), candidates),
       "share"},
      {"delay.evals", count("delay.eval"), "count"},
      {"delay.eval_ms", total("delay.eval"), "ms"},
      {"delay.bounded_evals", count("delay.bounded"), "count"},
      {"delay.bounded_ms", total("delay.bounded"), "ms"},
      {"delay.cutoff_share",
       ratio_or_zero(counter("delay.cutoffs"), count("delay.bounded")), "share"},
      {"delay.scorer_builds", counter("delay.scorer_builds"), "count"},
      {"delay.scorer_build_ms", total("delay.scorer_build"), "ms"},
      {"delay.scored", counter("delay.scored"), "count"},
      {"delay.score_ms", score_ms, "ms"},
      {"delay.share", ratio_or_zero(delay_ms, ldrg_ms), "share"},
      {"spice.netlist_ms", total("spice.netlist"), "ms"},
      {"sim.setup_ms", total("sim.setup"), "ms"},
      {"sim.march_ms", total("sim.march"), "ms"},
      {"linalg.factor_ms", factor_ms, "ms"},
      {"sim.nodes", ratio_or_zero(tracer.counter("sim.node_sum"), runs), "count"},
      {"bench.copy_time_gap", copy_time_gap(tracer), "share"},
  };
}

double copy_time_gap(const Tracer& tracer) {
  const double library_ms = tracer.counter("bench.probe_library_ms");
  return library_ms > 0.0
             ? std::abs(tracer.counter("bench.probe_copy_ms") / library_ms - 1.0)
             : 0.0;
}

std::optional<std::string> copy_time_warning(const Tracer& tracer) {
  const double gap = copy_time_gap(tracer);
  if (gap <= kCopyTimeTolerance) return std::nullopt;
  return "warning: SpanTransientEvaluator took " +
         format_number(tracer.counter("bench.probe_copy_ms")) +
         " ms where delay::TransientEvaluator took " +
         format_number(tracer.counter("bench.probe_library_ms")) +
         " ms on the same graphs; the spice/sim/linalg figures no longer time what "
         "the library runs";
}

RunResult run_library_workload(const LibraryWorkload& w, const RunOptions& o) {
  const unsigned slot = corpus_slot(o.seed);
  const DigestTable expected = DigestTable::load(digest_path(o));
  if (expected.size() == 0) throw std::runtime_error("no digests in " + digest_path(o));
  const ntr::spice::Technology tech = ntr::spice::kTable1Technology;
  ReferenceKernel kernel;
  RunResult result;

  // Set-up: generate the corpus and build the evaluator, several times.
  std::vector<double> setup_s, gen_ms;
  std::vector<Net> corpus;
  std::unique_ptr<ntr::delay::DelayEvaluator> evaluator;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double k = kernel.sample_ms();
    const Clock::time_point t0 = Clock::now();
    corpus = make_corpus(w, slot);
    const Clock::time_point t1 = Clock::now();
    evaluator = ntr::delay::make_evaluator(w.evaluator, tech);
    const Clock::time_point t2 = Clock::now();
    if (!evaluator) throw std::runtime_error("unknown evaluator " + w.evaluator);
    setup_s.push_back(at_reference_speed(seconds_between(t0, t2), k));
    gen_ms.push_back(at_reference_speed(ms_between(t0, t1), k));
  }

  // The traced route goes through the decorator; for the transient
  // evaluator its inner evaluator is the span-recording rebuild.
  Tracer tracer;
  std::unique_ptr<ntr::delay::DelayEvaluator> span_inner;
  if (w.evaluator == "transient")
    span_inner = std::make_unique<SpanTransientEvaluator>(tech, tracer);
  const TracingEvaluator traced(span_inner ? *span_inner : *evaluator, tracer);

  const auto check = [&](std::size_t i, const NetDigest& got) {
    const std::optional<NetDigest> want = expected.find(digest_key(slot, i));
    ++result.attempted;
    if (!want || !(*want == got)) ++result.failed;
  };

  std::vector<double> pass_s, wall_s, p50_ms, tail_ms, all_kernels;
  TailPercentile tail;
  double delay_ratio = 0.0, cost_ratio = 0.0, traced_raw = 0.0, untraced_raw = 0.0;
  // Passes over the corpus while another one still fits in the run.
  const Clock::time_point start = Clock::now();
  for (bool more = true; more;) {
    const Clock::time_point pass_start = Clock::now();
    std::vector<double> kernels, latency;
    double raw = 0.0;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      kernels.push_back(kernel.sample_ms());
      const Clock::time_point t0 = Clock::now();
      const Routed routed = route_library_net(corpus[i], w, *evaluator, nullptr);
      const double net_s = seconds_between(t0, Clock::now());
      raw += net_s;
      latency.push_back(net_s * 1e3);
      check(i, routed.digest);
      if (pass_s.empty()) {
        const auto n = static_cast<double>(corpus.size());
        delay_ratio += routed.digest.delay_s / routed.digest.seed_delay_s / n;
        cost_ratio += routed.digest.cost_um / routed.digest.seed_cost_um / n;
      }
      if (o.trace) {
        tracer.set_item(i);
        const Clock::time_point t1 = Clock::now();
        const Routed again = route_library_net(corpus[i], w, traced, &tracer);
        traced_raw += seconds_between(t1, Clock::now());
        untraced_raw += net_s;
        check(i, again.digest);
      }
    }
    // Each net at the speed the kernel samples around it measured.
    const std::vector<double> local = local_medians(kernels, kKernelHalfWindow);
    double pass = 0.0;
    for (std::size_t i = 0; i < latency.size(); ++i) {
      latency[i] = at_reference_speed(latency[i], local[i]);
      pass += latency[i] / 1e3;
    }
    all_kernels.insert(all_kernels.end(), kernels.begin(), kernels.end());
    pass_s.push_back(pass);
    wall_s.push_back(raw);
    p50_ms.push_back(median(latency));
    tail = tail_percentile(latency);
    tail_ms.push_back(tail.value);
    const Clock::time_point now = Clock::now();
    more = seconds_between(start, now) + seconds_between(pass_start, now) <= o.seconds;
  }

  result.correct = result.failed == 0;
  const double passes = static_cast<double>(pass_s.size());
  result.notes.push_back("workload " + w.name + " slot " + std::to_string(slot) + ": " +
                         std::to_string(corpus.size()) + " nets x " +
                         std::to_string(pass_s.size()) + " passes; lat_tail_ms is p" +
                         format_number(tail.pct) + " of " + std::to_string(tail.samples) +
                         " per-net latencies per pass (" + std::to_string(tail.beyond) +
                         " beyond), median over passes");
  result.notes.push_back(diagnostics_line(median(all_kernels), median(wall_s)));
  if (!o.trace) {
    result.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"solve_s", median(pass_s), "s"},
        {"lat_p50_ms", median(p50_ms), "ms"},
        {"lat_tail_ms", median(tail_ms), "ms"},
        {"delay_ratio", delay_ratio, "ratio"},
        {"cost_ratio", cost_ratio, "ratio"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"ok_share", ratio_or_zero(static_cast<double>(result.attempted - result.failed),
                                   static_cast<double>(result.attempted)),
         "share"},
    };
    return result;
  }

  const double kernel_ms = median(all_kernels);
  const double speed = kNominalKernelMs / kernel_ms;
  std::vector<Metric> layers = layer_metrics(tracer, passes, speed);
  layers.push_back({"expt.gen_ms", median(gen_ms), "ms"});
  layers.push_back({"bench.ref_kernel_ms", kernel_ms, "ms"});
  layers.push_back({"bench.wall_solve_s", median(wall_s), "s"});
  layers.push_back({"bench.trace_overhead", traced_raw / untraced_raw - 1.0, "share"});
  layers.push_back({"bench.lat_tail_pct", tail.pct, "pct"});
  layers.push_back({"bench.lat_samples", static_cast<double>(tail.samples), "count"});
  result.metrics = complete_per_layer(layers);
  if (const auto warning = copy_time_warning(tracer)) result.notes.push_back(*warning);
  if (!o.spans_path.empty()) tracer.write_jsonl(o.spans_path);
  return result;
}

void write_digests(const RunOptions& o) {
  DigestTable table = DigestTable::load(digest_path(o));
  const ntr::spice::Technology tech = ntr::spice::kTable1Technology;
  for (unsigned slot = 0; slot < kCorpusSlots; ++slot) {
    DigestTable fresh;
    if (const LibraryWorkload* w = find_library_workload(o.workload)) {
      const std::unique_ptr<ntr::delay::DelayEvaluator> evaluator =
          ntr::delay::make_evaluator(w->evaluator, tech);
      const std::vector<Net> corpus = make_corpus(*w, slot);
      for (std::size_t i = 0; i < corpus.size(); ++i)
        fresh.put(digest_key(slot, i),
                  route_library_net(corpus[i], *w, *evaluator, nullptr).digest);
    } else {
      fresh = serve_mix_digests(slot);
    }
    table.replace_slot(slot, fresh);
  }
  table.save(digest_path(o));
}

}  // namespace perfbench
