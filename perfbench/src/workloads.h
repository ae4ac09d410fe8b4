#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "delay/evaluator.h"
#include "digest.h"
#include "graph/net.h"
#include "graph/routing_graph.h"
#include "metrics.h"
#include "trace.h"

/// The four workloads and what one run of each measures.
namespace perfbench {

/// A run's inputs come from corpus slot (seed mod kCorpusSlots); the
/// checked-in digests cover every slot, so every seed is verified.
inline constexpr unsigned kCorpusSlots = 8;

[[nodiscard]] inline unsigned corpus_slot(std::uint64_t seed) {
  return static_cast<unsigned>(seed % kCorpusSlots);
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string digest_dir;   ///< where <workload>.digest lives
  std::string spans_path;   ///< traced runs write their spans here ("" = no)
  bool write_digests = false;  ///< record digests for every slot instead
};

struct RunResult {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable lines printed first
};

/// (name, unit) pairs, in the order BENCHMARK.json lists them.
using MetricTable = std::vector<std::pair<std::string, std::string>>;

/// The end-to-end metrics every untraced run reports.
[[nodiscard]] const MetricTable& end_to_end_metrics();
/// The per-layer metrics every traced run reports (0 where a layer does
/// not run on the workload).
[[nodiscard]] const MetricTable& per_layer_metrics();

[[nodiscard]] const std::vector<std::string>& workload_names();

inline constexpr std::size_t kUnbounded = static_cast<std::size_t>(-1);

/// A library workload: LDRG from a seed tree under one evaluator, over a
/// corpus of random nets with a fixed size mix.
struct LibraryWorkload {
  std::string name;
  std::string evaluator;  ///< a delay::make_evaluator name
  bool steiner_seed = false;  ///< SLDRG: seed with Iterated 1-Steiner
  /// LdrgOptions::max_added_edges (the paper's tables report the first two
  /// iterations of the transient-driven loop).
  std::size_t max_added_edges = kUnbounded;
  std::vector<std::pair<std::size_t, std::size_t>> sizes;  ///< (pins, nets)
};

/// nullptr when `name` is not a library workload.
[[nodiscard]] const LibraryWorkload* find_library_workload(const std::string& name);

/// The corpus of `slot`: for each (pins, nets) entry in order, `nets`
/// random nets from a generator seeded by the workload and slot.
[[nodiscard]] std::vector<ntr::graph::Net> make_corpus(const LibraryWorkload& w,
                                                       unsigned slot);

/// One net through the public pipeline: seed tree (graph::mst_routing, or
/// steiner::iterated_one_steiner for SLDRG), then core::ldrg with one
/// thread and the workload's edge cap.
/// A non-null tracer records graph/steiner/core spans and counters.
struct Routed {
  ntr::graph::RoutingGraph graph;
  NetDigest digest;
};
[[nodiscard]] Routed route_library_net(const ntr::graph::Net& net,
                                       const LibraryWorkload& w,
                                       const ntr::delay::DelayEvaluator& evaluator,
                                       Tracer* tracer);

[[nodiscard]] RunResult run_library_workload(const LibraryWorkload& w,
                                             const RunOptions& options);
[[nodiscard]] RunResult run_serve_mix(const RunOptions& options);

/// The expected digests of serve_mix slot `slot`, from in-process solves.
[[nodiscard]] DigestTable serve_mix_digests(unsigned slot);

/// Writes <digest_dir>/<workload>.digest from one untraced pass per slot.
void write_digests(const RunOptions& options);

// ---- helpers shared by the workload runners ----

/// Peak resident set size of this process (MB).
[[nodiscard]] double peak_rss_mb();

[[nodiscard]] std::string digest_path(const RunOptions& options);

/// Derives the generator seed of a workload's corpus slot (and stream).
[[nodiscard]] std::uint64_t corpus_seed(const std::string& workload, unsigned slot,
                                        std::uint64_t stream = 0);

/// The line, printed before the result, that shows the raw drift the
/// reference speed corrects: the median kernel sample and raw solve wall.
[[nodiscard]] std::string diagnostics_line(double kernel_ms, double wall_solve_s);

/// num / den, or 0 when den is 0.
[[nodiscard]] double ratio_or_zero(double num, double den);

/// The graph/steiner/core/delay/spice/sim/linalg metrics of a tracer, as
/// totals per pass (`passes` passes traced), times scaled by `speed`
/// (nominal / measured kernel time) to reference speed.
[[nodiscard]] std::vector<Metric> layer_metrics(const Tracer& tracer, double passes,
                                                double speed);

/// |time of SpanTransientEvaluator ÷ time of delay::TransientEvaluator - 1|
/// over the graphs the probe evaluated with both (0 without probes).
[[nodiscard]] double copy_time_gap(const Tracer& tracer);

/// Past this gap the copy no longer times what the library runs.
inline constexpr double kCopyTimeTolerance = 0.25;

/// A warning line when copy_time_gap exceeds kCopyTimeTolerance.
[[nodiscard]] std::optional<std::string> copy_time_warning(const Tracer& tracer);

/// Fills every per-layer metric the traced run did not set with 0, in the
/// order of per_layer_metrics().
[[nodiscard]] std::vector<Metric> complete_per_layer(const std::vector<Metric>& measured);

}  // namespace perfbench
