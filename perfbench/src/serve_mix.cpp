// serve_mix: an in-process ntr_serve (serve::Server, two worker lanes)
// driven closed-loop by two serve::Client connections, one net per request.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/resilience.h"
#include "expt/net_generator.h"
#include "io/net_io.h"
#include "refkernel.h"
#include "serve/json.h"
#include "serve/loadgen.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "spice/technology.h"
#include "workloads.h"

namespace perfbench {

namespace {

using ntr::graph::Net;
namespace serve = ntr::serve;

constexpr std::size_t kClients = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kRequestsPerClient = 240;
/// Request k of a client is large -- a 30-pin transient LDRG capped at two
/// added edges -- when k % kLargeEvery is kLargeEvery - 1, and small -- a
/// 10-pin graph-Elmore LDRG -- otherwise.
constexpr std::size_t kLargeEvery = 10;
constexpr std::size_t kSmallPins = 10;
constexpr std::size_t kLargePins = 30;
constexpr std::size_t kLargeMaxEdges = 2;
/// Engaged but never reached: the solvers poll their stop tokens as in
/// production, and no request degrades.
constexpr double kDeadlineMs = 120000.0;
/// The fleet runs in batches of kLargeEvery requests per client (one large
/// each); the reference kernel runs between batches.
constexpr std::size_t kBatches = kRequestsPerClient / kLargeEvery;
static_assert(kBatches * kLargeEvery == kRequestsPerClient);
constexpr int kSetupRepeats = 15;
/// Traced runs replay every small request and every kLargeReplayEvery-th
/// large one in process.
constexpr std::size_t kLargeReplayEvery = 6;

const LibraryWorkload kSmallSpec{"serve_mix", "graph-elmore", false, kUnbounded, {}};
const LibraryWorkload kLargeSpec{"serve_mix", "transient", false, kLargeMaxEdges, {}};

struct FleetRequest {
  serve::Request request;
  Net net;  ///< the net as the server parses it from the request text
  bool large = false;
  std::size_t index = 0;  ///< position in the fleet (the digest index)
};

/// fleet[c] is client c's request sequence.
std::vector<std::vector<FleetRequest>> make_fleet(unsigned slot) {
  std::vector<std::vector<FleetRequest>> fleet(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    ntr::expt::NetGenerator gen(corpus_seed("serve_mix", slot, c));
    for (std::size_t k = 0; k < kRequestsPerClient; ++k) {
      FleetRequest r;
      r.large = k % kLargeEvery == kLargeEvery - 1;
      r.index = c * kRequestsPerClient + k;
      const std::string text =
          ntr::io::write_net(gen.random_net(r.large ? kLargePins : kSmallPins));
      r.net = ntr::io::read_net(text);
      r.request.id =
          serve::Json::string("c" + std::to_string(c) + "-r" + std::to_string(k));
      r.request.nets = {text};
      r.request.strategy = ntr::core::Strategy::kLdrg;
      r.request.evaluator = r.large ? kLargeSpec.evaluator : kSmallSpec.evaluator;
      r.request.deadline_ms = kDeadlineMs;
      r.request.max_edges = (r.large ? kLargeSpec : kSmallSpec).max_added_edges;
      fleet[c].push_back(std::move(r));
    }
  }
  return fleet;
}

/// Seed-tree objectives of a request, the base of delay_ratio/cost_ratio.
struct SeedTree {
  double delay_s = 0.0;
  double cost_um = 0.0;
};

SeedTree seed_tree(const FleetRequest& r) {
  const auto evaluator =
      ntr::delay::make_evaluator(r.request.evaluator, ntr::spice::kTable1Technology);
  const ntr::graph::RoutingGraph mst = ntr::graph::mst_routing(r.net);
  return {evaluator->max_delay(mst), mst.total_wirelength()};
}

/// The digest of a response: its routing and objectives, plus the seed
/// tree computed in process.
NetDigest response_digest(const serve::Response& frame, const SeedTree& seed) {
  return NetDigest{fnv1a(frame.routing), seed.delay_s, frame.max_delay_s, seed.cost_um,
                   frame.wirelength_um};
}

/// A started server plus connected clients: what set-up produces.
struct Deployment {
  std::unique_ptr<serve::Server> server;
  std::vector<std::unique_ptr<serve::Client>> clients;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  Deployment(Deployment&&) = default;
  Deployment& operator=(Deployment&&) = default;
  ~Deployment() { stop(); }

  void stop() {
    for (auto& c : clients) c->close();
    clients.clear();
    if (server) {
      server->request_shutdown();
      server->wait();
      server.reset();
    }
  }
};

/// Starts the server, connects every client and waits for a stats reply.
Deployment deploy() {
  Deployment d;
  serve::ServerOptions options;
  options.workers = kWorkers;
  d.server = std::make_unique<serve::Server>(options);
  if (const auto s = d.server->start(); !s.ok()) throw std::runtime_error(s.to_string());
  for (std::size_t c = 0; c < kClients; ++c) {
    d.clients.push_back(std::make_unique<serve::Client>());
    if (const auto s = d.clients.back()->connect("127.0.0.1", d.server->port()); !s.ok())
      throw std::runtime_error(s.to_string());
  }
  serve::Request stats;
  stats.op = serve::RequestOp::kStats;
  const auto reply = d.clients.front()->call(stats);
  if (!reply.ok() || reply->empty() || reply->front().kind != serve::ResponseKind::kStats)
    throw std::runtime_error("serve_mix: no stats reply during set-up");
  return d;
}

struct RequestRecord {
  /// From send to the last reply frame, at the compute kernel's reference
  /// speed (run_fleet scales the raw time in place).
  double latency_ms = 0.0;
  /// The same latency at the wake-up kernel's reference speed.
  double wake_latency_ms = 0.0;
  bool answered = false;  ///< exactly one frame came back
  serve::Response frame;
};

/// One closed-loop client's share of a batch.
void drive(serve::Client& client, const std::vector<FleetRequest>& requests,
           std::size_t begin, std::size_t end, std::vector<RequestRecord>& records,
           Tracer* tracer) {
  for (std::size_t k = begin; k < end; ++k) {
    const FleetRequest& r = requests[k];
    RequestRecord& rec = records[r.index];
    if (tracer) tracer->set_item(r.index);
    const Clock::time_point t0 = Clock::now();
    try {
      ScopedSpan span(tracer, "serve.request");
      auto frames = client.call(r.request);
      rec.answered = frames.ok() && frames->size() == 1;
      if (rec.answered) rec.frame = std::move(frames->front());
    } catch (const std::exception&) {
      rec.answered = false;
    }
    rec.latency_ms = seconds_between(t0, Clock::now()) * 1e3;
  }
}

/// Rung 0, status ok, and the expected routing and objectives.
bool request_ok(const RequestRecord& rec, const SeedTree& seed,
                const std::optional<NetDigest>& want) {
  return rec.answered && rec.frame.kind == serve::ResponseKind::kNet &&
         rec.frame.status == serve::ResponseStatus::kOk && rec.frame.rung == 0 && want &&
         response_digest(rec.frame, seed) == *want;
}

/// The client-side codec work of one request (encode it, decode its
/// reply), replayed off the clock (ms).
double codec_ms(const FleetRequest& r, const RequestRecord& rec) {
  const Clock::time_point t0 = Clock::now();
  const std::string wire = serve::request_to_json(r.request).dump();
  const auto doc = serve::Json::parse(rec.frame.to_json());
  if (wire.empty() || !doc.ok() || !serve::Response::from_json(*doc).ok())
    throw std::runtime_error("serve_mix: codec replay failed");
  return seconds_between(t0, Clock::now()) * 1e3;
}

struct FleetPass {
  double raw_s = 0.0;
  double solve_s = 0.0;  ///< at reference speed
  std::vector<double> kernels_ms, wakeups_us;
  std::vector<RequestRecord> records;
};

FleetPass run_fleet(Deployment& d, const std::vector<std::vector<FleetRequest>>& fleet,
                    ReferenceKernel& kernel, std::vector<Tracer>* tracers) {
  FleetPass pass;
  pass.records.resize(kClients * kRequestsPerClient);
  pass.kernels_ms.push_back(kernel.sample_ms());
  pass.wakeups_us.push_back(WakeupKernel::sample_us());
  std::vector<double> batch_s;
  for (std::size_t b = 0; b < kBatches; ++b) {
    const Clock::time_point t0 = Clock::now();
    {
      std::vector<std::jthread> lanes;
      for (std::size_t c = 0; c < kClients; ++c)
        lanes.emplace_back([&, c] {
          drive(*d.clients[c], fleet[c], b * kLargeEvery, (b + 1) * kLargeEvery,
                pass.records, tracers ? &(*tracers)[c] : nullptr);
        });
    }
    batch_s.push_back(seconds_between(t0, Clock::now()));
    pass.raw_s += batch_s.back();
    pass.kernels_ms.push_back(kernel.sample_ms());
    pass.wakeups_us.push_back(WakeupKernel::sample_us());
  }
  // Each batch at the speed of the kernel samples around it: the local
  // medians just before and just after it, averaged.
  const std::vector<double> local = local_medians(pass.kernels_ms, 1);
  const std::vector<double> local_wake = local_medians(pass.wakeups_us, 1);
  for (std::size_t b = 0; b < kBatches; ++b) {
    const double k = 0.5 * (local[b] + local[b + 1]);
    const double w = 0.5 * (local_wake[b] + local_wake[b + 1]);
    pass.solve_s += at_reference_speed(batch_s[b], k);
    for (std::size_t c = 0; c < kClients; ++c)
      for (std::size_t i = b * kLargeEvery; i < (b + 1) * kLargeEvery; ++i) {
        RequestRecord& rec = pass.records[fleet[c][i].index];
        rec.wake_latency_ms = at_reference_speed(rec.latency_ms, w, kNominalWakeupUs);
        rec.latency_ms = at_reference_speed(rec.latency_ms, k);
      }
  }
  return pass;
}

}  // namespace

DigestTable serve_mix_digests(unsigned slot) {
  DigestTable table;
  for (const auto& client : make_fleet(slot)) {
    for (const FleetRequest& r : client) {
      // What the server's route_net does for a rung-0 net.
      const auto evaluator =
          ntr::delay::make_evaluator(r.request.evaluator, ntr::spice::kTable1Technology);
      ntr::core::SolverConfig config;
      config.tech = ntr::spice::kTable1Technology;
      config.ldrg.max_added_edges = r.request.max_edges;
      const ntr::core::GuardedSolution guarded =
          ntr::core::solve_resilient(r.net, r.request.strategy, *evaluator, config, {});
      if (!guarded.solution || guarded.outcome.rung != 0)
        throw std::runtime_error("serve_mix: request " + std::to_string(r.index) +
                                 " degraded");
      serve::Response frame;
      frame.routing = ntr::io::write_routing(guarded.solution->graph);
      frame.wirelength_um = guarded.solution->graph.total_wirelength();
      for (const double t : evaluator->sink_delays(guarded.solution->graph))
        frame.max_delay_s = std::max(frame.max_delay_s, t);
      table.put(digest_key(slot, r.index), response_digest(frame, seed_tree(r)));
    }
  }
  return table;
}

RunResult run_serve_mix(const RunOptions& o) {
  const unsigned slot = corpus_slot(o.seed);
  const DigestTable expected = DigestTable::load(digest_path(o));
  if (expected.size() == 0) throw std::runtime_error("no digests in " + digest_path(o));
  ReferenceKernel kernel;
  RunResult result;

  std::vector<double> gen_ms;
  std::vector<std::vector<FleetRequest>> fleet;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double k = kernel.sample_ms();
    const Clock::time_point t0 = Clock::now();
    fleet = make_fleet(slot);
    gen_ms.push_back(at_reference_speed(seconds_between(t0, Clock::now()) * 1e3, k));
  }

  // Set-up: server start until every client is connected and a stats
  // reply is back, several times; the last deployment serves the fleet.
  // Thread start-ups and wake-ups dominate it, so it is scaled by the
  // wake-up kernel.
  std::vector<double> setup_s;
  Deployment d;
  for (int r = 0; r < kSetupRepeats; ++r) {
    d.stop();
    const double w = WakeupKernel::sample_us();
    const Clock::time_point t0 = Clock::now();
    d = deploy();
    setup_s.push_back(
        at_reference_speed(seconds_between(t0, Clock::now()), w, kNominalWakeupUs));
  }

  const serve::ServerStats before = d.server->stats();
  std::vector<FleetPass> passes;
  std::vector<Tracer> tracers(kClients);
  const Clock::time_point start = Clock::now();
  do {
    passes.push_back(run_fleet(d, fleet, kernel, o.trace ? &tracers : nullptr));
  } while (!o.trace &&
           seconds_between(start, Clock::now()) + passes.back().raw_s <= o.seconds);
  const serve::ServerStats after = d.server->stats();
  d.stop();

  // Seed trees (off the clock) for the quality ratios; they are part of
  // each request's digest, so they are checked too.
  std::vector<const FleetRequest*> by_index(kClients * kRequestsPerClient);
  for (const auto& client : fleet)
    for (const FleetRequest& r : client) by_index[r.index] = &r;
  std::vector<SeedTree> seeds;
  for (const FleetRequest* r : by_index) seeds.push_back(seed_tree(*r));

  // A failed request counts as missing every latency limit. The median
  // request is a small one, whose latency is mostly thread wake-ups, so the
  // median is taken at the wake-up kernel's reference speed; the tail
  // requests are large solves, taken at the compute kernel's.
  // The quality ratios average the first pass's requests that passed: a
  // failed request carries no routing to compare.
  std::vector<double> solve_s, p50_ms, tail_ms;
  TailPercentile tail;
  double delay_ratio = 0.0, cost_ratio = 0.0, ratio_count = 0.0;
  for (const FleetPass& p : passes) {
    std::vector<double> latency_ms, wake_latency_ms;
    for (std::size_t i = 0; i < p.records.size(); ++i) {
      const RequestRecord& rec = p.records[i];
      const bool ok = request_ok(rec, seeds[i], expected.find(digest_key(slot, i)));
      ++result.attempted;
      if (!ok) ++result.failed;
      const double failed = std::numeric_limits<double>::infinity();
      latency_ms.push_back(ok ? rec.latency_ms : failed);
      wake_latency_ms.push_back(ok ? rec.wake_latency_ms : failed);
      if (ok && &p == &passes.front()) {
        delay_ratio += rec.frame.max_delay_s / seeds[i].delay_s;
        cost_ratio += rec.frame.wirelength_um / seeds[i].cost_um;
        ratio_count += 1.0;
      }
    }
    solve_s.push_back(p.solve_s);
    p50_ms.push_back(median(wake_latency_ms));
    tail = tail_percentile(latency_ms);
    tail_ms.push_back(tail.value);
  }
  const FleetPass& first = passes.front();
  delay_ratio = ratio_or_zero(delay_ratio, ratio_count);
  cost_ratio = ratio_or_zero(cost_ratio, ratio_count);
  result.correct = result.failed == 0;
  result.notes.push_back("workload serve_mix slot " + std::to_string(slot) + ": " +
                         std::to_string(kClients) + " closed-loop clients x " +
                         std::to_string(kRequestsPerClient) + " requests, " +
                         std::to_string(passes.size()) + " passes; lat_tail_ms is p" +
                         format_number(tail.pct) + " of " + std::to_string(tail.samples) +
                         " request latencies per pass (" + std::to_string(tail.beyond) +
                         " beyond), median over passes");

  std::vector<double> kernels, raw_s;
  for (const FleetPass& p : passes) {
    kernels.insert(kernels.end(), p.kernels_ms.begin(), p.kernels_ms.end());
    raw_s.push_back(p.raw_s);
  }
  result.notes.push_back(diagnostics_line(median(kernels), median(raw_s)));
  if (!o.trace) {
    result.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"solve_s", median(solve_s), "s"},
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

  // In-process replay: every small request and a sample of large ones,
  // untraced (the local solve) and then traced (the solver's layers).
  Tracer replay;
  const SpanTransientEvaluator span_transient(ntr::spice::kTable1Technology, replay);
  const auto small_eval =
      ntr::delay::make_evaluator(kSmallSpec.evaluator, ntr::spice::kTable1Technology);
  const auto large_eval =
      ntr::delay::make_evaluator(kLargeSpec.evaluator, ntr::spice::kTable1Technology);
  const TracingEvaluator traced_small(*small_eval, replay);
  const TracingEvaluator traced_large(span_transient, replay);
  double untraced_s = 0.0, traced_s = 0.0, small_local_s = 0.0, small_latency_ms = 0.0;
  double codec_total_ms = 0.0;
  std::size_t small_count = 0;
  std::vector<double> replay_kernels;
  for (const auto& client : fleet)
    for (const FleetRequest& r : client) {
      codec_total_ms += codec_ms(r, first.records[r.index]);
      const std::size_t k = r.index % kRequestsPerClient;
      if (r.large && k % (kLargeEvery * kLargeReplayEvery) != kLargeEvery - 1) continue;
      const LibraryWorkload& spec = r.large ? kLargeSpec : kSmallSpec;
      replay_kernels.push_back(kernel.sample_ms());
      const Clock::time_point t0 = Clock::now();
      const Routed plain =
          route_library_net(r.net, spec, r.large ? *large_eval : *small_eval, nullptr);
      const Clock::time_point t1 = Clock::now();
      replay.set_item(r.index);
      const Routed traced =
          route_library_net(r.net, spec, r.large ? traced_large : traced_small, &replay);
      const Clock::time_point t2 = Clock::now();
      untraced_s += seconds_between(t0, t1);
      traced_s += seconds_between(t1, t2);
      const std::optional<NetDigest> want = expected.find(digest_key(slot, r.index));
      for (const NetDigest& got : {plain.digest, traced.digest}) {
        ++result.attempted;
        if (!want || !(got == *want)) ++result.failed;
      }
      if (!r.large) {
        ++small_count;
        small_local_s +=
            at_reference_speed(seconds_between(t0, t1), replay_kernels.back());
        small_latency_ms += first.records[r.index].latency_ms;
      }
    }
  result.correct = result.failed == 0;

  const double kernel_ms = median(replay_kernels);
  const double requests = static_cast<double>(first.records.size());
  const double local_ms = small_local_s * 1e3 / static_cast<double>(small_count);
  std::vector<Metric> layers = layer_metrics(replay, 1.0, kNominalKernelMs / kernel_ms);
  layers.push_back({"expt.gen_ms", median(gen_ms), "ms"});
  layers.push_back({"serve.rps", requests / first.solve_s, "1/s"});
  layers.push_back({"serve.local_solve_ms", local_ms, "ms"});
  const double small_latency = small_latency_ms / static_cast<double>(small_count);
  layers.push_back({"serve.overhead_ms", small_latency - local_ms, "ms"});
  layers.push_back({"serve.codec_ms",
                    at_reference_speed(codec_total_ms / requests, kernel_ms), "ms"});
  const auto delta = [&](std::uint64_t serve::ServerStats::*counter) {
    return static_cast<double>(after.*counter - before.*counter);
  };
  layers.push_back({"serve.items", delta(&serve::ServerStats::items_admitted), "count"});
  layers.push_back(
      {"serve.overloaded", delta(&serve::ServerStats::rejected_overloaded), "count"});
  layers.push_back({"serve.retries", 0.0, "count"});  // the clients never retry
  layers.push_back(
      {"serve.watchdog_cancels", delta(&serve::ServerStats::watchdog_cancels), "count"});
  layers.push_back({"bench.ref_kernel_ms", median(first.kernels_ms), "ms"});
  layers.push_back({"bench.ref_wakeup_us", median(first.wakeups_us), "us"});
  layers.push_back({"bench.wall_solve_s", first.raw_s, "s"});
  layers.push_back({"bench.trace_overhead", traced_s / untraced_s - 1.0, "share"});
  layers.push_back({"bench.lat_tail_pct", tail.pct, "pct"});
  layers.push_back({"bench.lat_samples", static_cast<double>(tail.samples), "count"});
  result.metrics = complete_per_layer(layers);
  if (const auto warning = copy_time_warning(replay)) result.notes.push_back(*warning);
  if (!o.spans_path.empty()) {
    for (const Tracer& t : tracers) replay.merge(t);
    replay.write_jsonl(o.spans_path);
  }
  return result;
}

}  // namespace perfbench
