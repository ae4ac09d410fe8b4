// The benchmark's own tests: the tracing decorator routes bit-identically,
// and the metric math does what the README says.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/solver.h"
#include "digest.h"
#include "io/net_io.h"
#include "metrics.h"
#include "refkernel.h"
#include "serve/json.h"
#include "spice/technology.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

const ntr::spice::Technology kTech = ntr::spice::kTable1Technology;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

// ---- tail percentile ----

TEST(TailPercentile, PicksHighestLadderRungWithTenBeyond) {
  struct Case {
    std::size_t n;
    double pct;
  };
  for (const Case c : {Case{20, 50.0}, Case{39, 50.0}, Case{40, 75.0}, Case{100, 90.0},
                       Case{199, 90.0}, Case{200, 95.0}, Case{1000, 99.0},
                       Case{10000, 99.9}}) {
    const TailPercentile t = tail_percentile(one_to(c.n));
    EXPECT_EQ(t.pct, c.pct) << c.n << " samples";
    EXPECT_EQ(t.samples, c.n);
    EXPECT_GE(t.beyond, kTailBeyond);
    EXPECT_EQ(t.beyond, c.n - static_cast<std::size_t>(t.value)) << "nearest rank";
  }
}

TEST(TailPercentile, ValueIsNearestRank) {
  const TailPercentile t = tail_percentile(one_to(200));
  EXPECT_EQ(t.value, 190.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(nearest_rank(one_to(10), 50.0), 5.0);
  EXPECT_EQ(nearest_rank(one_to(10), 100.0), 10.0);
  EXPECT_EQ(nearest_rank({3.0, 1.0, 2.0}, 1.0), 1.0);
}

TEST(TailPercentile, FailedRequestsCountAsBeyondTheLimit) {
  std::vector<double> v = one_to(100);
  for (std::size_t i = 0; i < 15; ++i) v[i] = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(std::isinf(tail_percentile(v).value));
}

TEST(TailPercentile, RefusesSamplesTooSmallForTenBeyond) {
  EXPECT_THROW((void)tail_percentile(one_to(19)), std::invalid_argument);
  EXPECT_THROW((void)tail_percentile({}), std::invalid_argument);
}

// ---- reference speed ----

TEST(ReferenceSpeed, ScalesRawByNominalOverMeasured) {
  EXPECT_DOUBLE_EQ(at_reference_speed(2.0, 5.0, 2.5), 1.0);
  EXPECT_DOUBLE_EQ(at_reference_speed(2.0, 1.25, 2.5), 4.0);
  EXPECT_DOUBLE_EQ(at_reference_speed(3.0, kNominalKernelMs), 3.0);
  EXPECT_THROW((void)at_reference_speed(1.0, 0.0), std::invalid_argument);
}

TEST(ReferenceSpeed, KernelSamplesArePositive) {
  ReferenceKernel kernel;
  for (int i = 0; i < 3; ++i) EXPECT_GT(kernel.sample_ms(), 0.0);
  EXPECT_GT(WakeupKernel::sample_us(), 0.0);
}

TEST(ReferenceSpeed, LocalMediansFollowDriftAndIgnoreOutliers) {
  const std::vector<double> k = {1.0, 1.0, 9.0, 1.0, 1.0, 2.0, 2.0, 2.0};
  const std::vector<double> m = local_medians(k, 2);
  ASSERT_EQ(m.size(), k.size());
  EXPECT_EQ(m[2], 1.0);
  EXPECT_EQ(m[7], 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

// ---- spans ----

TEST(Spans, SelfTimeSubtractsDirectChildren) {
  // a [0,10] > b [1,4] > c [1,2];  a > d [5,6];  e [20,21] on its own.
  const std::vector<Span> spans = {
      {"a", 0.0, 10.0, kNoParent, 0}, {"b", 1.0, 4.0, 0, 0}, {"c", 1.0, 2.0, 1, 0},
      {"d", 5.0, 6.0, 0, 0},          {"b", 20.0, 21.0, kNoParent, 1},
  };
  const auto totals = summarize(spans);
  EXPECT_DOUBLE_EQ(totals.at("a").total_ms, 10.0);
  EXPECT_DOUBLE_EQ(totals.at("a").self_ms, 6.0);
  EXPECT_DOUBLE_EQ(totals.at("b").total_ms, 4.0);
  EXPECT_DOUBLE_EQ(totals.at("b").self_ms, 3.0);
  EXPECT_EQ(totals.at("b").count, 2u);
  EXPECT_DOUBLE_EQ(totals.at("c").self_ms, 1.0);
}

TEST(Spans, ProbeTimeIsLeftOutOfEveryEnclosingTotal) {
  // a [0,10] > b [1,7] > probe [4,6];  b > c [1,3];  probe [20,21] on its own.
  const std::vector<Span> spans = {
      {"a", 0.0, 10.0, kNoParent, 0}, {"b", 1.0, 7.0, 0, 0},
      {kProbeSpan, 4.0, 6.0, 1, 0},   {"c", 1.0, 3.0, 1, 0},
      {kProbeSpan, 20.0, 21.0, kNoParent, 0},
  };
  const auto totals = summarize(spans);
  EXPECT_DOUBLE_EQ(totals.at("a").total_ms, 8.0);
  EXPECT_DOUBLE_EQ(totals.at("a").self_ms, 4.0);
  EXPECT_DOUBLE_EQ(totals.at("b").total_ms, 4.0);
  EXPECT_DOUBLE_EQ(totals.at("b").self_ms, 2.0);
  EXPECT_DOUBLE_EQ(totals.at("c").total_ms, 2.0);
  EXPECT_DOUBLE_EQ(totals.at(kProbeSpan).total_ms, 3.0);
}

TEST(Spans, CopyTimeGapComparesCopyWithLibrary) {
  Tracer t;
  EXPECT_EQ(copy_time_gap(t), 0.0);
  t.add("bench.probe_library_ms", 4.0);
  t.add("bench.probe_copy_ms", 5.0);
  EXPECT_DOUBLE_EQ(copy_time_gap(t), 0.25);
  EXPECT_FALSE(copy_time_warning(t).has_value());
  t.add("bench.probe_copy_ms", -2.0);
  EXPECT_DOUBLE_EQ(copy_time_gap(t), 0.25);
  t.add("bench.probe_copy_ms", 4.0);
  EXPECT_DOUBLE_EQ(copy_time_gap(t), 0.75);
  EXPECT_TRUE(copy_time_warning(t).has_value());
}

TEST(Spans, TracerNestsAndStampsItems) {
  Tracer t;
  t.set_item(7);
  {
    ScopedSpan outer(&t, "outer");
    ScopedSpan inner(&t, "inner");
  }
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[1].parent, 0u);
  EXPECT_EQ(t.spans()[0].parent, kNoParent);
  EXPECT_EQ(t.spans()[1].item, 7u);
  EXPECT_LE(t.spans()[0].start_ms, t.spans()[1].start_ms);
  EXPECT_GE(t.spans()[0].end_ms, t.spans()[1].end_ms);
  const std::size_t a = t.begin("a");
  (void)t.begin("b");
  EXPECT_THROW(t.end(a), std::logic_error);
}

TEST(Spans, MergeReparentsSpans) {
  Tracer a, b;
  { ScopedSpan s(&a, "x"); }
  {
    ScopedSpan s(&b, "y");
    ScopedSpan t(&b, "z");
  }
  b.add("n", 2.0);
  a.merge(b);
  ASSERT_EQ(a.spans().size(), 3u);
  EXPECT_EQ(a.spans()[2].parent, 1u);
  EXPECT_EQ(a.counter("n"), 2.0);
}

// ---- names and the result line ----

TEST(MetricNames, CharsetAndLength) {
  for (const char* ok : {"core.ldrg_ms", "a-b", "9x", "setup_s", "serve.rps"})
    EXPECT_TRUE(valid_metric_name(ok)) << ok;
  for (const char* bad : {"", ".x", "_x", "a b", "a/b", "a\"b", "ms\xc2\xb5"})
    EXPECT_FALSE(valid_metric_name(bad)) << bad;
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(MetricNames, EveryMetricTheProgramReportsIsValid) {
  for (const auto& table : {end_to_end_metrics(), per_layer_metrics()})
    for (const auto& [name, unit] : table) EXPECT_TRUE(valid_metric_name(name)) << name;
}

TEST(MetricNames, ResultLineRejectsBadAndRepeatedNames) {
  EXPECT_THROW((void)result_json(true, 1, 0, {{"bad name", 1.0, "s"}}),
               std::invalid_argument);
  EXPECT_THROW((void)result_json(true, 1, 0, {{"a", 1.0, "s"}, {"a", 2.0, "s"}}),
               std::invalid_argument);
  const std::string line = result_json(true, 3, 1, {{"solve_s", 0.1, "s"}});
  const auto doc = ntr::serve::Json::parse(line);
  ASSERT_TRUE(doc.ok()) << line;
  EXPECT_EQ(line, "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": "
                  "{\"solve_s\": {\"value\": 0.1, \"unit\": \"s\"}}}");
}

TEST(MetricNames, NumbersKeepEveryDigit) {
  for (const double v : {0.1, 1.0 / 3.0, 6.02214076e23, 5e-324})
    EXPECT_EQ(std::strtod(format_number(v).c_str(), nullptr), v);
  EXPECT_EQ(format_number(std::numeric_limits<double>::infinity()), "null");
}

/// BENCHMARK.json (at the repository root) names exactly the metrics and
/// units the program prints.
TEST(MetricNames, MatchBenchmarkJson) {
  std::ifstream in(PERFBENCH_REPO_ROOT "/BENCHMARK.json");
  ASSERT_TRUE(in) << "BENCHMARK.json missing";
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = ntr::serve::Json::parse(text.str());
  ASSERT_TRUE(doc.ok());
  const auto check = [&](const char* key, const auto& table) {
    const ntr::serve::Json* list = doc->find(key);
    ASSERT_NE(list, nullptr) << key;
    ASSERT_EQ(list->items().size(), table.size()) << key;
    for (std::size_t i = 0; i < table.size(); ++i) {
      EXPECT_EQ(list->items()[i].find("name")->as_string(), table[i].first);
      EXPECT_EQ(list->items()[i].find("unit")->as_string(), table[i].second);
    }
  };
  check("end_to_end", end_to_end_metrics());
  check("per_layer", per_layer_metrics());
  const ntr::serve::Json* workloads = doc->find("workloads");
  ASSERT_NE(workloads, nullptr);
  ASSERT_EQ(workloads->items().size(), workload_names().size());
  for (std::size_t i = 0; i < workload_names().size(); ++i)
    EXPECT_EQ(workloads->items()[i].find("name")->as_string(), workload_names()[i]);
}

// ---- digests ----

TEST(Digests, SaveLoadRoundTripsExactly) {
  DigestTable t;
  t.put(digest_key(3, 17),
        NetDigest{0xfedcba9876543210ULL, 1.0 / 3.0, 2e-10, 12345.678, 0.1});
  t.put(digest_key(4, 0), NetDigest{1, 2, 3, 4, 5});
  const std::string path = ::testing::TempDir() + "/perfbench_digest_test.digest";
  t.save(path);
  const DigestTable back = DigestTable::load(path);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(*back.find("3/17"), *t.find("3/17"));
  EXPECT_FALSE(back.find("3/18").has_value());

  DigestTable fresh;
  fresh.put(digest_key(4, 1), NetDigest{9, 9, 9, 9, 9});
  DigestTable merged = back;
  merged.replace_slot(4, fresh);
  EXPECT_FALSE(merged.find("4/0").has_value());
  EXPECT_TRUE(merged.find("4/1").has_value());
  EXPECT_TRUE(merged.find("3/17").has_value());
}

// ---- decorator bit-identity ----

constexpr std::size_t kNetsPerWorkload = 3;

TEST(DecoratorBitIdentity, SpanTransientMatchesTransientEvaluator) {
  Tracer tracer;
  const SpanTransientEvaluator rebuilt(kTech, tracer);
  const auto reference = ntr::delay::make_evaluator("transient", kTech);
  const LibraryWorkload& w = *find_library_workload("transient_ldrg");
  for (const ntr::graph::Net& net : make_corpus(w, 0)) {
    const ntr::graph::RoutingGraph g = ntr::graph::mst_routing(net);
    EXPECT_EQ(rebuilt.sink_delays(g), reference->sink_delays(g));
    const double d = reference->max_delay(g);
    EXPECT_EQ(rebuilt.bounded_max_delay(g, d), reference->bounded_max_delay(g, d));
    EXPECT_EQ(rebuilt.bounded_max_delay(g, 0.5 * d),
              reference->bounded_max_delay(g, 0.5 * d));
    if (net.size() > 10) break;
  }
  // The first simulation is probed, against the library's evaluator too.
  EXPECT_GT(tracer.counter("linalg.factor_probes"), 0.0);
  EXPECT_GT(tracer.counter("bench.probe_library_ms"), 0.0);
  EXPECT_GT(tracer.counter("bench.probe_copy_ms"), 0.0);
  EXPECT_GT(summarize(tracer.spans()).at("sim.march").count, 0u);
}

class DecoratorBitIdentity : public ::testing::TestWithParam<std::string> {};

TEST_P(DecoratorBitIdentity, TracedRoutingEqualsUntracedAndCheckedInDigests) {
  const LibraryWorkload& w = *find_library_workload(GetParam());
  const DigestTable expected =
      DigestTable::load(PERFBENCH_DIGEST_DIR "/" + w.name + ".digest");
  ASSERT_GT(expected.size(), 0u);
  const auto plain = ntr::delay::make_evaluator(w.evaluator, kTech);
  Tracer tracer;
  std::unique_ptr<ntr::delay::DelayEvaluator> inner;
  if (w.evaluator == "transient")
    inner = std::make_unique<SpanTransientEvaluator>(kTech, tracer);
  const TracingEvaluator traced(inner ? *inner : *plain, tracer);

  const std::vector<ntr::graph::Net> corpus = make_corpus(w, 0);
  for (std::size_t i = 0; i < kNetsPerWorkload; ++i) {
    const Routed a = route_library_net(corpus[i], w, *plain, nullptr);
    const Routed b = route_library_net(corpus[i], w, traced, &tracer);
    EXPECT_EQ(a.digest, b.digest) << w.name << " net " << i;
    EXPECT_EQ(ntr::io::write_routing(a.graph), ntr::io::write_routing(b.graph));
    EXPECT_EQ(expected.find(digest_key(0, i)), std::optional<NetDigest>(a.digest))
        << w.name << " net " << i << " against the checked-in digest";

    // The decomposed pipeline is what core::solve runs for the strategy.
    ntr::core::SolverConfig config;
    config.tech = kTech;
    config.ldrg.max_added_edges = w.max_added_edges;
    const ntr::core::Strategy strategy =
        w.steiner_seed ? ntr::core::Strategy::kSldrg : ntr::core::Strategy::kLdrg;
    const ntr::core::Solution s = ntr::core::solve(corpus[i], strategy, *plain, config);
    EXPECT_EQ(routing_hash(s.graph), a.digest.routing_hash);
    EXPECT_EQ(s.delay_s, a.digest.delay_s);
    EXPECT_EQ(s.cost_um, a.digest.cost_um);
  }
  // One scan per accepted edge, plus a final scan unless the cap stopped it.
  const double accepted = tracer.counter("core.accepted_edges");
  EXPECT_GE(tracer.counter("core.rounds"), accepted);
  EXPECT_LE(tracer.counter("core.rounds"), accepted + kNetsPerWorkload);
}

INSTANTIATE_TEST_SUITE_P(LibraryWorkloads, DecoratorBitIdentity,
                         ::testing::Values("transient_ldrg", "elmore_ldrg_large",
                                           "sldrg_steiner"));

}  // namespace
}  // namespace perfbench
