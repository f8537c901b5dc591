// Figure 4 — "Multi-node performance of Swala with and without caching."
//
// The paper replays a synthetic workload with the same repetition and
// temporal locality as the ADL log (two clients x eight threads) against
// 1..8 server nodes, with cooperative caching on and off. Parallel speedup
// cannot be measured honestly on one core, so this experiment runs on the
// discrete-event cluster simulator, which reuses the production cache /
// directory code and a cost model calibrated from the paper's single-node
// measurements (see EXPERIMENTS.md).
#include "bench/bench_util.h"
#include "sim/cluster_sim.h"
#include "workload/adl_synth.h"

using namespace swala;

int main() {
  bench::banner("Figure 4", "multi-node mean response, caching on vs off");
  bench::note("simulated substrate (single-core host); see DESIGN.md");

  workload::AdlOptions trace_options;  // the §5.2 ADL-derived workload
  const auto trace = workload::synthesize_adl_trace(trace_options);

  TablePrinter table({"# nodes", "no cache (s)", "coop cache (s)", "decrease %",
                      "speedup (no cache)", "speedup (coop)", "remote hits",
                      "coalesced"});
  double base_nocache = 0.0;
  double base_coop = 0.0;
  for (const std::size_t nodes : {1, 2, 3, 4, 5, 6, 7, 8}) {
    sim::SimConfig config;
    config.nodes = nodes;
    config.client_streams = 16;  // 2 clients x 8 threads (§5.2)
    config.limits = {2000, 0};
    config.min_exec_seconds = 1.0;  // the runtime-defined insert threshold

    sim::SimConfig nocache = config;
    nocache.caching = false;

    const auto without = sim::run_cluster_sim(trace, nocache);
    const auto with_cache = sim::run_cluster_sim(trace, config);

    if (nodes == 1) {
      base_nocache = without.mean_response();
      base_coop = with_cache.mean_response();
    }
    table.add_row(
        {std::to_string(nodes), fmt_double(without.mean_response(), 3),
         fmt_double(with_cache.mean_response(), 3),
         fmt_double(100.0 * (without.mean_response() -
                             with_cache.mean_response()) /
                        without.mean_response(),
                    1),
         fmt_double(base_nocache / without.mean_response(), 2),
         fmt_double(base_coop / with_cache.mean_response(), 2),
         std::to_string(with_cache.cache.remote_hits),
         std::to_string(with_cache.cache.coalesced_misses)});
    std::printf("  simulated %zu node(s)...\n", nodes);
  }

  std::printf("\n%s\n", table.render().c_str());
  std::printf(
      "Paper's shape: cooperative caching yields a consistently lower mean\n"
      "response time (about 25%% at 8 nodes), and response time scales\n"
      "down steadily as nodes are added (paper reports ~9x at 8 nodes —\n"
      "superlinear on their memory-constrained Ultras; the simulator's CPU\n"
      "model gives the linear component).\n");
  return 0;
}
