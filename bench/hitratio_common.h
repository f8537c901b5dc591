// Shared driver for Tables 5 and 6: stand-alone vs cooperative hit ratios
// on the §5.3 workload (1600 requests, 1122 unique) across group sizes.
#pragma once

#include <cstdio>

#include "bench/bench_util.h"
#include "sim/cluster_sim.h"
#include "workload/adl_synth.h"
#include "workload/analyzer.h"

namespace swala::bench {

inline void run_hitratio_experiment(const char* experiment_id,
                                    std::uint64_t cache_entries) {
  char description[128];
  std::snprintf(description, sizeof(description),
                "hit ratios, stand-alone vs cooperative, cache size %llu",
                static_cast<unsigned long long>(cache_entries));
  banner(experiment_id, description);

  // The paper's workload: 1,600 requests, 1,122 unique.
  const auto trace = workload::synthesize_request_mix(1600, 1122, 1.0, /*seed=*/5399);
  const auto upper = workload::hit_upper_bound(trace);
  std::printf("\n1600 requests, 1122 unique -> hit upper bound %zu\n\n", upper);

  TablePrinter table({"# nodes", "stand-alone hits", "coop hits",
                      "stand-alone %", "coop %", "false misses",
                      "coalesced"});
  for (const std::size_t nodes : {1, 2, 4, 6, 8}) {
    sim::SimConfig config;
    config.nodes = nodes;
    config.client_streams = nodes;  // one closed-loop client per node
    config.limits = {cache_entries, 0};
    config.min_exec_seconds = 0.0;

    sim::SimConfig standalone = config;
    standalone.cooperative = false;

    const auto coop = sim::run_cluster_sim(trace, config);
    const auto stand = sim::run_cluster_sim(trace, standalone);

    const auto pct = [&](std::uint64_t hits) {
      return fmt_double(100.0 * static_cast<double>(hits) /
                            static_cast<double>(upper),
                        1);
    };
    table.add_row({std::to_string(nodes),
                   nodes == 1 ? "n/a" : std::to_string(stand.cache.hits()),
                   std::to_string(coop.cache.hits()),
                   nodes == 1 ? "n/a" : pct(stand.cache.hits()),
                   pct(coop.cache.hits()),
                   std::to_string(coop.cache.false_misses),
                   std::to_string(coop.cache.coalesced_misses)});
    std::printf("  simulated %zu node(s)...\n", nodes);
  }
  std::printf("\n%s\n", table.render().c_str());
}

}  // namespace swala::bench
