// Ablation — membership churn under load (PR10 tentpole).
//
// A 64-node cluster serves the calibrated ADL mix while the membership
// changes underneath it: one node starts *outside* the active set and joins
// at 30% of the trace, another decommissions gracefully at 60%. The same
// scenario runs under both directory cooperation schemes and is
// compared against a no-churn baseline of the same trace:
//
//   * hit-ratio retention — churn must cost at most a few points, because
//     a graceful leave hands its cached state to ring successors instead of
//     throwing it away, and a join migrates only the remapped key ranges.
//   * handoff + transition traffic vs a full resync — the targeted
//     migration must stay well below re-announcing every resident entry.
//   * zero committed-entry loss — every key resident on the leaver at
//     decommission time must survive on some remaining node.
//   * the post-churn consistency oracle over the final membership.
//
// Human-readable table goes to stderr; stdout is machine-readable JSON
// (CI's bench-smoke gate):
//   ablation_churn [--smoke]
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "sim/cluster_sim.h"
#include "workload/adl_synth.h"

using namespace swala;

namespace {

struct ModeResult {
  std::string mode;
  sim::SimReport baseline;  ///< static membership, same trace
  sim::SimReport churn;     ///< one join + one decommission under load
  std::size_t committed = 0;  ///< leaver's resident entries at leave time
  std::size_t lost = 0;       ///< of those, missing from every survivor
};

double hit_ratio(const core::ManagerStats& cache) {
  return cache.lookups
             ? static_cast<double>(cache.hits()) /
                   static_cast<double>(cache.lookups)
             : 0.0;
}

ModeResult run_mode(const workload::Trace& trace, core::DirectoryMode mode,
                    std::size_t nodes) {
  sim::SimConfig config;
  config.nodes = nodes;
  config.client_streams = nodes;  // one closed-loop stream per node (§5.2)
  config.limits = {100000, 0};
  config.directory_mode = mode;

  ModeResult result;
  result.mode = core::directory_mode_name(mode);
  result.baseline = sim::run_cluster_sim(trace, config);

  // Churn: the highest id joins at 30%, node 0 leaves at 60%. Uncapped
  // handoff so the zero-loss check is exact.
  config.join_node = static_cast<core::NodeId>(nodes - 1);
  config.join_after_fraction = 0.3;
  config.decommission_node = 0;
  config.decommission_after_fraction = 0.6;
  config.handoff_batch_bytes = 0;
  result.churn = sim::run_cluster_sim(trace, config);

  // Zero-loss audit: every entry the leaver held must survive on some
  // remaining node (the leaver's own residual store does not count).
  std::unordered_set<std::string> survivors;
  for (std::size_t i = 1; i < result.churn.node_keys.size(); ++i) {
    for (const auto& key : result.churn.node_keys[i]) survivors.insert(key);
  }
  result.committed = result.churn.decommissioned_keys.size();
  for (const auto& key : result.churn.decommissioned_keys) {
    if (survivors.count(key) == 0) ++result.lost;
  }
  return result;
}

/// Frames a naive rebuild would send: every surviving resident entry
/// re-announced once. The targeted migration must stay well below this.
std::uint64_t full_resync_reference(const sim::SimReport& report) {
  std::uint64_t entries = 0;
  for (const auto& keys : report.node_keys) entries += keys.size();
  return entries;
}

void emit_mode_json(const ModeResult& r, bool last) {
  std::printf(
      "    {\"mode\": \"%s\",\n"
      "     \"baseline_hit_ratio\": %.4f, \"churn_hit_ratio\": %.4f,\n"
      "     \"membership_transitions\": %llu,\n"
      "     \"handoff_frames\": %llu, \"handoff_bytes\": %llu,"
      " \"handoffs_adopted\": %llu,\n"
      "     \"transition_frames\": %llu, \"transition_bytes\": %llu,\n"
      "     \"full_resync_frames_reference\": %llu,\n"
      "     \"committed_entries\": %zu, \"committed_lost\": %zu,\n"
      "     \"churn_consistent\": %s}%s\n",
      r.mode.c_str(), hit_ratio(r.baseline.cache), hit_ratio(r.churn.cache),
      static_cast<unsigned long long>(r.churn.membership_transitions),
      static_cast<unsigned long long>(r.churn.handoff_frames),
      static_cast<unsigned long long>(r.churn.handoff_bytes),
      static_cast<unsigned long long>(r.churn.handoffs_adopted),
      static_cast<unsigned long long>(r.churn.transition_frames),
      static_cast<unsigned long long>(r.churn.transition_bytes),
      static_cast<unsigned long long>(full_resync_reference(r.churn)),
      r.committed, r.lost, r.churn.churn_consistent ? "true" : "false",
      last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const std::size_t nodes = smoke ? 8 : 64;
  std::fprintf(stderr,
               "Ablation — membership churn under load (%zu nodes, one join "
               "+ one graceful decommission)%s\n",
               nodes, smoke ? " (smoke)" : "");

  // Same per-node load as the directory-mode ablation; ~60% unique keys so
  // the cooperative hit ratio has room to show retention.
  const std::size_t requests = 48 * nodes;
  const std::size_t unique = (requests * 6) / 10;
  const auto trace = workload::synthesize_request_mix(
      requests, unique, 1.0, 5399 + static_cast<unsigned>(nodes));

  constexpr core::DirectoryMode kModes[] = {core::DirectoryMode::kReplicated,
                                            core::DirectoryMode::kPartitioned};

  TablePrinter table({"mode", "hit (base)", "hit (churn)", "drop (pts)",
                      "handoff fr", "transition fr", "resync ref", "lost",
                      "oracle"});
  std::vector<ModeResult> results;
  for (const auto mode : kModes) {
    results.push_back(run_mode(trace, mode, nodes));
    const ModeResult& r = results.back();
    table.add_row(
        {r.mode, fmt_double(hit_ratio(r.baseline.cache), 3),
         fmt_double(hit_ratio(r.churn.cache), 3),
         fmt_double(100.0 * (hit_ratio(r.baseline.cache) -
                             hit_ratio(r.churn.cache)), 1),
         std::to_string(r.churn.handoff_frames),
         std::to_string(r.churn.transition_frames),
         std::to_string(full_resync_reference(r.churn)),
         std::to_string(r.lost),
         r.churn.churn_consistent ? "pass" : "FAIL"});
    std::fprintf(stderr, "  %s: done\n", r.mode.c_str());
    if (!r.churn.churn_consistent) {
      std::fprintf(stderr, "  %s oracle findings:\n%s", r.mode.c_str(),
                   r.churn.churn_report.c_str());
    }
  }
  std::fprintf(stderr, "\n%s\n", table.render().c_str());

  // ---- JSON (stdout) ----
  std::printf("{\n");
  std::printf(
      "  \"description\": \"Membership churn under load: one staged join "
      "and one graceful decommission against a %zu-node cluster replaying "
      "the calibrated ADL mix, under both directory modes. Retention "
      "compares the churn run's hit ratio to a static-membership baseline; "
      "handoff/transition traffic (real encoded frame sizes) is compared "
      "against a full re-announce of every resident entry; the zero-loss "
      "audit requires every entry the leaver held to survive on a "
      "remaining node.\",\n",
      nodes);
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"nodes\": %zu,\n", nodes);
  std::printf("  \"modes\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    emit_mode_json(results[i], i + 1 == results.size());
  }
  std::printf("  ],\n");

  // Gate summary: the CI bench-smoke job asserts on these.
  double max_drop = 0.0;
  std::size_t total_lost = 0;
  bool all_consistent = true;
  bool all_transitions = true;
  for (const auto& r : results) {
    const double drop =
        hit_ratio(r.baseline.cache) - hit_ratio(r.churn.cache);
    if (drop > max_drop) max_drop = drop;
    total_lost += r.lost;
    all_consistent = all_consistent && r.churn.churn_consistent;
    all_transitions = all_transitions && r.churn.membership_transitions == 2;
  }
  const ModeResult& part = results[1];
  const std::uint64_t part_migration =
      part.churn.handoff_frames + part.churn.transition_frames;
  std::printf("  \"gate\": {\n");
  std::printf("    \"max_hit_ratio_drop\": %.4f,\n", max_drop);
  std::printf("    \"total_committed_lost\": %zu,\n", total_lost);
  std::printf("    \"all_modes_consistent\": %s,\n",
              all_consistent ? "true" : "false");
  std::printf("    \"all_modes_two_transitions\": %s,\n",
              all_transitions ? "true" : "false");
  std::printf("    \"partitioned_migration_frames\": %llu,\n",
              static_cast<unsigned long long>(part_migration));
  std::printf("    \"partitioned_handoffs_adopted\": %llu,\n",
              static_cast<unsigned long long>(part.churn.handoffs_adopted));
  std::printf("    \"full_resync_frames_reference\": %llu\n",
              static_cast<unsigned long long>(
                  full_resync_reference(part.churn)));
  std::printf("  }\n");
  std::printf("}\n");
  return 0;
}
