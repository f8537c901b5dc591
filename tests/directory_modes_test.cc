// Mode-parity battery for the two directory cooperation schemes
// (replicated broadcast, consistent-hash partitioned ownership). With zero
// propagation delay, zero probe latency and no faults the schemes are
// semantically equivalent — every lookup sees the same global knowledge —
// so a deterministic trace must converge to identical cache contents and
// identical hit/miss decisions in both.
// Any drift here means a mode is silently answering differently.
#include <gtest/gtest.h>

#include <algorithm>

#include "sim/cluster_sim.h"
#include "workload/adl_synth.h"

namespace swala::sim {
namespace {

workload::Trace parity_trace() {
  // Small deterministic mix: enough repeats for remote hits, enough unique
  // keys to spread across every node's ring range.
  return workload::synthesize_request_mix(600, 180, 1.0, 99);
}

SimConfig parity_config(core::DirectoryMode mode) {
  SimConfig config;
  config.nodes = 4;
  config.client_streams = 8;
  config.directory_mode = mode;
  // Collapse the weak-consistency windows: broadcasts land instantly and
  // probes are free, so both modes see identical virtual timelines and
  // the comparison is exact, not statistical.
  config.costs.directory_update_delay = 0.0;
  config.costs.query_latency = 0.0;
  return config;
}

// A trace with no overlapping requests: arrivals are spaced wider than any
// request can take, so the cluster handles exactly one request at a time.
// This is the regime where the two modes are semantically equivalent —
// concurrent same-key execution is precisely where they legitimately differ
// (replicated propagation is asynchronous even at zero delay; probes read
// the peer's current state synchronously).
workload::Trace sequential_trace() {
  auto trace = workload::synthesize_request_mix(400, 150, 1.0, 99);
  double max_service = 0.0;
  for (const auto& r : trace) {
    max_service = std::max(max_service, r.service_seconds);
  }
  const double spacing = max_service + 1.0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].arrival_seconds = static_cast<double>(i) * spacing;
  }
  return trace;
}

TEST(DirectoryModeParityTest, IdenticalCacheContentsAndDecisions) {
  const auto trace = sequential_trace();
  auto sequential = [](core::DirectoryMode mode) {
    SimConfig config = parity_config(mode);
    config.open_loop = true;  // replay at the (non-overlapping) trace times
    return config;
  };
  const auto replicated =
      run_cluster_sim(trace, sequential(core::DirectoryMode::kReplicated));
  const auto partitioned =
      run_cluster_sim(trace, sequential(core::DirectoryMode::kPartitioned));

  // The modes exercised what they should: remote hits happened, and the
  // partitioned mode actually took its probe path.
  ASSERT_GT(replicated.cache.remote_hits, 0u);
  EXPECT_GT(partitioned.cache.remote_dir_lookups, 0u);
  EXPECT_GT(partitioned.cache.remote_dir_hits, 0u);
  EXPECT_EQ(replicated.cache.remote_dir_lookups, 0u);

  // Identical hit/miss decisions...
  const auto& p = partitioned;
  EXPECT_EQ(p.requests_completed, replicated.requests_completed);
  EXPECT_EQ(p.cache.lookups, replicated.cache.lookups);
  EXPECT_EQ(p.cache.local_hits, replicated.cache.local_hits);
  EXPECT_EQ(p.cache.remote_hits, replicated.cache.remote_hits);
  EXPECT_EQ(p.cache.misses, replicated.cache.misses);
  EXPECT_EQ(p.cache.inserts, replicated.cache.inserts);
  EXPECT_EQ(p.cache.false_hits, replicated.cache.false_hits);
  EXPECT_EQ(p.cache.false_misses, replicated.cache.false_misses);
  // ...identical timelines (probes were free, so response times match)...
  EXPECT_DOUBLE_EQ(p.sim_seconds, replicated.sim_seconds);
  // ...and byte-identical final cache contents on every node.
  EXPECT_EQ(p.node_keys, replicated.node_keys);
}

TEST(DirectoryModeParityTest, EachModeIsDeterministic) {
  const auto trace = parity_trace();
  for (auto mode :
       {core::DirectoryMode::kReplicated, core::DirectoryMode::kPartitioned}) {
    const auto a = run_cluster_sim(trace, parity_config(mode));
    const auto b = run_cluster_sim(trace, parity_config(mode));
    EXPECT_EQ(a.node_keys, b.node_keys);
    EXPECT_EQ(a.cache.local_hits, b.cache.local_hits);
    EXPECT_EQ(a.cache.remote_hits, b.cache.remote_hits);
    EXPECT_EQ(a.dir_update_frames, b.dir_update_frames);
    EXPECT_EQ(a.dir_query_frames, b.dir_query_frames);
    EXPECT_DOUBLE_EQ(a.sim_seconds, b.sim_seconds);
  }
}

// The asymptote partitioned mode exists for: replicated pays O(n) update
// frames per insert, partitioned O(1).
TEST(DirectoryModeParityTest, UpdateTrafficAsymptote) {
  const auto trace = parity_trace();
  const auto replicated =
      run_cluster_sim(trace, parity_config(core::DirectoryMode::kReplicated));
  const auto partitioned =
      run_cluster_sim(trace, parity_config(core::DirectoryMode::kPartitioned));

  ASSERT_GT(replicated.cache.inserts, 0u);
  const double repl_fpi = static_cast<double>(replicated.dir_update_frames) /
                          static_cast<double>(replicated.cache.inserts);
  const double part_fpi = static_cast<double>(partitioned.dir_update_frames) /
                          static_cast<double>(partitioned.cache.inserts);
  // 4 nodes: replicated broadcasts 3 legs per insert (plus erase legs);
  // partitioned sends at most one kOwnerUpdate per insert (3/4 of keys are
  // owned remotely) plus the occasional eviction erase.
  EXPECT_GE(repl_fpi, 3.0);
  EXPECT_LE(part_fpi, 1.5);
  // Replicated mode never probes at miss time; partitioned owner lookups
  // are counted as query frames.
  EXPECT_EQ(replicated.dir_query_frames, 0u);
  EXPECT_GT(partitioned.dir_query_frames, 0u);
}

// Membership churn under load, both modes: the highest node joins at
// 30% of the trace, node 0 decommissions gracefully at 60%. Every mode must
// end oracle-consistent with zero committed-entry loss, and the whole
// episode must stay deterministic.
TEST(DirectoryModeParityTest, ChurnUnderLoadStaysConsistentWithZeroLoss) {
  const auto trace = workload::synthesize_request_mix(600, 200, 1.0, 77);
  for (auto mode :
       {core::DirectoryMode::kReplicated, core::DirectoryMode::kPartitioned}) {
    SCOPED_TRACE(core::directory_mode_name(mode));
    SimConfig config = parity_config(mode);
    config.join_node = 3;
    config.join_after_fraction = 0.3;
    config.decommission_node = 0;
    config.decommission_after_fraction = 0.6;
    config.handoff_batch_bytes = 0;  // uncapped: the loss check is exact
    const auto report = run_cluster_sim(trace, config);

    EXPECT_EQ(report.membership_transitions, 2u);
    EXPECT_TRUE(report.churn_consistent) << report.churn_report;
    EXPECT_GT(report.handoff_frames, 0u)
        << "the decommission must ship entries to successors";
    EXPECT_GT(report.handoffs_adopted, 0u);
    ASSERT_FALSE(report.decommissioned_keys.empty());

    // Zero loss: every key resident on the leaver at decommission time
    // survives on some remaining node.
    std::vector<std::string> survivors;
    for (std::size_t i = 1; i < report.node_keys.size(); ++i) {
      survivors.insert(survivors.end(), report.node_keys[i].begin(),
                       report.node_keys[i].end());
    }
    std::sort(survivors.begin(), survivors.end());
    for (const auto& key : report.decommissioned_keys) {
      EXPECT_TRUE(
          std::binary_search(survivors.begin(), survivors.end(), key))
          << key << " lost in the handoff";
    }

    // Determinism holds under churn.
    const auto again = run_cluster_sim(trace, config);
    EXPECT_EQ(report.node_keys, again.node_keys);
    EXPECT_EQ(report.handoff_frames, again.handoff_frames);
    EXPECT_EQ(report.transition_frames, again.transition_frames);
    EXPECT_DOUBLE_EQ(report.sim_seconds, again.sim_seconds);
  }
}

}  // namespace
}  // namespace swala::sim
