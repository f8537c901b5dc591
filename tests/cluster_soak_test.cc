// Soak test: a 4-node cluster under concurrent mixed load with every
// mechanism churning at once — small caches (constant eviction +
// broadcast), TTLs (purge daemon), repeats (local/remote hits, false
// misses), and pattern invalidations — then invariant checks.
#include <gtest/gtest.h>

#include <thread>

#include "cluster/local_cluster.h"
#include "common/random.h"

namespace swala::cluster {
namespace {

core::ManagerOptions soak_options(core::NodeId) {
  core::ManagerOptions mo;
  mo.limits = {30, 0};  // small: evictions happen constantly
  core::RuleDecision ttl_rule;
  ttl_rule.cacheable = true;
  ttl_rule.ttl_seconds = 0.5;
  mo.rules.add_rule("/cgi-bin/ttl/*", ttl_rule);
  core::RuleDecision plain;
  plain.cacheable = true;
  mo.rules.add_rule("/cgi-bin/*", plain);
  return mo;
}

cgi::CgiOutput ok_output(std::size_t bytes) {
  cgi::CgiOutput out;
  out.success = true;
  out.body = std::string(bytes, 'z');
  return out;
}

TEST(ClusterSoakTest, MixedChurnStaysConsistent) {
  GroupOptions go;
  go.purge_interval_seconds = 0.1;
  // Concurrent churn legitimately strands remote-table entries (an insert
  // broadcast in flight when a matching invalidation lands is applied after
  // it — permanent drift under plain weak consistency). The anti-entropy
  // rounds are what reconverge it, so the global oracle below can demand
  // exact agreement.
  go.anti_entropy_interval_ms = 200;
  LocalCluster cluster(4, soak_options, RealClock::instance(), go);

  constexpr int kThreadsPerNode = 2;
  constexpr int kOpsPerThread = 300;
  std::atomic<std::uint64_t> executed{0};

  std::vector<std::thread> threads;
  for (std::size_t node = 0; node < cluster.size(); ++node) {
    for (int t = 0; t < kThreadsPerNode; ++t) {
      threads.emplace_back([&, node, t] {
        Rng rng(node * 131 + static_cast<std::uint64_t>(t));
        auto& manager = cluster.manager(node);
        for (int op = 0; op < kOpsPerThread; ++op) {
          const int dice = static_cast<int>(rng.uniform_int(0, 99));
          if (dice < 90) {
            // A request from a popular pool (repeats) or the TTL family.
            const bool ttl = dice < 15;
            const std::string target =
                std::string("/cgi-bin/") + (ttl ? "ttl/" : "") + "q?k=" +
                std::to_string(rng.uniform_int(0, 60));
            http::Uri uri;
            ASSERT_TRUE(http::parse_uri(target, &uri));
            auto lookup = manager.lookup(http::Method::kGet, uri, Deadline());
            if (lookup.outcome == core::LookupOutcome::kMissMustExecute) {
              executed.fetch_add(1, std::memory_order_relaxed);
              manager.complete(http::Method::kGet, uri, lookup.rule,
                               ok_output(64 + static_cast<std::size_t>(
                                                  rng.uniform_int(0, 512))),
                               1.0);
            }
          } else if (dice < 95) {
            manager.invalidate("GET /cgi-bin/q?k=" +
                               std::to_string(rng.uniform_int(0, 60)));
          } else {
            manager.purge_expired();
          }
        }
      });
    }
  }
  for (auto& thread : threads) thread.join();

  // Quiesce: wait for in-flight broadcasts to drain (deterministic, not a
  // blind sleep).
  EXPECT_TRUE(cluster.quiesce()) << "broadcast backlog never drained";

  // Global oracle: per-node store↔directory mirrors plus cross-node drift.
  // Transient drift from the churn is legal; the anti-entropy digest rounds
  // (two-strike rule, so >= 2 intervals) must reconverge it — poll while
  // the daemons still run, then freeze.
  core::ClusterConsistencyReport cluster_report;
  const auto repair_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (true) {
    cluster_report = cluster.check_cluster_consistency();
    if (cluster_report.consistent() ||
        std::chrono::steady_clock::now() > repair_deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(cluster_report.consistent()) << cluster_report.to_string();
  cluster.stop();

  // Invariants per node: the local directory table mirrors the store, and
  // capacity limits hold.
  for (std::size_t node = 0; node < cluster.size(); ++node) {
    auto& manager = cluster.manager(node);
    const auto report = manager.debug_check_consistency();
    EXPECT_TRUE(report.consistent())
        << "node " << node << ": " << report.to_string();
    EXPECT_LE(manager.store().entry_count(), 30u);
    EXPECT_EQ(manager.directory().table_size(
                  static_cast<core::NodeId>(node)),
              manager.store().entry_count())
        << "node " << node;
    for (const auto& key : manager.store().keys()) {
      EXPECT_TRUE(manager.directory()
                      .lookup_at(static_cast<core::NodeId>(node), key)
                      .has_value() ||
                  manager.store().peek(key) == std::nullopt)
          << "store/directory divergence at node " << node << ": " << key;
    }
  }

  // The cluster did real work and real sharing.
  std::uint64_t hits = 0, false_misses = 0;
  for (std::size_t node = 0; node < cluster.size(); ++node) {
    hits += cluster.manager(node).stats().hits();
    false_misses += cluster.manager(node).stats().false_misses;
  }
  EXPECT_GT(executed.load(), 0u);
  EXPECT_GT(hits, 0u);
  SUCCEED() << "executed=" << executed.load() << " hits=" << hits
            << " false_misses=" << false_misses;
}

}  // namespace
}  // namespace swala::cluster
