// Tests for the built-in admin endpoints: /swala-status statistics and
// /swala-admin/invalidate (application-driven invalidation over HTTP).
#include <gtest/gtest.h>

#include <filesystem>
#include <regex>
#include <string>
#include <vector>

#include "cgi/registry.h"
#include "cgi/scripted.h"
#include "cluster/local_cluster.h"
#include "http/client.h"
#include "server/swala_server.h"

namespace swala::server {
namespace {

core::ManagerOptions cache_options() {
  core::ManagerOptions mo;
  mo.limits = {100, 0};
  core::RuleDecision d;
  d.cacheable = true;
  mo.rules.add_rule("/cgi-bin/*", d);
  return mo;
}

std::shared_ptr<cgi::HandlerRegistry> make_registry() {
  auto registry = std::make_shared<cgi::HandlerRegistry>();
  registry->mount("/cgi-bin/",
                  std::make_shared<cgi::ScriptedCgi>(cgi::ScriptedOptions{}));
  return registry;
}

class AdminTest : public ::testing::Test {
 protected:
  void SetUp() override {
    manager_ = std::make_unique<core::CacheManager>(
        0, 1, cache_options(), RealClock::instance());
    SwalaServerOptions options;
    options.request_threads = 2;
    options.enable_admin = true;
    server_ = std::make_unique<SwalaServer>(options, make_registry(),
                                            manager_.get());
    ASSERT_TRUE(server_->start().is_ok());
    client_ = std::make_unique<http::HttpClient>(server_->address());
  }

  void TearDown() override {
    client_.reset();
    server_->stop();
  }

  std::unique_ptr<core::CacheManager> manager_;
  std::unique_ptr<SwalaServer> server_;
  std::unique_ptr<http::HttpClient> client_;
};

TEST_F(AdminTest, StatusReportsCounters) {
  ASSERT_TRUE(client_->get("/cgi-bin/x?a=1").is_ok());
  ASSERT_TRUE(client_->get("/cgi-bin/x?a=1").is_ok());  // hit

  auto status = client_->get("/swala-status");
  ASSERT_TRUE(status.is_ok());
  EXPECT_EQ(status.value().status, 200);
  EXPECT_EQ(status.value().headers.get("Content-Type"), "application/json");
  const std::string& body = status.value().body;
  EXPECT_NE(body.find("\"cache_local_hits\": 1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"cache_inserts\": 1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"cache_entries\": 1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"dynamic_requests\": 2"), std::string::npos) << body;
}

TEST_F(AdminTest, StatusReportsLatencyPercentiles) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client_->get("/cgi-bin/x?i=" + std::to_string(i)).is_ok());
  }
  auto status = client_->get("/swala-status");
  ASSERT_TRUE(status.is_ok());
  const std::string& body = status.value().body;
  EXPECT_NE(body.find("\"response_count\": 20"), std::string::npos) << body;
  EXPECT_NE(body.find("\"response_p50_us\":"), std::string::npos);
  EXPECT_NE(body.find("\"response_p99_us\":"), std::string::npos);

  // By now the status request itself has completed too: 20 CGI + 1 status.
  const auto hist = server_->latency();
  EXPECT_EQ(hist.count(), 21u);
}

TEST_F(AdminTest, InvalidateEndpointRemovesEntries) {
  ASSERT_TRUE(client_->get("/cgi-bin/report?q=1").is_ok());
  ASSERT_TRUE(client_->get("/cgi-bin/report?q=2").is_ok());
  ASSERT_TRUE(client_->get("/cgi-bin/keep?q=1").is_ok());
  ASSERT_EQ(manager_->store().entry_count(), 3u);

  // The pattern matches full cache keys; '*' covers "GET " prefix too.
  auto resp = client_->get("/swala-admin/invalidate?pattern=*%2Fcgi-bin%2Freport*");
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp.value().status, 200);
  EXPECT_NE(resp.value().body.find("\"removed\": 2"), std::string::npos)
      << resp.value().body;
  EXPECT_EQ(manager_->store().entry_count(), 1u);

  // The next request for an invalidated target re-executes.
  auto again = client_->get("/cgi-bin/report?q=1");
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value().headers.get("X-Swala-Cache"), "miss");
}

TEST_F(AdminTest, CheckConsistencyEndpointReportsMirror) {
  ASSERT_TRUE(client_->get("/cgi-bin/report?q=1").is_ok());
  ASSERT_TRUE(client_->get("/cgi-bin/report?q=2").is_ok());

  auto resp = client_->get("/swala-admin/check-consistency");
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp.value().status, 200);
  const std::string& body = resp.value().body;
  EXPECT_NE(body.find("\"consistent\": true"), std::string::npos) << body;
  EXPECT_NE(body.find("\"store_entries\": 2"), std::string::npos) << body;
  EXPECT_NE(body.find("\"directory_entries\": 2"), std::string::npos) << body;
  EXPECT_NE(body.find("\"commit_sequence\": 2"), std::string::npos) << body;

  // An injected desync (store mutated behind the manager's back) flips the
  // endpoint to 500.
  const_cast<core::CacheStore&>(manager_->store()).erase("GET /cgi-bin/report?q=1");
  auto broken = client_->get("/swala-admin/check-consistency");
  ASSERT_TRUE(broken.is_ok());
  EXPECT_EQ(broken.value().status, 500);
  EXPECT_NE(broken.value().body.find("\"consistent\": false"),
            std::string::npos)
      << broken.value().body;
  EXPECT_NE(broken.value().body.find("\"stale_in_directory\": 1"),
            std::string::npos)
      << broken.value().body;
}

TEST_F(AdminTest, InvalidateWithoutPatternIs400) {
  auto resp = client_->get("/swala-admin/invalidate");
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp.value().status, 400);
}

// A clustered node's /swala-status must expose the failure-model state:
// cluster counters, the fallback stat, and per-peer breaker health.
TEST(AdminClusterTest, StatusReportsPeerHealth) {
  cluster::LocalCluster cluster(
      2, [](core::NodeId) { return cache_options(); });

  SwalaServerOptions options;
  options.request_threads = 2;
  options.enable_admin = true;
  SwalaServer server(options, make_registry(), &cluster.manager(0));
  server.set_group(&cluster.group(0));
  ASSERT_TRUE(server.start().is_ok());

  http::HttpClient client(server.address());
  auto status = client.get("/swala-status");
  ASSERT_TRUE(status.is_ok());
  EXPECT_EQ(status.value().status, 200);
  const std::string& body = status.value().body;
  EXPECT_NE(body.find("\"cluster_remote_fetches\":"), std::string::npos) << body;
  EXPECT_NE(body.find("\"cluster_probes_sent\":"), std::string::npos);
  EXPECT_NE(body.find("\"cluster_resyncs_requested\":"), std::string::npos);
  EXPECT_NE(body.find("\"cache_fallback_executions\":"), std::string::npos);
  EXPECT_NE(body.find("\"cluster_peers\": ["), std::string::npos) << body;
  EXPECT_NE(body.find("\"state\": \"healthy\""), std::string::npos) << body;
  server.stop();
}

// /swala-admin/check-consistency?cluster=1 runs the global oracle over the
// whole LocalCluster: per-node store↔directory mirrors plus cross-node
// directory drift, 200/500 by the combined verdict.
TEST(AdminClusterTest, ClusterConsistencyEndpointRunsGlobalOracle) {
  cluster::LocalCluster cluster(
      2, [](core::NodeId) { return cache_options(); });

  SwalaServerOptions options;
  options.request_threads = 2;
  options.enable_admin = true;
  SwalaServer server(options, make_registry(), &cluster.manager(0));
  server.set_group(&cluster.group(0));
  server.set_cluster_check(
      [&cluster] { return cluster.check_cluster_consistency(); });
  ASSERT_TRUE(server.start().is_ok());

  http::HttpClient client(server.address());
  // Populate node 0 through the server; the insert broadcast reaches node 1.
  ASSERT_TRUE(client.get("/cgi-bin/report?q=1").is_ok());
  ASSERT_TRUE(cluster.quiesce());

  auto resp = client.get("/swala-admin/check-consistency?cluster=1");
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp.value().status, 200);
  const std::string& body = resp.value().body;
  EXPECT_NE(body.find("\"consistent\": true"), std::string::npos) << body;
  EXPECT_NE(body.find("\"nodes\": ["), std::string::npos) << body;
  EXPECT_NE(body.find("\"drift\": ["), std::string::npos) << body;

  // Erase node 0's entry behind the managers' backs: node 0's self-mirror
  // breaks, and node 1's table still advertises the key — the oracle must
  // flip the endpoint to 500 and surface the cross-node stale count.
  const_cast<core::CacheStore&>(cluster.manager(0).store())
      .erase("GET /cgi-bin/report?q=1");
  auto broken = client.get("/swala-admin/check-consistency?cluster=1");
  ASSERT_TRUE(broken.is_ok());
  EXPECT_EQ(broken.value().status, 500);
  EXPECT_NE(broken.value().body.find("\"consistent\": false"),
            std::string::npos)
      << broken.value().body;
  EXPECT_NE(broken.value().body.find("\"stale\": 1"), std::string::npos)
      << broken.value().body;
  server.stop();
}

// Every key /swala-status prints, in order, for the richest configuration:
// clustered (cluster_* keys and one cluster_peers entry), disk-backed (the
// durability object), CGI gate on, after one miss and one hit. Tests, CI and
// operators parse these names, so dropping or renaming one must fail here.
TEST(AdminClusterTest, StatusKeysArePinned) {
  const std::string dir = "/tmp/swala_admin_status_keys";
  std::filesystem::remove_all(dir);
  cluster::LocalCluster cluster(2, [&dir](core::NodeId id) {
    core::ManagerOptions mo = cache_options();
    mo.disk_dir = dir + "/node" + std::to_string(id);
    return mo;
  });

  SwalaServerOptions options;
  options.request_threads = 2;
  options.enable_admin = true;
  options.max_concurrent_cgi = 2;
  SwalaServer server(options, make_registry(), &cluster.manager(0));
  server.set_group(&cluster.group(0));
  ASSERT_TRUE(server.start().is_ok());

  std::vector<std::string> keys;
  {
    http::HttpClient client(server.address());
    auto miss = client.get("/cgi-bin/pin?q=1");
    ASSERT_TRUE(miss.is_ok());
    EXPECT_EQ(miss.value().headers.get("X-Swala-Cache"), "miss");
    auto hit = client.get("/cgi-bin/pin?q=1");
    ASSERT_TRUE(hit.is_ok());
    EXPECT_EQ(hit.value().headers.get("X-Swala-Cache"), "hit-local");
    auto status = client.get("/swala-status");
    ASSERT_TRUE(status.is_ok());
    ASSERT_EQ(status.value().status, 200);
    const std::string& body = status.value().body;
    const std::regex key_re("\"([a-z0-9_]+)\":");
    for (auto it = std::sregex_iterator(body.begin(), body.end(), key_re);
         it != std::sregex_iterator(); ++it) {
      keys.push_back((*it)[1].str());
    }
  }
  server.stop();
  std::filesystem::remove_all(dir);

  const std::vector<std::string> expected = {
      "io_model", "connections", "requests", "static_requests",
      "dynamic_requests", "errors", "bytes_sent", "requests_shed",
      "deadline_exceeded", "active_connections", "draining",
      "cgi_gate_capacity", "cgi_active", "cgi_waiting", "cgi_queue_waits",
      "cgi_queue_timeouts", "response_count", "response_mean_us",
      "response_p50_us", "response_p95_us", "response_p99_us",
      "cluster_remote_fetches", "cluster_send_failures",
      "cluster_send_retries", "cluster_peer_failures",
      "cluster_messages_dropped", "cluster_probes_sent",
      "cluster_resyncs_requested", "cluster_resyncs_served",
      "cluster_frames_sent", "cluster_batched_broadcasts",
      "cluster_owner_updates_sent", "cluster_queries_sent",
      "cluster_query_hits", "cluster_queries_served",
      "cluster_anti_entropy_rounds", "cluster_digests_sent",
      "cluster_digest_repairs", "cluster_inv_syncs_pulled",
      "cluster_inv_syncs_served", "cluster_joins_sent",
      "cluster_joins_served", "cluster_decommissions_observed",
      "cluster_handoff_frames_sent", "cluster_handoffs_adopted",
      "cluster_peers", "id", "state", "consecutive_failures",
      "total_failures", "messages_dropped", "probes_sent", "outbound_backlog",
      "cache_lookups", "cache_local_hits", "cache_remote_hits",
      "cache_misses", "cache_inserts", "cache_false_hits",
      "cache_false_misses", "cache_invalidations",
      "cache_fallback_executions", "cache_coalesced_misses",
      "cache_coalesce_timeouts", "cache_failed_fast",
      "inv_epoch_gaps_repaired", "stale_serves_prevented",
      "inv_overflow_purges", "directory_mode", "membership_epoch",
      "membership_transitions", "cluster_handoff_records_sent",
      "cache_remote_dir_lookups", "cache_remote_dir_hits",
      "cache_peer_queries", "cache_peer_query_hits", "durability",
      "disk_errors", "store_degraded", "degraded_skips", "checkpoints",
      "checkpoint_failures", "scrub_adopted", "scrub_quarantined",
      "scrub_orphans_removed", "scrub_temps_removed", "store_backend",
      "erase_errors", "volume_flushes", "volume_flushed_records",
      "volume_compactions", "volume_compacted_records",
      "volume_corrupt_records_skipped", "volume_torn_tail_truncated",
      "volume_index_mismatches", "volume_segments_total",
      "volume_segments_free", "volume_dead_bytes", "cache_entries",
      "cache_bytes", "cache_hot_hits", "cache_hot_misses", "cache_hot_bytes",
      "cache_pinned_entries",
  };
  EXPECT_EQ(keys, expected);
}

TEST(AdminClusterTest, ClusterConsistencyWithoutOracleIs404) {
  auto manager = std::make_unique<core::CacheManager>(
      0, 1, cache_options(), RealClock::instance());
  SwalaServerOptions options;
  options.request_threads = 2;
  options.enable_admin = true;
  SwalaServer server(options, make_registry(), manager.get());
  ASSERT_TRUE(server.start().is_ok());
  {
    http::HttpClient client(server.address());
    auto resp = client.get("/swala-admin/check-consistency?cluster=1");
    ASSERT_TRUE(resp.is_ok());
    EXPECT_EQ(resp.value().status, 404);
    // The single-node check still answers without the oracle.
    auto local = client.get("/swala-admin/check-consistency");
    ASSERT_TRUE(local.is_ok());
    EXPECT_EQ(local.value().status, 200);
  }
  server.stop();
}

TEST(AdminDisabledTest, EndpointsInvisibleByDefault) {
  SwalaServerOptions options;
  options.request_threads = 2;
  SwalaServer server(options, make_registry(), nullptr);
  ASSERT_TRUE(server.start().is_ok());
  {
    http::HttpClient client(server.address());
    auto resp = client.get("/swala-status");
    ASSERT_TRUE(resp.is_ok());
    EXPECT_EQ(resp.value().status, 404);
  }
  server.stop();
}

TEST(AdminNoCacheTest, InvalidateWithoutCacheIs404) {
  SwalaServerOptions options;
  options.request_threads = 2;
  options.enable_admin = true;
  SwalaServer server(options, make_registry(), nullptr);
  ASSERT_TRUE(server.start().is_ok());
  {
    http::HttpClient client(server.address());
    auto resp = client.get("/swala-admin/invalidate?pattern=*");
    ASSERT_TRUE(resp.is_ok());
    EXPECT_EQ(resp.value().status, 404);
    // Status still works, reporting cache disabled.
    auto status = client.get("/swala-status");
    ASSERT_TRUE(status.is_ok());
    EXPECT_NE(status.value().body.find("\"cache_enabled\": 0"),
              std::string::npos);
  }
  server.stop();
}

}  // namespace
}  // namespace swala::server
