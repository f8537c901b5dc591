// Tests for the invalidation extensions (§4.2 future work): pattern-based
// application-driven invalidation (local, cluster-wide broadcast, peer
// application), including over a real loopback cluster.
#include <gtest/gtest.h>

#include <thread>

#include "cluster/local_cluster.h"
#include "common/clock.h"
#include "core/manager.h"
#include "recording_bus.h"

namespace swala::core {
namespace {

http::Uri uri_of(const std::string& target) {
  http::Uri uri;
  EXPECT_TRUE(http::parse_uri(target, &uri));
  return uri;
}

cgi::CgiOutput ok_output(const std::string& body) {
  cgi::CgiOutput out;
  out.success = true;
  out.body = body;
  return out;
}

ManagerOptions open_options(NodeId = 0) {
  ManagerOptions mo;
  mo.limits = {1000, 0};
  RuleDecision d;
  d.cacheable = true;
  mo.rules.add_rule("/cgi-bin/*", d);
  return mo;
}

void cache_target(CacheManager& manager, const std::string& target) {
  const auto uri = uri_of(target);
  auto lookup = manager.lookup(http::Method::kGet, uri, Deadline());
  ASSERT_EQ(lookup.outcome, LookupOutcome::kMissMustExecute) << target;
  manager.complete(http::Method::kGet, uri, lookup.rule, ok_output("data"),
                   1.0);
}

// ---- store-level erase_matching ----

TEST(StoreInvalidationTest, EraseMatchingGlob) {
  ManualClock clock(0);
  CacheStore store({100, 0}, PolicyKind::kLru,
                   std::make_unique<MemoryBackend>(), &clock, 0);
  std::vector<EntryMeta> evicted;
  for (const char* target : {"/cgi-bin/report?q=1", "/cgi-bin/report?q=2",
                             "/cgi-bin/other?q=1"}) {
    ASSERT_TRUE(store
                    .insert(CacheKey::make("GET", target), "d", 1.0, 0, "t",
                            200, &evicted)
                    .is_ok());
  }
  const auto removed = store.erase_matching("GET /cgi-bin/report*");
  EXPECT_EQ(removed.size(), 2u);
  EXPECT_EQ(store.entry_count(), 1u);
  EXPECT_TRUE(store.contains("GET /cgi-bin/other?q=1"));
  EXPECT_TRUE(store.erase_matching("GET /nothing*").empty());
}

TEST(StoreInvalidationTest, KeysListsEverything) {
  ManualClock clock(0);
  CacheStore store({100, 0}, PolicyKind::kLru,
                   std::make_unique<MemoryBackend>(), &clock, 0);
  std::vector<EntryMeta> evicted;
  EXPECT_TRUE(store.keys().empty());
  ASSERT_TRUE(store
                  .insert(CacheKey::make("GET", "/cgi-bin/a"), "d", 1.0, 0,
                          "t", 200, &evicted)
                  .is_ok());
  EXPECT_EQ(store.keys(), std::vector<std::string>{"GET /cgi-bin/a"});
}

// ---- directory-level erase_matching ----

TEST(DirectoryInvalidationTest, RemovesAcrossAllTables) {
  ManualClock clock(0);
  CacheDirectory dir(0, 3, LockingMode::kPerTable);
  dir.set_clock(&clock);
  for (NodeId owner = 0; owner < 3; ++owner) {
    EntryMeta meta;
    meta.key = "GET /cgi-bin/x?owner=" + std::to_string(owner);
    meta.owner = owner;
    dir.apply_insert(meta);
  }
  EXPECT_EQ(dir.erase_matching("GET /cgi-bin/x*"), 3u);
  EXPECT_EQ(dir.size(), 0u);
}

// ---- manager-level invalidation ----

TEST(ManagerInvalidationTest, LocalInvalidateRemovesStoreAndDirectory) {
  ManualClock clock(0);
  CacheManager manager(0, 1, open_options(), &clock);
  cache_target(manager, "/cgi-bin/report?q=1");
  cache_target(manager, "/cgi-bin/report?q=2");
  cache_target(manager, "/cgi-bin/keep?q=1");

  EXPECT_EQ(manager.invalidate("GET /cgi-bin/report*"), 2u);
  EXPECT_EQ(manager.stats().invalidations, 2u);
  EXPECT_EQ(manager.lookup(http::Method::kGet, uri_of("/cgi-bin/report?q=1"),
                           Deadline())
                .outcome,
            LookupOutcome::kMissMustExecute);
  EXPECT_EQ(manager.lookup(http::Method::kGet, uri_of("/cgi-bin/keep?q=1"),
                           Deadline())
                .outcome,
            LookupOutcome::kHit);
}

TEST(ManagerInvalidationTest, PeerInvalidateDoesNotRebroadcast) {
  ManualClock clock(0);
  RecordingBus bus;
  CacheManager manager(0, 2, open_options(), &clock, &bus);
  cache_target(manager, "/cgi-bin/z?q=1");

  EXPECT_EQ(manager.on_peer_invalidate("GET /cgi-bin/z*", /*origin=*/1,
                                       /*epoch=*/1),
            1u);
  EXPECT_EQ(bus.invalidations.size(), 0u) << "peer application must not echo";
  manager.invalidate("GET /cgi-bin/z*");
  EXPECT_EQ(bus.invalidations.size(), 1u);
}

// ---- cluster-wide over real TCP ----

TEST(ClusterInvalidationTest, InvalidateReachesPeers) {
  cluster::LocalCluster cluster(3, open_options);
  cache_target(cluster.manager(0), "/cgi-bin/shared?v=1");

  // Wait until peers learned about it.
  for (int i = 0; i < 200; ++i) {
    if (cluster.manager(1).directory().lookup("GET /cgi-bin/shared?v=1") &&
        cluster.manager(2).directory().lookup("GET /cgi-bin/shared?v=1")) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(
      cluster.manager(2).directory().lookup("GET /cgi-bin/shared?v=1"));

  // Node 1 (not the owner!) issues the invalidation.
  cluster.manager(1).invalidate("GET /cgi-bin/shared*");

  bool gone = false;
  for (int i = 0; i < 200 && !gone; ++i) {
    gone = !cluster.manager(0).store().contains("GET /cgi-bin/shared?v=1") &&
           !cluster.manager(0).directory().lookup("GET /cgi-bin/shared?v=1") &&
           !cluster.manager(2).directory().lookup("GET /cgi-bin/shared?v=1");
    if (!gone) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(gone) << "invalidation must reach every node's store+directory";
}

}  // namespace
}  // namespace swala::core
