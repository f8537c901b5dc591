// Tests for CacheManager: the Figure-2 control flow, threshold and failure
// handling, cooperation through a recording bus, false-hit fallback and
// false-miss detection, purge broadcasting.
#include <gtest/gtest.h>

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
  out.http_status = 200;
  out.body = body;
  return out;
}

ManagerOptions default_options() {
  ManagerOptions mo;
  mo.limits = {100, 0};
  RuleDecision d;
  d.cacheable = true;
  d.min_exec_seconds = 0.5;
  mo.rules.add_rule("/cgi-bin/*", d);
  return mo;
}

class ManagerTest : public ::testing::Test {
 protected:
  ManualClock clock_{from_seconds(50.0)};
};

TEST_F(ManagerTest, UncacheablePathClassified) {
  CacheManager manager(0, 1, default_options(), &clock_);
  const auto result = manager.lookup(http::Method::kGet, uri_of("/static/a"),
                                     Deadline());
  EXPECT_EQ(result.outcome, LookupOutcome::kUncacheable);
  EXPECT_EQ(manager.stats().uncacheable, 1u);
}

TEST_F(ManagerTest, MissThenInsertThenHit) {
  CacheManager manager(0, 1, default_options(), &clock_);
  const auto uri = uri_of("/cgi-bin/q?x=1");

  auto first = manager.lookup(http::Method::kGet, uri, Deadline());
  ASSERT_EQ(first.outcome, LookupOutcome::kMissMustExecute);

  manager.complete(http::Method::kGet, uri, first.rule, ok_output("RESULT"),
                   /*exec_seconds=*/1.2);
  EXPECT_EQ(manager.stats().inserts, 1u);

  auto second = manager.lookup(http::Method::kGet, uri, Deadline());
  ASSERT_EQ(second.outcome, LookupOutcome::kHit);
  EXPECT_FALSE(second.remote);
  EXPECT_EQ(second.result.data, "RESULT");
  EXPECT_EQ(manager.stats().local_hits, 1u);
}

TEST_F(ManagerTest, BelowThresholdNotCached) {
  CacheManager manager(0, 1, default_options(), &clock_);
  const auto uri = uri_of("/cgi-bin/fast");
  auto lookup = manager.lookup(http::Method::kGet, uri, Deadline());
  manager.complete(http::Method::kGet, uri, lookup.rule, ok_output("x"),
                   /*exec_seconds=*/0.1);  // < 0.5 threshold
  EXPECT_EQ(manager.stats().inserts, 0u);
  EXPECT_EQ(manager.stats().below_threshold, 1u);
  EXPECT_EQ(manager.lookup(http::Method::kGet, uri, Deadline()).outcome,
            LookupOutcome::kMissMustExecute);
}

TEST_F(ManagerTest, FailedExecutionNotCached) {
  CacheManager manager(0, 1, default_options(), &clock_);
  const auto uri = uri_of("/cgi-bin/broken");
  auto lookup = manager.lookup(http::Method::kGet, uri, Deadline());
  cgi::CgiOutput bad;
  bad.success = false;
  bad.http_status = 500;
  manager.complete(http::Method::kGet, uri, lookup.rule, bad, 2.0);
  EXPECT_EQ(manager.stats().inserts, 0u);
  EXPECT_EQ(manager.stats().failed_exec, 1u);
}

TEST_F(ManagerTest, ErrorStatusNotCached) {
  CacheManager manager(0, 1, default_options(), &clock_);
  const auto uri = uri_of("/cgi-bin/notfound");
  auto lookup = manager.lookup(http::Method::kGet, uri, Deadline());
  cgi::CgiOutput out = ok_output("nope");
  out.http_status = 404;
  manager.complete(http::Method::kGet, uri, lookup.rule, out, 2.0);
  EXPECT_EQ(manager.stats().inserts, 0u);
}

TEST_F(ManagerTest, MethodDistinguishesKeys) {
  CacheManager manager(0, 1, default_options(), &clock_);
  const auto uri = uri_of("/cgi-bin/q");
  auto lookup = manager.lookup(http::Method::kGet, uri, Deadline());
  manager.complete(http::Method::kGet, uri, lookup.rule, ok_output("g"), 1.0);
  // POST of the same target must not hit the GET entry.
  EXPECT_EQ(manager.lookup(http::Method::kPost, uri, Deadline()).outcome,
            LookupOutcome::kMissMustExecute);
}

TEST_F(ManagerTest, InsertBroadcastsToBus) {
  RecordingBus bus;
  CacheManager manager(0, 3, default_options(), &clock_, &bus);
  const auto uri = uri_of("/cgi-bin/b");
  auto lookup = manager.lookup(http::Method::kGet, uri, Deadline());
  manager.complete(http::Method::kGet, uri, lookup.rule, ok_output("data"), 1.0);
  ASSERT_EQ(bus.inserts.size(), 1u);
  EXPECT_EQ(bus.inserts[0].key, "GET /cgi-bin/b");
  EXPECT_EQ(bus.inserts[0].owner, 0u);
}

TEST_F(ManagerTest, RemoteHitThroughBus) {
  RecordingBus bus;
  CacheManager manager(0, 2, default_options(), &clock_, &bus);
  // Peer 1 announces an entry; the directory now points at node 1.
  EntryMeta peer_meta;
  peer_meta.key = "GET /cgi-bin/remote";
  peer_meta.owner = 1;
  peer_meta.version = 1;
  manager.on_peer_insert(peer_meta);
  bus.remote_data["GET /cgi-bin/remote"] = "REMOTE-BODY";

  auto result = manager.lookup(http::Method::kGet, uri_of("/cgi-bin/remote"),
                               Deadline());
  ASSERT_EQ(result.outcome, LookupOutcome::kHit);
  EXPECT_TRUE(result.remote);
  EXPECT_EQ(result.owner, 1u);
  EXPECT_EQ(result.result.data, "REMOTE-BODY");
  EXPECT_EQ(manager.stats().remote_hits, 1u);
  EXPECT_EQ(bus.fetches, 1);
}

TEST_F(ManagerTest, FalseHitFallsBackToExecution) {
  RecordingBus bus;
  CacheManager manager(0, 2, default_options(), &clock_, &bus);
  EntryMeta peer_meta;
  peer_meta.key = "GET /cgi-bin/gone";
  peer_meta.owner = 1;
  manager.on_peer_insert(peer_meta);
  // bus.remote_data intentionally empty: the owner already evicted it.

  const auto uri = uri_of("/cgi-bin/gone");
  auto result = manager.lookup(http::Method::kGet, uri, Deadline());
  EXPECT_EQ(result.outcome, LookupOutcome::kMissMustExecute);
  EXPECT_EQ(manager.stats().false_hits, 1u);
  // The stale directory entry was cleaned: once this leader releases the
  // key, the next lookup is a plain miss.
  manager.fail(http::Method::kGet, uri, result.rule, 503, "released",
               /*remember=*/false);
  auto again = manager.lookup(http::Method::kGet, uri, Deadline());
  EXPECT_EQ(again.outcome, LookupOutcome::kMissMustExecute);
  EXPECT_EQ(bus.fetches, 1) << "no second remote fetch after cleanup";
}

TEST_F(ManagerTest, FalseMissDetected) {
  RecordingBus bus;
  CacheManager manager(0, 2, default_options(), &clock_, &bus);
  const auto uri = uri_of("/cgi-bin/dup");
  auto lookup = manager.lookup(http::Method::kGet, uri, Deadline());
  manager.complete(http::Method::kGet, uri, lookup.rule, ok_output("mine"), 1.0);
  // Peer 1 executed the same request concurrently (its INSERT arrives late).
  EntryMeta peer_meta;
  peer_meta.key = "GET /cgi-bin/dup";
  peer_meta.owner = 1;
  manager.on_peer_insert(peer_meta);
  EXPECT_EQ(manager.stats().false_misses, 1u);
}

TEST_F(ManagerTest, OwnBroadcastEchoIgnored) {
  RecordingBus bus;
  CacheManager manager(0, 2, default_options(), &clock_, &bus);
  EntryMeta own;
  own.key = "GET /cgi-bin/self";
  own.owner = 0;
  manager.on_peer_insert(own);
  EXPECT_EQ(manager.stats().false_misses, 0u);
  EXPECT_EQ(manager.directory().table_size(0), 0u);
}

TEST_F(ManagerTest, EvictionBroadcastsErase) {
  RecordingBus bus;
  ManagerOptions mo = default_options();
  mo.limits = {2, 0};
  CacheManager manager(0, 2, std::move(mo), &clock_, &bus);
  for (int i = 0; i < 3; ++i) {
    const auto uri = uri_of("/cgi-bin/e" + std::to_string(i));
    auto lookup = manager.lookup(http::Method::kGet, uri, Deadline());
    manager.complete(http::Method::kGet, uri, lookup.rule, ok_output("d"), 1.0);
  }
  ASSERT_EQ(bus.erases.size(), 1u);
  EXPECT_EQ(bus.erases[0].key, "GET /cgi-bin/e0");
  EXPECT_EQ(manager.stats().evictions_broadcast, 1u);
  // The evicted key is gone from the directory too.
  EXPECT_FALSE(manager.directory().lookup("GET /cgi-bin/e0").has_value());
}

TEST_F(ManagerTest, PurgeBroadcastsExpiry) {
  RecordingBus bus;
  ManagerOptions mo = default_options();
  RuleDecision d;
  d.cacheable = true;
  d.ttl_seconds = 5.0;
  mo.rules = CacheabilityRules();
  mo.rules.add_rule("/cgi-bin/*", d);
  CacheManager manager(0, 2, std::move(mo), &clock_, &bus);

  const auto uri = uri_of("/cgi-bin/ttl");
  auto lookup = manager.lookup(http::Method::kGet, uri, Deadline());
  manager.complete(http::Method::kGet, uri, lookup.rule, ok_output("d"), 1.0);
  EXPECT_EQ(manager.purge_expired(), 0u);
  clock_.advance(from_seconds(10.0));
  EXPECT_EQ(manager.purge_expired(), 1u);
  ASSERT_EQ(bus.erases.size(), 1u);
  EXPECT_EQ(bus.erases[0].key, "GET /cgi-bin/ttl");
}

TEST_F(ManagerTest, ServePeerFetch) {
  CacheManager manager(0, 1, default_options(), &clock_);
  const auto uri = uri_of("/cgi-bin/served");
  auto lookup = manager.lookup(http::Method::kGet, uri, Deadline());
  manager.complete(http::Method::kGet, uri, lookup.rule, ok_output("body"), 1.0);

  auto served = manager.serve_peer_fetch("GET /cgi-bin/served");
  ASSERT_TRUE(served.is_ok());
  EXPECT_EQ(served.value().data, "body");

  auto missing = manager.serve_peer_fetch("GET /cgi-bin/never");
  ASSERT_FALSE(missing.is_ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(ManagerTest, PeerEraseUpdatesDirectory) {
  RecordingBus bus;
  CacheManager manager(0, 2, default_options(), &clock_, &bus);
  EntryMeta peer_meta;
  peer_meta.key = "GET /cgi-bin/p";
  peer_meta.owner = 1;
  peer_meta.version = 1;
  manager.on_peer_insert(peer_meta);
  EXPECT_TRUE(manager.directory().lookup("GET /cgi-bin/p").has_value());
  manager.on_peer_erase(1, "GET /cgi-bin/p", 1);
  EXPECT_FALSE(manager.directory().lookup("GET /cgi-bin/p").has_value());
}

TEST_F(ManagerTest, KeyForCanonicalizes) {
  const auto key = CacheManager::key_for(http::Method::kGet,
                                         uri_of("/cgi-bin/a%20b?x=%201"));
  EXPECT_EQ(key.text, "GET /cgi-bin/a b?x=%201");
}

}  // namespace
}  // namespace swala::core
