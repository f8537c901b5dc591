// Failure-injection tests for the cluster layer, driven by the deterministic
// FaultInjector (cluster/transport.h): black-holed fetches, lost broadcasts,
// slow peers, partitions with quarantine + rejoin resync — plus raw wire
// abuse (garbage, truncated and oversized frames). Weak consistency means a
// Swala group must degrade to local execution, never crash or deadlock.
//
// Synchronization discipline: no blind sleeps. Every wait is either
// LocalCluster::quiesce() (backlog drain) or eventually() (condition
// polling with a deadline), so the tests pass at the same rate under TSan.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>

#include "cluster/framing.h"
#include "cluster/local_cluster.h"
#include "cluster/transport.h"
#include "common/hash.h"
#include "core/locator.h"

namespace swala::cluster {
namespace {

core::ManagerOptions open_options(core::NodeId) {
  core::ManagerOptions mo;
  mo.limits = {100, 0};
  core::RuleDecision d;
  d.cacheable = true;
  mo.rules.add_rule("/cgi-bin/*", d);
  return mo;
}

/// Group options with short deadlines so failure paths resolve quickly.
/// Batching and anti-entropy stay off: the fault rules here target single
/// update types, and a repair round would mask the loss a test observes.
GroupOptions fast_options() {
  GroupOptions go;
  go.batch_max_messages = 1;
  go.anti_entropy_interval_ms = 0;
  go.fetch_timeout_ms = 400;
  go.connect_timeout_ms = 400;
  go.broadcast_retry_limit = 2;
  go.backoff_base_ms = 5;
  go.backoff_max_ms = 20;
  go.failure_threshold = 2;
  go.probe_interval_ms = 100;
  return go;
}

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

void cache_on(core::CacheManager& manager, const std::string& target) {
  const auto uri = uri_of(target);
  auto lookup = manager.lookup(http::Method::kGet, uri, Deadline());
  manager.complete(http::Method::kGet, uri, lookup.rule, ok_output("x"), 1.0);
}

/// One lookup that only drives the cluster (probes, fetches, breaker
/// counts): a miss releases its single-flight claim at once, so the next
/// lookup of the key classifies afresh instead of coalescing.
void probe_lookup(core::CacheManager& manager, const std::string& target) {
  const auto uri = uri_of(target);
  const auto lookup = manager.lookup(http::Method::kGet, uri, Deadline());
  if (lookup.outcome == core::LookupOutcome::kMissMustExecute) {
    manager.fail(http::Method::kGet, uri, lookup.rule, 503, "probe only",
                 /*remember=*/false);
  }
}

bool eventually(const std::function<bool()>& pred, int max_ms = 5000) {
  for (int waited = 0; waited < max_ms; waited += 10) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

double elapsed_ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// ---- fault-injector scenarios ----

// A black-holed FETCH_REQ must surface as a read timeout at the requester,
// which falls back to local execution within < 2x the fetch deadline and
// counts the fallback.
TEST(ClusterFailureTest, BlackholedFetchFallsBackWithinDeadline) {
  FaultInjector faults(/*seed=*/42);
  FaultRule rule;
  rule.peer = 0;
  rule.type = MsgType::kFetchReq;
  rule.kind = FaultKind::kBlackhole;
  faults.add_rule(rule);

  LocalCluster cluster(2, open_options, RealClock::instance(),
                       [&faults](core::NodeId id) {
                         GroupOptions go = fast_options();
                         if (id == 1) go.fault_injector = &faults;
                         return go;
                       });

  cache_on(cluster.manager(0), "/cgi-bin/blackholed");
  ASSERT_TRUE(eventually([&] {
    return cluster.manager(1)
        .directory()
        .lookup("GET /cgi-bin/blackholed")
        .has_value();
  }));

  const auto start = std::chrono::steady_clock::now();
  auto result = cluster.manager(1).lookup(http::Method::kGet,
                                          uri_of("/cgi-bin/blackholed"),
                                          Deadline());
  const double elapsed = elapsed_ms_since(start);

  EXPECT_EQ(result.outcome, core::LookupOutcome::kMissMustExecute);
  EXPECT_LT(elapsed, 2 * 400.0) << "fallback took " << elapsed << "ms";
  EXPECT_EQ(cluster.manager(1).stats().fallback_executions, 1u);
  EXPECT_GE(faults.faults_injected(), 1u);
}

// A dropped INSERT broadcast loses the directory update: the peer executes
// the same request again (a false miss) and the original caching node
// detects the duplicate when the peer's own INSERT arrives.
TEST(ClusterFailureTest, DroppedInsertBroadcastCausesFalseMiss) {
  FaultInjector faults(/*seed=*/7);
  FaultRule rule;
  rule.peer = 1;
  rule.type = MsgType::kInsert;
  rule.kind = FaultKind::kDrop;
  rule.count = 1;  // only the first INSERT to node 1 is lost
  faults.add_rule(rule);

  LocalCluster cluster(2, open_options, RealClock::instance(),
                       [&faults](core::NodeId id) {
                         GroupOptions go = fast_options();
                         if (id == 0) go.fault_injector = &faults;
                         return go;
                       });

  cache_on(cluster.manager(0), "/cgi-bin/dup");
  ASSERT_TRUE(cluster.quiesce());
  ASSERT_EQ(faults.faults_injected(), 1u);

  // Node 1 never heard about the entry: its directory shows a miss.
  EXPECT_FALSE(
      cluster.manager(1).directory().lookup("GET /cgi-bin/dup").has_value());
  auto result =
      cluster.manager(1).lookup(http::Method::kGet, uri_of("/cgi-bin/dup"),
                                Deadline());
  EXPECT_EQ(result.outcome, core::LookupOutcome::kMissMustExecute);

  // It executes and caches its own copy; node 0 sees the duplicate insert
  // for a key it also holds — the false-miss evidence of §4.2.
  cluster.manager(1).complete(http::Method::kGet, uri_of("/cgi-bin/dup"),
                              result.rule, ok_output("x"), 1.0);
  EXPECT_TRUE(eventually(
      [&] { return cluster.manager(0).stats().false_misses == 1u; }));
}

// A peer that answers fetches slower than the requester's deadline causes a
// timeout fallback, not an indefinite hang.
TEST(ClusterFailureTest, SlowPeerFetchTimesOutAndFallsBack) {
  FaultInjector faults(/*seed=*/99);
  FaultRule rule;
  rule.peer = 1;  // responses addressed to node 1
  rule.type = MsgType::kFetchResp;
  rule.kind = FaultKind::kDelay;
  rule.delay_ms = 1500;  // well past the 400ms fetch deadline
  faults.add_rule(rule);

  LocalCluster cluster(2, open_options, RealClock::instance(),
                       [&faults](core::NodeId id) {
                         GroupOptions go = fast_options();
                         if (id == 0) go.fault_injector = &faults;  // owner side
                         return go;
                       });

  cache_on(cluster.manager(0), "/cgi-bin/slow");
  ASSERT_TRUE(eventually([&] {
    return cluster.manager(1).directory().lookup("GET /cgi-bin/slow").has_value();
  }));

  const auto start = std::chrono::steady_clock::now();
  auto result =
      cluster.manager(1).lookup(http::Method::kGet, uri_of("/cgi-bin/slow"),
                                Deadline());
  const double elapsed = elapsed_ms_since(start);

  EXPECT_EQ(result.outcome, core::LookupOutcome::kMissMustExecute);
  EXPECT_LT(elapsed, 2 * 400.0) << "fallback took " << elapsed << "ms";
  EXPECT_EQ(cluster.manager(1).stats().fallback_executions, 1u);
}

// Partition: after `failure_threshold` consecutive failures the survivor
// marks the peer dead, quarantines its directory table (lookups go straight
// to local execution, fast), and probes until the peer rejoins — at which
// point the stale table is cleared, a resync re-announces the peer's
// entries, and remote fetches work again.
TEST(ClusterFailureTest, PartitionQuarantineRejoinResync) {
  LocalCluster cluster(2, open_options, RealClock::instance(),
                       [](core::NodeId) { return fast_options(); });

  cache_on(cluster.manager(0), "/cgi-bin/stable");
  ASSERT_TRUE(eventually([&] {
    return cluster.manager(1).directory().lookup("GET /cgi-bin/stable").has_value();
  }));

  // --- partition: node 0 goes down ---
  cluster.group(0).stop();

  // Drive lookups until the circuit opens (each failed fetch records one
  // failure; threshold is 2).
  ASSERT_TRUE(eventually([&] {
    probe_lookup(cluster.manager(1), "/cgi-bin/stable");
    return cluster.group(1).peer_state(0) == PeerState::kDead;
  }));

  // Dead peer's table is quarantined: the entry is invisible, so the lookup
  // is a plain (fast) miss with no remote fetch attempt.
  EXPECT_TRUE(cluster.manager(1).directory().quarantined(0));
  EXPECT_FALSE(
      cluster.manager(1).directory().lookup("GET /cgi-bin/stable").has_value());
  const auto start = std::chrono::steady_clock::now();
  auto during = cluster.manager(1).lookup(http::Method::kGet,
                                          uri_of("/cgi-bin/stable"),
                                          Deadline());
  EXPECT_EQ(during.outcome, core::LookupOutcome::kMissMustExecute);
  EXPECT_LT(elapsed_ms_since(start), 200.0) << "quarantined lookup not fast";

  const auto health = cluster.group(1).peer_health();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0].id, 0u);
  EXPECT_EQ(health[0].state, PeerState::kDead);
  EXPECT_GE(health[0].total_failures, 2u);

  // --- rejoin: node 0 comes back on the same ports ---
  ASSERT_TRUE(cluster.group(0).start().is_ok());

  // The survivor's probe finds it, closes the breaker, lifts the
  // quarantine, and the SYNC_REQ resync restores the directory entry.
  EXPECT_TRUE(eventually(
      [&] { return cluster.group(1).peer_state(0) == PeerState::kHealthy; }));
  EXPECT_TRUE(eventually([&] {
    return !cluster.manager(1).directory().quarantined(0) &&
           cluster.manager(1).directory().lookup("GET /cgi-bin/stable").has_value();
  }));
  EXPECT_GE(cluster.group(1).stats().probes_sent, 1u);
  EXPECT_GE(cluster.group(1).stats().resyncs_requested, 1u);
  EXPECT_TRUE(eventually(
      [&] { return cluster.group(0).stats().resyncs_served >= 1u; }));

  // End-to-end: the remote fetch works again.
  auto after = cluster.manager(1).lookup(http::Method::kGet,
                                         uri_of("/cgi-bin/stable"), Deadline());
  EXPECT_EQ(after.outcome, core::LookupOutcome::kHit);
  EXPECT_TRUE(after.remote);
}

// A truncated-frame fault tears the connection mid-frame; the receiver
// drops the connection, the sender retries, and the breaker counts the
// failures without wedging the group.
TEST(ClusterFailureTest, TruncatedBroadcastIsRetriedAndCounted) {
  FaultInjector faults(/*seed=*/5);
  FaultRule rule;
  rule.peer = 1;
  rule.type = MsgType::kInsert;
  rule.kind = FaultKind::kTruncate;
  rule.count = 2;  // both attempts of the first INSERT are torn
  faults.add_rule(rule);

  LocalCluster cluster(2, open_options, RealClock::instance(),
                       [&faults](core::NodeId id) {
                         GroupOptions go = fast_options();
                         if (id == 0) go.fault_injector = &faults;
                         return go;
                       });

  cache_on(cluster.manager(0), "/cgi-bin/torn");
  EXPECT_TRUE(eventually([&] {
    const auto stats = cluster.group(0).stats();
    return stats.send_failures >= 1u && stats.send_retries >= 1u;
  }));

  // A later broadcast (fault rule exhausted) still goes through.
  cache_on(cluster.manager(0), "/cgi-bin/after-torn");
  EXPECT_TRUE(eventually([&] {
    return cluster.manager(1)
        .directory()
        .lookup("GET /cgi-bin/after-torn")
        .has_value();
  }));
}

// ---- raw wire abuse (no injector: hostile bytes from outside the group) ----

TEST(ClusterFailureTest, GarbageOnInfoPortIsDropped) {
  LocalCluster cluster(2, open_options);
  // Open a raw connection to node 0's info port and write junk.
  auto conn = net::TcpStream::connect(
      {"127.0.0.1", cluster.group(0).info_port()}, 1000);
  ASSERT_TRUE(conn.is_ok());
  ASSERT_TRUE(conn.value().write_all("this is not a framed message").is_ok());
  conn.value().close();

  // The group keeps working: a real broadcast still goes through.
  cache_on(cluster.manager(1), "/cgi-bin/after-garbage");
  EXPECT_TRUE(eventually([&] {
    return cluster.manager(0)
        .directory()
        .lookup("GET /cgi-bin/after-garbage")
        .has_value();
  }));
}

TEST(ClusterFailureTest, OversizedFrameRejected) {
  LocalCluster cluster(2, open_options);
  auto conn = net::TcpStream::connect(
      {"127.0.0.1", cluster.group(0).info_port()}, 1000);
  ASSERT_TRUE(conn.is_ok());
  // Length prefix claiming 1 GiB.
  const char huge[4] = {0, 0, 0, 0x40};
  ASSERT_TRUE(conn.value().write_all({huge, 4}).is_ok());
  conn.value().close();

  cache_on(cluster.manager(1), "/cgi-bin/after-oversize");
  EXPECT_TRUE(eventually([&] {
    return cluster.manager(0)
        .directory()
        .lookup("GET /cgi-bin/after-oversize")
        .has_value();
  }));
}

TEST(ClusterFailureTest, TruncatedFrameThenDisconnect) {
  LocalCluster cluster(2, open_options);
  auto conn = net::TcpStream::connect(
      {"127.0.0.1", cluster.group(0).info_port()}, 1000);
  ASSERT_TRUE(conn.is_ok());
  const std::string frame =
      encode_message(Message::erase(1, "GET /cgi-bin/x", 1));
  ASSERT_TRUE(conn.value().write_all(frame.substr(0, frame.size() / 2)).is_ok());
  conn.value().close();  // mid-frame EOF

  cache_on(cluster.manager(1), "/cgi-bin/after-truncation");
  EXPECT_TRUE(eventually([&] {
    return cluster.manager(0)
        .directory()
        .lookup("GET /cgi-bin/after-truncation")
        .has_value();
  }));
}

TEST(ClusterFailureTest, WrongVersionHelloDropsTheConnection) {
  LocalCluster cluster(2, open_options);
  // Writes `hello` then an INSERT from node 1 on a fresh info connection,
  // half-closes it, and returns once node 0 has closed its end. The info
  // channel carries nothing back, so that close means the reader is done:
  // it either rejected the stream or applied every frame up to our EOF.
  // A rejecting node 0 may reset the connection before our own write or
  // half-close lands; only when `rejected` is that write-side error the
  // expected outcome.
  const auto greet_then_insert = [&](const std::string& hello,
                                     const std::string& key, bool rejected) {
    core::EntryMeta meta;
    meta.key = key;
    meta.owner = 1;
    meta.size_bytes = 1;
    meta.version = 1;
    auto conn = net::TcpStream::connect(
        {"127.0.0.1", cluster.group(0).info_port()}, 1000);
    ASSERT_TRUE(conn.is_ok());
    net::TcpStream& stream = conn.value();
    Status sent =
        stream.write_all(hello + encode_message(Message::insert(1, meta)));
    if (sent.is_ok()) sent = stream.shutdown_write();
    if (!sent.is_ok()) {
      EXPECT_TRUE(rejected) << sent.to_string();
      return;
    }
    ASSERT_TRUE(stream.set_recv_timeout(5000).is_ok());
    char byte = 0;
    const auto got = stream.read_some(&byte, 1);
    // EOF, or a reset when node 0 closed with our INSERT still unread.
    EXPECT_TRUE(got.is_ok() ? got.value() == 0
                            : got.status().code() != StatusCode::kTimeout);
  };
  const auto& directory = cluster.manager(0).directory();

  std::string wrong = encode_message(Message::hello(1, {}, 0));
  wrong[4 + 5] = static_cast<char>(kProtocolVersion + 1);  // the version byte
  greet_then_insert(wrong, "GET /cgi-bin/after-wrong-version",
                    /*rejected=*/true);
  EXPECT_FALSE(directory.lookup("GET /cgi-bin/after-wrong-version"));

  // Control: the same INSERT behind a current HELLO is applied.
  greet_then_insert(encode_message(Message::hello(1, {}, 0)),
                    "GET /cgi-bin/after-good-hello", /*rejected=*/false);
  EXPECT_TRUE(directory.lookup("GET /cgi-bin/after-good-hello"));

  // The real peer link is untouched: later updates still arrive.
  cache_on(cluster.manager(1), "/cgi-bin/after-version-reject");
  EXPECT_TRUE(eventually([&] {
    return directory.lookup("GET /cgi-bin/after-version-reject").has_value();
  }));
}

TEST(ClusterFailureTest, GarbageOnDataPortGetsNoCrash) {
  LocalCluster cluster(2, open_options);
  auto conn = net::TcpStream::connect(
      {"127.0.0.1", cluster.group(0).data_port()}, 1000);
  ASSERT_TRUE(conn.is_ok());
  ASSERT_TRUE(conn.value().write_all("junk").is_ok());
  conn.value().shutdown_write();
  char buf[64];
  // The server just drops the connection; either EOF or nothing arrives.
  (void)conn.value().set_recv_timeout(300);
  (void)conn.value().read_some(buf, sizeof(buf));

  // Real fetch still works afterwards.
  cache_on(cluster.manager(0), "/cgi-bin/fetchable");
  auto fetched =
      cluster.group(1).fetch_remote(0, "GET /cgi-bin/fetchable");
  ASSERT_TRUE(fetched.is_ok()) << fetched.status().to_string();
  EXPECT_EQ(fetched.value().data, "x");
}

// ---- crash / shutdown behaviour ----

TEST(ClusterFailureTest, DeadOwnerFallsBackToExecution) {
  LocalCluster cluster(3, open_options, RealClock::instance(),
                       [](core::NodeId) { return fast_options(); });
  cache_on(cluster.manager(0), "/cgi-bin/doomed");
  ASSERT_TRUE(eventually([&] {
    return cluster.manager(1).directory().lookup("GET /cgi-bin/doomed").has_value();
  }));

  // Node 0 dies (stops listening entirely).
  cluster.group(0).stop();

  // Node 1's lookup sees the directory entry, fails the remote fetch, and
  // reports a miss so the request thread executes locally — counted as a
  // fallback, not a false hit.
  auto result = cluster.manager(1).lookup(http::Method::kGet,
                                          uri_of("/cgi-bin/doomed"),
                                          Deadline());
  EXPECT_EQ(result.outcome, core::LookupOutcome::kMissMustExecute);
  EXPECT_EQ(cluster.manager(1).stats().fallback_executions, 1u);
  EXPECT_EQ(cluster.manager(1).stats().false_hits, 0u);
}

// ---- partitioned directory-mode failures ----

core::ManagerOptions partitioned_options(core::NodeId id) {
  auto mo = open_options(id);
  mo.directory_mode = core::DirectoryMode::kPartitioned;
  return mo;
}

/// First /cgi-bin/ target whose cache key the default ring assigns to
/// `owner` (ring placement is seed-deterministic, so this search is too).
std::string target_owned_by(std::size_t nodes, core::NodeId owner) {
  HashRing ring;
  for (std::size_t i = 0; i < nodes; ++i) {
    ring.add_node(static_cast<std::uint32_t>(i));
  }
  for (int i = 0;; ++i) {
    const std::string target = "/cgi-bin/part" + std::to_string(i);
    if (ring.owner_of("GET " + target) == owner) return target;
  }
}

// Partitioned mode, black-holed owner probe: the requester's kQuery times
// out at query_timeout_ms and the lookup degrades to local execution well
// within the request deadline — an unreachable owner costs one short probe,
// never a hang.
TEST(ClusterFailureTest, PartitionedOwnerBlackholeFallsBackWithinDeadline) {
  FaultInjector faults(/*seed=*/21);
  FaultRule rule;
  rule.peer = 2;  // probes addressed to the ring owner
  rule.type = MsgType::kQuery;
  rule.kind = FaultKind::kBlackhole;
  faults.add_rule(rule);

  LocalCluster cluster(3, partitioned_options, RealClock::instance(),
                       [&faults](core::NodeId id) {
                         GroupOptions go = fast_options();
                         go.query_timeout_ms = 200;
                         if (id == 1) go.fault_injector = &faults;
                         return go;
                       });

  const std::string target = target_owned_by(3, 2);
  ASSERT_EQ(cluster.manager(1)
                .locator()
                .record_holder("GET " + target)
                .value_or(core::kInvalidNode),
            2u);
  cache_on(cluster.manager(0), target);

  // Node 1 holds no directory state for the key (only the owner does), so
  // its lookup must probe node 2 — and the probe is black-holed.
  const auto start = std::chrono::steady_clock::now();
  auto result = cluster.manager(1).lookup(http::Method::kGet, uri_of(target),
                                          Deadline());
  const double elapsed = elapsed_ms_since(start);

  EXPECT_EQ(result.outcome, core::LookupOutcome::kMissMustExecute);
  EXPECT_LT(elapsed, 2 * 200.0 + 200.0) << "fallback took " << elapsed << "ms";
  EXPECT_EQ(cluster.manager(1).stats().remote_dir_lookups, 1u);
  EXPECT_EQ(cluster.manager(1).stats().fallback_executions, 1u);
  EXPECT_GE(cluster.group(1).stats().queries_sent, 1u);
  EXPECT_GE(faults.faults_injected(), 1u);
}

// Partitioned mode, owner death and rejoin: while the owner is dead its key
// range degrades to fast local execution (quarantine, no probe), and on
// rejoin the survivor's push-state resync repopulates the owner's directory
// partition with unicast kOwnerUpdate frames.
TEST(ClusterFailureTest, PartitionedOwnerRejoinRepopulatesPartition) {
  LocalCluster cluster(2, partitioned_options, RealClock::instance(),
                       [](core::NodeId) {
                         GroupOptions go = fast_options();
                         go.query_timeout_ms = 200;
                         return go;
                       });

  // `cached` executes on node 0; its directory entry lives only on node 1,
  // the ring owner.
  const std::string cached = target_owned_by(2, 1);
  cache_on(cluster.manager(0), cached);
  ASSERT_TRUE(eventually([&] {
    return cluster.manager(1).directory().lookup("GET " + cached).has_value();
  }));

  // --- owner dies ---
  cluster.group(1).stop();
  const std::string probed = target_owned_by(2, 1) + "-cold";
  ASSERT_TRUE(eventually([&] {
    probe_lookup(cluster.manager(0), probed);
    return cluster.group(0).peer_state(1) == PeerState::kDead;
  }));

  // Quarantined range: lookups in it skip the probe and execute locally,
  // fast — the survivor pays nothing for the dead owner.
  const auto start = std::chrono::steady_clock::now();
  auto during = cluster.manager(0).lookup(http::Method::kGet, uri_of(probed),
                                          Deadline());
  EXPECT_EQ(during.outcome, core::LookupOutcome::kMissMustExecute);
  EXPECT_LT(elapsed_ms_since(start), 200.0) << "quarantined lookup not fast";

  // Simulate the owner's restart wiping its in-memory partition (a real
  // process restart comes back with an empty directory).
  cluster.manager(1).on_peer_erase(0, "GET " + cached, 0);
  ASSERT_FALSE(
      cluster.manager(1).directory().lookup("GET " + cached).has_value());

  // --- owner rejoins ---
  ASSERT_TRUE(cluster.group(1).start().is_ok());
  EXPECT_TRUE(eventually(
      [&] { return cluster.group(0).peer_state(1) == PeerState::kHealthy; }));

  // The survivor's recovery resync pushes every meta the rejoined node owns
  // back to it; the owner's partition knows about node 0's copy again.
  EXPECT_TRUE(eventually([&] {
    return cluster.manager(1).directory().lookup("GET " + cached).has_value();
  }));
  EXPECT_GE(cluster.group(0).stats().resyncs_requested, 1u);
  EXPECT_GE(cluster.group(0).stats().owner_updates_sent, 1u);

  // End-to-end: a lookup at the owner finds node 0's copy via its own
  // repopulated partition and serves it remotely.
  auto after = cluster.manager(1).lookup(http::Method::kGet, uri_of(cached),
                                         Deadline());
  EXPECT_EQ(after.outcome, core::LookupOutcome::kHit);
  EXPECT_TRUE(after.remote);
}

TEST(ClusterFailureTest, FetchOfUnknownNodeFails) {
  LocalCluster cluster(2, open_options);
  auto result = cluster.group(0).fetch_remote(77, "GET /cgi-bin/x");
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ClusterFailureTest, StopIsIdempotentAndSafeConcurrently) {
  LocalCluster cluster(2, open_options);
  cache_on(cluster.manager(0), "/cgi-bin/x");
  std::thread t1([&] { cluster.group(0).stop(); });
  std::thread t2([&] { cluster.group(0).stop(); });
  t1.join();
  t2.join();
  cluster.group(0).stop();
}

TEST(ClusterFailureTest, BroadcastWhilePeerDownIsLossyNotFatal) {
  LocalCluster cluster(2, open_options, RealClock::instance(),
                       [](core::NodeId) { return fast_options(); });
  cluster.group(1).stop();  // peer down before the broadcast

  cache_on(cluster.manager(0), "/cgi-bin/lost");
  // The bounded retry exhausts and records the failure — no unbounded
  // reconnect loop, no blocked request thread.
  EXPECT_TRUE(eventually(
      [&] { return cluster.group(0).stats().send_failures >= 1u; }));

  // Local node is fully functional.
  auto result =
      cluster.manager(0).lookup(http::Method::kGet, uri_of("/cgi-bin/lost"),
                                Deadline());
  EXPECT_EQ(result.outcome, core::LookupOutcome::kHit);
}

// ---- anti-entropy consistency repair ----

// A state push that finds the peer's outbound queue full loses frames; each
// one must show up in send_failures. Node 1 never starts, and node 0's
// sender sits in backoff retrying it, so the one-slot queue stays full
// while a kSyncReq forces node 0 to push its eight entries.
TEST(ClusterFailureTest, StatePushIntoAFullQueueCountsEveryDroppedFrame) {
  GroupOptions go = fast_options();
  go.outbound_queue_capacity = 1;
  go.backoff_base_ms = 300;
  go.backoff_max_ms = 300;
  go.failure_threshold = 1000;  // keep the breaker closed: frames queue
  NodeGroup group(0, loopback_members(2), go);
  ASSERT_TRUE(group.start().is_ok());
  core::CacheManager manager(0, 2, open_options(0), RealClock::instance(),
                             &group);
  group.attach(&manager);
  for (int i = 0; i < 8; ++i) {
    cache_on(manager, "/cgi-bin/push/k" + std::to_string(i));
  }
  const std::uint64_t before = group.stats().send_failures;

  auto conn = net::TcpStream::connect({"127.0.0.1", group.info_port()}, 1000);
  ASSERT_TRUE(conn.is_ok()) << conn.status().to_string();
  ASSERT_TRUE(write_message(conn.value(), Message::sync_req(1)).is_ok());
  EXPECT_TRUE(eventually([&] { return group.stats().resyncs_served >= 1; }));
  EXPECT_TRUE(eventually(
      [&] { return group.stats().send_failures >= before + 7; }, 2000))
      << "send_failures " << group.stats().send_failures << " (was "
      << before << ")";
  group.stop();
}

// Regression for the rejoin-staleness bug: the resync push is additions-
// only, so before the epoch exchange a node that was partitioned across an
// invalidation kept serving its pre-invalidation copy until TTL — and the
// rejoin push re-polluted the survivors' tables with the dead record. The
// HELLO-piggybacked epoch vector (no periodic digest needed: anti-entropy
// interval stays at its disabled default here) must expose the gap and the
// kInvSync pull must remove the entry on both sides.
TEST(ClusterFailureTest, RejoinPullsInvalidationMissedWhilePartitioned) {
  LocalCluster cluster(2, open_options, RealClock::instance(),
                       [](core::NodeId) { return fast_options(); });

  cache_on(cluster.manager(1), "/cgi-bin/doomed");
  ASSERT_TRUE(eventually([&] {
    return cluster.manager(0)
        .directory()
        .lookup("GET /cgi-bin/doomed")
        .has_value();
  }));

  // Partition: node 1 off the network, store intact.
  cluster.group(1).stop();
  ASSERT_TRUE(eventually([&] {
    cache_on(cluster.manager(0), "/cgi-bin/churn");  // drive the breaker
    cluster.manager(0).invalidate("GET /cgi-bin/churn*");
    return cluster.group(0).peer_state(1) == PeerState::kDead;
  }));

  // The invalidation node 1 will never hear.
  cluster.manager(0).invalidate("GET /cgi-bin/doomed*");
  EXPECT_TRUE(cluster.manager(1).store().contains("GET /cgi-bin/doomed"))
      << "node 1 is partitioned: it must still hold the stale entry";

  // Rejoin: the probe HELLO carries node 0's epoch vector; node 1 detects
  // the gap, pulls the missed invalidation and drops the stale entry.
  ASSERT_TRUE(cluster.group(1).start().is_ok());
  EXPECT_TRUE(eventually([&] {
    return !cluster.manager(1).store().contains("GET /cgi-bin/doomed");
  })) << "rejoiner kept serving an entry invalidated while it was away";

  // The resync push must not leave the dead record in node 0's table.
  EXPECT_TRUE(eventually([&] {
    return !cluster.manager(0)
                .directory()
                .lookup("GET /cgi-bin/doomed")
                .has_value();
  })) << "survivor's table re-polluted by the additions-only resync";

  const auto stats = cluster.manager(1).stats();
  EXPECT_GE(stats.inv_epoch_gaps_repaired, 1u);
  EXPECT_GE(stats.stale_serves_prevented, 1u);
  EXPECT_GE(cluster.group(1).stats().inv_syncs_pulled, 1u);
  EXPECT_TRUE(eventually(
      [&] { return cluster.group(0).stats().inv_syncs_served >= 1u; }));

  ASSERT_TRUE(cluster.quiesce());
  const auto report = cluster.check_cluster_consistency();
  EXPECT_TRUE(report.consistent()) << report.to_string();
}

// Satellite: a kDuplicate fault replays every one-way frame; version and
// epoch guards must make the second copy a no-op end to end.
TEST(ClusterFailureTest, DuplicatedFramesAreIdempotent) {
  FaultInjector faults(/*seed=*/9);
  FaultRule rule;
  rule.kind = FaultKind::kDuplicate;
  rule.probability = 1.0;
  faults.add_rule(rule);

  LocalCluster cluster(2, open_options, RealClock::instance(),
                       [&](core::NodeId id) {
                         GroupOptions go = fast_options();
                         if (id == 0) go.fault_injector = &faults;
                         return go;
                       });

  cache_on(cluster.manager(0), "/cgi-bin/dup?x=1");
  cache_on(cluster.manager(0), "/cgi-bin/dup?x=2");
  ASSERT_TRUE(eventually([&] {
    return cluster.manager(1).directory().lookup("GET /cgi-bin/dup?x=2").has_value();
  }));
  cluster.manager(0).invalidate("GET /cgi-bin/dup?x=1*");
  ASSERT_TRUE(eventually([&] {
    return !cluster.manager(1).directory().lookup("GET /cgi-bin/dup?x=1").has_value();
  }));
  EXPECT_GE(faults.faults_injected(), 1u) << "scenario never fired";

  // The replayed kInvalidate was filtered as an exact duplicate, and the
  // replayed kInserts bumped nothing: the cluster state is exactly what a
  // fault-free run produces.
  ASSERT_TRUE(cluster.quiesce());
  const auto report = cluster.check_cluster_consistency();
  EXPECT_TRUE(report.consistent()) << report.to_string();
  EXPECT_TRUE(
      cluster.manager(1).directory().lookup("GET /cgi-bin/dup?x=2").has_value());
  auto hit =
      cluster.manager(1).lookup(http::Method::kGet, uri_of("/cgi-bin/dup?x=2"),
                                Deadline());
  EXPECT_EQ(hit.outcome, core::LookupOutcome::kHit);
}

// Tentpole over the real transport: 100% of kInvalidate frames to node 2
// are dropped; the periodic kDigest round exposes the epoch gap and node 2
// pulls the invalidation within one anti-entropy interval.
TEST(ClusterFailureTest, AntiEntropyRepairsDroppedInvalidate) {
  FaultInjector faults(/*seed=*/13);
  FaultRule rule;
  rule.peer = 2;
  rule.type = MsgType::kInvalidate;
  rule.kind = FaultKind::kDrop;
  rule.probability = 1.0;
  faults.add_rule(rule);

  LocalCluster cluster(3, open_options, RealClock::instance(),
                       [&](core::NodeId id) {
                         GroupOptions go = fast_options();
                         go.anti_entropy_interval_ms = 300;
                         if (id == 0) go.fault_injector = &faults;
                         return go;
                       });

  // Warm every info connection first: the greeting HELLO (which would
  // piggyback the epoch vector) must predate the invalidation, so only the
  // periodic kDigest round can expose the gap.
  cache_on(cluster.manager(0), "/cgi-bin/warm");
  cache_on(cluster.manager(2), "/cgi-bin/storm");  // node 2's own stale copy
  ASSERT_TRUE(eventually([&] {
    return cluster.manager(0).directory().lookup("GET /cgi-bin/storm").has_value() &&
           cluster.manager(1).directory().lookup("GET /cgi-bin/storm").has_value() &&
           cluster.manager(2).directory().lookup("GET /cgi-bin/warm").has_value();
  }));

  cluster.manager(0).invalidate("GET /cgi-bin/storm*");
  EXPECT_TRUE(eventually([&] { return faults.faults_injected() >= 1u; }))
      << "the drop rule never fired";

  // Node 1 heard the broadcast; node 2 must recover via the digest round.
  ASSERT_TRUE(eventually([&] {
    return !cluster.manager(2).store().contains("GET /cgi-bin/storm");
  })) << "anti-entropy never repaired the dropped invalidation";

  EXPECT_GE(cluster.manager(2).stats().inv_epoch_gaps_repaired, 1u);
  EXPECT_GE(cluster.manager(2).stats().stale_serves_prevented, 1u);
  EXPECT_GE(cluster.group(2).stats().inv_syncs_pulled, 1u);
  EXPECT_TRUE(eventually([&] {
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      if (cluster.group(i).stats().anti_entropy_rounds > 0) return true;
    }
    return false;
  }));

  ASSERT_TRUE(cluster.quiesce());
  const auto report = cluster.check_cluster_consistency();
  EXPECT_TRUE(report.consistent()) << report.to_string();
}

}  // namespace
}  // namespace swala::cluster
