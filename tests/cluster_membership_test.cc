// Dynamic-membership tests over a real loopback LocalCluster: the staged
// two-phase join (a node outside the active set runs kJoin against every
// member and adopts the acked view), graceful decommission (drain + handoff
// to ring successors, peers deactivate without quarantine), query-sweep
// probe rotation, and rolling-restart parity across all three directory
// modes.
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/local_cluster.h"
#include "http/uri.h"

namespace swala::cluster {
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

/// Polls until `pred` holds or ~3 s elapse (broadcasts are asynchronous).
bool eventually(const std::function<bool()>& pred) {
  for (int i = 0; i < 300; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

/// Executes-and-caches `target` at `node` (must currently be a miss there).
void insert_at(LocalCluster& cluster, core::NodeId node,
               const std::string& target, const std::string& body) {
  const auto uri = uri_of(target);
  auto lookup = cluster.manager(node).lookup(http::Method::kGet, uri,
                                             Deadline());
  ASSERT_EQ(lookup.outcome, core::LookupOutcome::kMissMustExecute) << target;
  cluster.manager(node).complete(http::Method::kGet, uri, lookup.rule,
                                 ok_output(body), 1.0);
}

/// Cluster factory: `staged_out` (if any) starts outside the active set;
/// everyone shares the same initial view.
LocalCluster make_cluster(std::size_t n, core::DirectoryMode mode,
                          std::vector<core::NodeId> initial_active = {}) {
  const auto manager_options = [mode, initial_active](core::NodeId) {
    core::ManagerOptions mo;
    mo.limits = {1000, 0};
    core::RuleDecision d;
    d.cacheable = true;
    mo.rules.add_rule("/cgi-bin/*", d);
    mo.directory_mode = mode;
    mo.initial_members = initial_active;
    return mo;
  };
  const auto group_options = [initial_active](core::NodeId) {
    GroupOptions go;
    go.purge_interval_seconds = 0.2;
    go.probe_interval_ms = 100;
    go.connect_timeout_ms = 500;
    go.fetch_timeout_ms = 500;
    go.query_timeout_ms = 300;
    go.initial_active = initial_active;
    return go;
  };
  return LocalCluster(n, manager_options, RealClock::instance(),
                      group_options);
}

TEST(MembershipTest, StagedJoinBecomesVisibleClusterWide) {
  // Node 2 starts outside the active set: members ignore it, and the entry
  // it caches stand-alone is invisible to the cluster. After join_cluster()
  // every node holds the same 3-member view and the pre-join entry is
  // remotely servable.
  LocalCluster cluster = make_cluster(3, core::DirectoryMode::kReplicated,
                                      {0, 1});
  EXPECT_FALSE(cluster.manager(0).is_member(2));
  EXPECT_FALSE(cluster.manager(2).is_member(2)) << "not admitted yet";

  insert_at(cluster, 0, "/cgi-bin/join/a", "from-0");
  insert_at(cluster, 2, "/cgi-bin/join/pre", "stand-alone");
  // Stand-alone means stand-alone: the members never learn of the entry.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_FALSE(
      cluster.manager(0).directory().lookup("GET /cgi-bin/join/pre"));

  const auto st = cluster.group(2).join_cluster();
  ASSERT_TRUE(st.is_ok()) << st.to_string();

  const std::vector<core::NodeId> want = {0, 1, 2};
  EXPECT_TRUE(eventually([&] {
    return cluster.manager(0).active_members() == want &&
           cluster.manager(1).active_members() == want &&
           cluster.manager(2).active_members() == want;
  }));
  EXPECT_EQ(cluster.manager(2).membership_epoch(),
            cluster.manager(0).membership_epoch());
  EXPECT_GE(cluster.group(2).stats().joins_sent, 2u)
      << "phase 2: every active member gets its own kJoin";
  EXPECT_GE(cluster.group(0).stats().joins_served, 1u);

  // adopt_membership re-announced the stand-alone entry; the replicated
  // seeding push gave the joiner the members' records. Both directions
  // must now serve remotely.
  ASSERT_TRUE(eventually([&] {
    return cluster.manager(0)
        .directory()
        .lookup("GET /cgi-bin/join/pre")
        .has_value();
  }));
  auto hit = cluster.manager(0).lookup(http::Method::kGet,
                                       uri_of("/cgi-bin/join/pre"), Deadline());
  ASSERT_EQ(hit.outcome, core::LookupOutcome::kHit);
  EXPECT_TRUE(hit.remote);
  EXPECT_EQ(hit.result.data, "stand-alone");

  ASSERT_TRUE(eventually([&] {
    return cluster.manager(2)
        .directory()
        .lookup("GET /cgi-bin/join/a")
        .has_value();
  }));
  auto seeded = cluster.manager(2).lookup(http::Method::kGet,
                                          uri_of("/cgi-bin/join/a"),
                                          Deadline());
  ASSERT_EQ(seeded.outcome, core::LookupOutcome::kHit);
  EXPECT_EQ(seeded.result.data, "from-0");

  cluster.quiesce();
  const auto report = cluster.check_cluster_consistency();
  EXPECT_TRUE(report.consistent()) << report.to_string();
}

TEST(MembershipTest, GracefulDecommissionHandsOffWithoutLoss) {
  LocalCluster cluster = make_cluster(3, core::DirectoryMode::kReplicated);
  for (int i = 0; i < 6; ++i) {
    insert_at(cluster, 0, "/cgi-bin/leave/k" + std::to_string(i),
              "body-" + std::to_string(i));
  }
  const auto leaving = cluster.manager(0).store().keys();
  ASSERT_EQ(leaving.size(), 6u);

  // The swalad decommission sequence: stop inserts, ship state, announce.
  const auto handed = cluster.group(0).decommission();
  EXPECT_EQ(handed.entries, 6u);

  const std::vector<core::NodeId> want = {1, 2};
  EXPECT_TRUE(eventually([&] {
    return cluster.manager(1).active_members() == want &&
           cluster.manager(2).active_members() == want;
  }));
  // Graceful leave is not a death: no quarantine, no breaker trip.
  EXPECT_FALSE(cluster.manager(1).directory().quarantined(0));
  EXPECT_GE(cluster.group(1).stats().decommissions_observed, 1u);
  EXPECT_GE(cluster.group(0).stats().handoff_frames_sent, 6u);

  // Zero loss: every entry the leaver held is served by a survivor.
  for (const auto& key : leaving) {
    ASSERT_TRUE(eventually([&] {
      return cluster.manager(1).store().peek(key).has_value() ||
             cluster.manager(2).store().peek(key).has_value();
    })) << key << " vanished in the handoff";
  }
  const auto adopted = cluster.group(1).stats().handoffs_adopted +
                       cluster.group(2).stats().handoffs_adopted;
  EXPECT_EQ(adopted, 6u);

  // And the post-transition membership passes the oracle (the leaver's
  // self-retaining view is excluded, as the load balancer no longer
  // routes to it).
  cluster.quiesce();
  const auto report = core::check_cluster_consistency(
      {nullptr, &cluster.manager(1), &cluster.manager(2)});
  EXPECT_TRUE(report.consistent()) << report.to_string();
}

TEST(MembershipTest, QuerySweepRotatesAcrossHealthyPeers) {
  // Only node 2 holds the key, and the sweep stops at the first "found".
  // A fixed probe order would therefore either always probe node 1 first
  // (every sweep) or never probe it at all; the rotating start must land
  // somewhere in between across repeated sweeps.
  LocalCluster cluster = make_cluster(3, core::DirectoryMode::kQuery);
  const std::string target = "/cgi-bin/rot/x";
  insert_at(cluster, 2, target, "copy-2");

  const auto before_1 = cluster.group(1).stats().queries_served;
  const auto before_2 = cluster.group(2).stats().queries_served;
  for (int i = 0; i < 6; ++i) {
    auto found = cluster.group(0).query_peers("GET " + target, 500);
    ASSERT_TRUE(found.is_ok()) << found.status().to_string();
  }
  const auto probed_1 = cluster.group(1).stats().queries_served - before_1;
  const auto probed_2 = cluster.group(2).stats().queries_served - before_2;
  EXPECT_EQ(probed_2, 6u) << "the holder answers every sweep";
  EXPECT_GE(probed_1, 1u) << "fixed order: node 1 shadowed by node 2";
  EXPECT_LE(probed_1, 5u) << "fixed order: node 1 probed on every sweep";
}

TEST(MembershipTest, RollingRestartKeepsParityAcrossDirectoryModes) {
  // One node at a time stops and comes back (store intact — the restart is
  // a process bounce, not a disk loss). After the wave, every mode must
  // serve every entry and pass the cluster oracle.
  for (const auto mode :
       {core::DirectoryMode::kReplicated, core::DirectoryMode::kPartitioned,
        core::DirectoryMode::kQuery}) {
    SCOPED_TRACE(core::directory_mode_name(mode));
    LocalCluster cluster = make_cluster(3, mode);
    std::vector<std::string> keys;
    for (int n = 0; n < 3; ++n) {
      const std::string target =
          "/cgi-bin/roll/n" + std::to_string(n) + "-k";
      insert_at(cluster, static_cast<core::NodeId>(n), target,
                "body-" + std::to_string(n));
      keys.push_back("GET " + target);
    }
    cluster.quiesce();

    for (std::size_t n = 0; n < 3; ++n) {
      cluster.group(n).stop();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const auto st = cluster.group(n).start();
      ASSERT_TRUE(st.is_ok()) << st.to_string();
      cluster.quiesce();
    }

    for (std::size_t i = 0; i < keys.size(); ++i) {
      // The inserting node still holds its entry; a peer can still reach
      // it through the mode's lookup path.
      EXPECT_TRUE(cluster.manager(i).store().peek(keys[i]).has_value());
      const auto reader = (i + 1) % 3;
      auto hit = cluster.manager(reader).lookup(
          http::Method::kGet,
          uri_of(keys[i].substr(4)), Deadline());  // strip "GET "
      EXPECT_EQ(hit.outcome, core::LookupOutcome::kHit)
          << keys[i] << " unreachable from node " << reader;
    }
    cluster.quiesce();
    const auto report = cluster.check_cluster_consistency();
    EXPECT_TRUE(report.consistent()) << report.to_string();
    cluster.stop();
  }
}

}  // namespace
}  // namespace swala::cluster
