// Unit tests for cluster::Protocol, the I/O-free cooperation protocol shared
// by NodeGroup and sim::VirtualBus. No sockets: each test drives one node's
// protocol with decoded frames, send outcomes and a ManualClock, and checks
// the frames it returns.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/protocol.h"
#include "common/clock.h"
#include "core/manager.h"
#include "recording_bus.h"

namespace swala::cluster {
namespace {

using core::NodeId;

/// Node 0 of a three-slot cluster: its protocol, its manager (wired to a
/// recording bus, so nothing leaves the process) and the clock both read.
struct Node {
  explicit Node(std::vector<NodeId> initial_active = {}) {
    GroupOptions go;
    go.failure_threshold = 3;
    go.probe_interval_ms = 100;
    go.anti_entropy_interval_ms = 1000;
    go.initial_active = initial_active;
    core::ManagerOptions mo;
    mo.limits = {1000, 0};
    core::RuleDecision d;
    d.cacheable = true;
    mo.rules.add_rule("/cgi-bin/*", d);
    mo.initial_members = initial_active;
    manager = std::make_unique<core::CacheManager>(0, 3, std::move(mo),
                                                   &clock, &bus);
    protocol = std::make_unique<Protocol>(0, 3, go, &clock);
    protocol->attach(manager.get());
  }

  void cache(const std::string& target) {
    http::Uri uri;
    ASSERT_TRUE(http::parse_uri(target, &uri));
    auto lookup = manager->lookup(http::Method::kGet, uri, Deadline());
    ASSERT_EQ(lookup.outcome, core::LookupOutcome::kMissMustExecute);
    cgi::CgiOutput out;
    out.success = true;
    out.body = "data";
    manager->complete(http::Method::kGet, uri, lookup.rule, out, 1.0);
  }

  ManualClock clock;
  core::RecordingBus bus;
  std::unique_ptr<core::CacheManager> manager;
  std::unique_ptr<Protocol> protocol;
};

std::size_t count(const Outbox& out, MsgType type, NodeId to) {
  std::size_t n = 0;
  for (const auto& frame : out) {
    if (frame.msg.type == type && frame.to == to) ++n;
  }
  return n;
}

Message digest_from(NodeId sender, std::uint64_t digest) {
  return Message::make_digest(sender, {}, /*has_digest=*/true, digest);
}

TEST(ClusterProtocolTest, SameMismatchTwiceRequestsOneResync) {
  Node node;
  // Node 0 holds no record of node 1's entries, so any nonzero digest from
  // node 1 mismatches. The first round only arms the two-strike rule.
  EXPECT_EQ(count(node.protocol->on_info(digest_from(1, 0xABC)),
                  MsgType::kSyncReq, 1),
            0u);
  EXPECT_EQ(count(node.protocol->on_info(digest_from(1, 0xABC)),
                  MsgType::kSyncReq, 1),
            1u);
  EXPECT_EQ(node.protocol->stats().digest_repairs, 1u);
  // The repair disarms the rule: a third identical round starts over.
  EXPECT_EQ(count(node.protocol->on_info(digest_from(1, 0xABC)),
                  MsgType::kSyncReq, 1),
            0u);
}

TEST(ClusterProtocolTest, MovingDigestNeverRequestsAResync) {
  Node node;
  // The peer's digest changes between rounds: updates are still in
  // flight, so the drift may converge on its own.
  for (std::uint64_t digest = 1; digest <= 4; ++digest) {
    EXPECT_EQ(count(node.protocol->on_info(digest_from(1, digest)),
                    MsgType::kSyncReq, 1),
              0u)
        << digest;
  }
  EXPECT_EQ(node.protocol->stats().digest_repairs, 0u);
}

TEST(ClusterProtocolTest, EpochGapPullsTheMissedInvalidationsOnce) {
  Node node;
  // Node 1 advertises invalidation epoch 3 of its own; node 0 saw none.
  const core::EpochVector high = {{1, 3}};
  const Outbox out = node.protocol->on_info(Message::hello(1, high, 0));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(count(out, MsgType::kInvSync, 1), 1u);
  EXPECT_TRUE(is_data_request(out[0].msg.type));
  EXPECT_EQ(node.protocol->stats().inv_syncs_pulled, 1u);
  // No gap, no pull.
  EXPECT_TRUE(node.protocol->on_info(Message::hello(2, {}, 0)).empty());
}

TEST(ClusterProtocolTest, BreakerOpensAtThresholdAndProbesOnCadence) {
  Node node;
  EXPECT_EQ(node.protocol->peer_state(1), PeerState::kHealthy);
  (void)node.protocol->on_send_result(1, false);
  (void)node.protocol->on_send_result(1, false);
  EXPECT_EQ(node.protocol->peer_state(1), PeerState::kSuspect);
  EXPECT_FALSE(node.manager->directory().quarantined(1));
  (void)node.protocol->on_send_result(1, false);
  EXPECT_EQ(node.protocol->peer_state(1), PeerState::kDead);
  EXPECT_TRUE(node.manager->directory().quarantined(1));
  EXPECT_FALSE(node.protocol->exchange_allowed(1).is_ok());
  // Only a HELLO probe may still go to a dead peer.
  EXPECT_FALSE(node.protocol->admit(1, MsgType::kInsert).has_value());
  EXPECT_TRUE(node.protocol->admit(1, MsgType::kHello).has_value());

  // Probes follow probe_interval_ms from the moment the breaker opened.
  EXPECT_EQ(count(node.protocol->tick(), MsgType::kHello, 1), 0u);
  node.clock.advance(from_millis(99));
  EXPECT_EQ(count(node.protocol->tick(), MsgType::kHello, 1), 0u);
  node.clock.advance(from_millis(1));
  EXPECT_EQ(count(node.protocol->tick(), MsgType::kHello, 1), 1u);
  EXPECT_EQ(count(node.protocol->tick(), MsgType::kHello, 1), 0u);
  node.clock.advance(from_millis(100));
  EXPECT_EQ(count(node.protocol->tick(), MsgType::kHello, 1), 1u);
  EXPECT_EQ(node.protocol->stats().probes_sent, 2u);
  // A healthy peer is never probed.
  EXPECT_EQ(count(node.protocol->tick(), MsgType::kHello, 2), 0u);
}

TEST(ClusterProtocolTest, HelloFromDeadPeerRecoversResyncsAndPushes) {
  Node node;
  node.cache("/cgi-bin/a");
  node.cache("/cgi-bin/b");
  for (int i = 0; i < 3; ++i) (void)node.protocol->on_send_result(1, false);
  ASSERT_EQ(node.protocol->peer_state(1), PeerState::kDead);

  const Outbox out = node.protocol->on_info(Message::hello(1, {}, 0));
  EXPECT_EQ(node.protocol->peer_state(1), PeerState::kHealthy);
  EXPECT_FALSE(node.manager->directory().quarantined(1))
      << "on_peer_recovered lifts the quarantine";
  EXPECT_EQ(count(out, MsgType::kSyncReq, 1), 1u);
  EXPECT_EQ(count(out, MsgType::kInsert, 1), 2u) << "our two entries";
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(node.protocol->stats().resyncs_requested, 1u);
}

TEST(ClusterProtocolTest, JoinIsAnsweredWithTheMembershipView) {
  Node node({0, 1});
  ASSERT_FALSE(node.protocol->member_active(2));
  Outbox pushes;
  const auto ack = node.protocol->answer(Message::join(2), &pushes);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->type, MsgType::kJoinAck);
  EXPECT_EQ(ack->members, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(ack->membership_epoch, node.manager->membership_epoch());
  EXPECT_TRUE(node.protocol->member_active(2));
  EXPECT_TRUE(node.manager->is_member(2));
  EXPECT_EQ(node.protocol->stats().joins_served, 1u);
}

TEST(ClusterProtocolTest, DigestAndSyncReqFromANonMemberAreDropped) {
  Node node({0, 1});
  node.cache("/cgi-bin/a");
  // Node 2 is outside node 0's membership: no table to compare, nothing to
  // push, however often it asks.
  for (int round = 0; round < 2; ++round) {
    EXPECT_TRUE(node.protocol->on_info(digest_from(2, 0xABC)).empty());
  }
  EXPECT_TRUE(node.protocol->on_info(Message::sync_req(2)).empty());
  EXPECT_EQ(node.protocol->stats().digest_repairs, 0u);
  EXPECT_EQ(node.protocol->stats().resyncs_served, 0u);
  // A member's kSyncReq is answered with a push.
  EXPECT_EQ(count(node.protocol->on_info(Message::sync_req(1)),
                  MsgType::kInsert, 1),
            1u);
}

TEST(ClusterProtocolTest, AntiEntropyRoundFollowsItsInterval) {
  Node node;
  EXPECT_EQ(count(node.protocol->tick(), MsgType::kDigest, 1), 0u);
  node.clock.advance(from_millis(1000));
  const Outbox round = node.protocol->tick();
  EXPECT_EQ(count(round, MsgType::kDigest, 1), 1u);
  EXPECT_EQ(count(round, MsgType::kDigest, 2), 1u);
  EXPECT_EQ(count(node.protocol->tick(), MsgType::kDigest, 1), 0u);
  EXPECT_EQ(node.protocol->stats().anti_entropy_rounds, 1u);
}

}  // namespace
}  // namespace swala::cluster
