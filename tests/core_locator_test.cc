// Tests for the two directory-mode locators (core/locator.h), driven through
// the CacheManager that owns them and tests/recording_bus.h: the frames
// each mode announces with, the partitioned owner probe with its dual-read
// window, the anti-entropy digest pairs, the re-announcement on a join and
// on a leave, and the state pushes cluster::Protocol renders.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/clock.h"
#include "common/hash.h"
#include "core/locator.h"
#include "core/manager.h"
#include "recording_bus.h"

namespace swala::core {
namespace {

http::Uri uri_of(const std::string& target) {
  http::Uri uri;
  EXPECT_TRUE(http::parse_uri(target, &uri));
  return uri;
}

std::string key_of(const std::string& target) { return "GET " + target; }

ManagerOptions options_for(DirectoryMode mode,
                           std::vector<NodeId> members = {}) {
  ManagerOptions mo;
  mo.limits = {1000, 0};
  RuleDecision d;
  d.cacheable = true;
  mo.rules.add_rule("/cgi-bin/*", d);
  mo.directory_mode = mode;
  mo.initial_members = std::move(members);
  return mo;
}

void cache_target(CacheManager& manager, const std::string& target) {
  const auto uri = uri_of(target);
  auto lookup = manager.lookup(http::Method::kGet, uri, Deadline());
  ASSERT_EQ(lookup.outcome, LookupOutcome::kMissMustExecute) << target;
  cgi::CgiOutput out;
  out.success = true;
  out.body = "data";
  manager.complete(http::Method::kGet, uri, lookup.rule, out, 1.0);
}

HashRing ring_of(const std::vector<NodeId>& members) {
  HashRing ring;
  for (const NodeId n : members) ring.add_node(n);
  return ring;
}

/// The first `count` targets whose key `pick` accepts.
template <typename Pick>
std::vector<std::string> targets_where(std::size_t count, Pick pick) {
  std::vector<std::string> out;
  for (int i = 0; out.size() < count; ++i) {
    const std::string target = "/cgi-bin/loc" + std::to_string(i);
    if (pick(key_of(target))) out.push_back(target);
  }
  return out;
}

/// Collects a state push the way cluster::Protocol renders it.
struct PushLog final : PeerSink {
  void insert(const EntryMeta& meta) override { inserts.push_back(meta.key); }
  void owner_insert(const EntryMeta& meta) override {
    owner_inserts.push_back(meta.key);
  }
  std::vector<std::string> inserts;
  std::vector<std::string> owner_inserts;
};

// ---- announce frames ----

TEST(LocatorTest, ReplicatedAnnouncesEveryChangeByBroadcast) {
  ManualClock clock;
  RecordingBus bus;
  auto mo = options_for(DirectoryMode::kReplicated);
  mo.limits = {1, 0};  // the second insert evicts the first
  CacheManager manager(0, 4, mo, &clock, &bus);
  cache_target(manager, "/cgi-bin/a");
  cache_target(manager, "/cgi-bin/b");

  ASSERT_EQ(bus.inserts.size(), 2u);
  ASSERT_EQ(bus.erases.size(), 1u);
  EXPECT_EQ(bus.erases[0].key, key_of("/cgi-bin/a"));
  EXPECT_TRUE(bus.owner_updates.empty());
  EXPECT_EQ(manager.locator().record_holder(key_of("/cgi-bin/a")),
            std::nullopt);
}

TEST(LocatorTest, PartitionedAnnouncesOnlyToTheRingOwner) {
  ManualClock clock;
  RecordingBus bus;
  const HashRing ring = ring_of({0, 1, 2, 3});
  const auto remote = targets_where(
      1, [&](const std::string& key) { return ring.owner_of(key) == 2; });
  const auto own = targets_where(
      1, [&](const std::string& key) { return ring.owner_of(key) == 0; });
  auto mo = options_for(DirectoryMode::kPartitioned);
  mo.limits = {1, 0};
  CacheManager manager(0, 4, mo, &clock, &bus);

  cache_target(manager, remote[0]);
  ASSERT_EQ(bus.owner_updates.size(), 1u);
  EXPECT_EQ(bus.owner_updates[0].ring_owner, 2u);
  EXPECT_EQ(bus.owner_updates[0].cache_node, 0u);
  EXPECT_TRUE(bus.owner_updates[0].insert);

  // Our own key needs no frame; evicting the remote one tells its owner.
  cache_target(manager, own[0]);
  ASSERT_EQ(bus.owner_updates.size(), 2u);
  EXPECT_EQ(bus.owner_updates[1].ring_owner, 2u);
  EXPECT_EQ(bus.owner_updates[1].key, key_of(remote[0]));
  EXPECT_FALSE(bus.owner_updates[1].insert);
  EXPECT_TRUE(bus.inserts.empty());
  EXPECT_TRUE(bus.erases.empty());
  EXPECT_EQ(manager.stats().evictions_broadcast, 1u);
  EXPECT_EQ(manager.locator().record_holder(key_of(remote[0])), 2u);
}

// ---- find-on-miss ----

TEST(LocatorTest, ReplicatedMissAsksNobody) {
  ManualClock clock;
  RecordingBus bus;
  CacheManager manager(0, 4, options_for(DirectoryMode::kReplicated), &clock,
                       &bus);
  auto r = manager.lookup(http::Method::kGet, uri_of("/cgi-bin/x"),
                          Deadline());
  EXPECT_EQ(r.outcome, LookupOutcome::kMissMustExecute);
  EXPECT_TRUE(bus.owner_probes.empty());
  EXPECT_EQ(bus.fetches, 0);
}

TEST(LocatorTest, PartitionedMissProbesTheOwnerAndFetchesTheCopy) {
  ManualClock clock;
  RecordingBus bus;
  const HashRing ring = ring_of({0, 1, 2, 3});
  const auto target = targets_where(
      1, [&](const std::string& key) { return ring.owner_of(key) == 2; })[0];
  bus.owner_records[{2, key_of(target)}] = 1;  // owner 2 knows node 1's copy
  bus.remote_data[key_of(target)] = "remote body";
  CacheManager manager(0, 4, options_for(DirectoryMode::kPartitioned), &clock,
                       &bus);

  auto r = manager.lookup(http::Method::kGet, uri_of(target), Deadline());
  ASSERT_EQ(r.outcome, LookupOutcome::kHit);
  EXPECT_TRUE(r.remote);
  EXPECT_EQ(r.owner, 1u);
  EXPECT_EQ(r.result.data, "remote body");
  EXPECT_EQ(bus.owner_probes, std::vector<NodeId>{2});
  EXPECT_EQ(manager.stats().remote_dir_lookups, 1u);
  EXPECT_EQ(manager.stats().remote_dir_hits, 1u);
  EXPECT_EQ(manager.stats().dual_read_probes, 0u);
}

TEST(LocatorTest, PartitionedFalseHitTellsTheOwner) {
  ManualClock clock;
  RecordingBus bus;
  const HashRing ring = ring_of({0, 1, 2, 3});
  const auto target = targets_where(
      1, [&](const std::string& key) { return ring.owner_of(key) == 2; })[0];
  bus.owner_records[{2, key_of(target)}] = 1;  // node 1 no longer has it
  CacheManager manager(0, 4, options_for(DirectoryMode::kPartitioned), &clock,
                       &bus);

  auto r = manager.lookup(http::Method::kGet, uri_of(target), Deadline());
  EXPECT_EQ(r.outcome, LookupOutcome::kMissMustExecute);
  EXPECT_EQ(manager.stats().false_hits, 1u);
  ASSERT_EQ(bus.owner_updates.size(), 1u);
  EXPECT_EQ(bus.owner_updates[0].ring_owner, 2u);
  EXPECT_EQ(bus.owner_updates[0].cache_node, 1u);
  EXPECT_FALSE(bus.owner_updates[0].insert);
}

// A join opens the dual-read window: a remapped key's old owner is asked
// first. The window closes itself kRingSettleSeconds later on the
// manager's clock, with no one calling into the manager; from then on a
// remapped key costs one probe.
TEST(LocatorTest, DualReadWindowClosesItselfAfterTheSettleTime) {
  ManualClock clock;
  RecordingBus bus;
  const HashRing before = ring_of({0, 1, 2});
  const HashRing after = ring_of({0, 1, 2, 3});
  const auto remapped = targets_where(2, [&](const std::string& key) {
    return before.owner_of(key) != 0 && after.owner_of(key) == 3;
  });
  CacheManager manager(0, 4,
                       options_for(DirectoryMode::kPartitioned, {0, 1, 2}),
                       &clock, &bus);
  EXPECT_FALSE(manager.locator().ring_transition_active());

  manager.member_joined(3);
  EXPECT_TRUE(manager.locator().ring_transition_active());
  manager.lookup(http::Method::kGet, uri_of(remapped[0]), Deadline());
  EXPECT_EQ(bus.owner_probes,
            (std::vector<NodeId>{
                static_cast<NodeId>(before.owner_of(key_of(remapped[0]))),
                3}));
  EXPECT_EQ(manager.stats().dual_read_probes, 1u);

  clock.advance(from_seconds(kRingSettleSeconds) + 1);
  EXPECT_FALSE(manager.locator().ring_transition_active());
  bus.owner_probes.clear();
  manager.lookup(http::Method::kGet, uri_of(remapped[1]), Deadline());
  EXPECT_EQ(bus.owner_probes, std::vector<NodeId>{3});
  EXPECT_EQ(manager.stats().dual_read_probes, 1u);
}

// The dual-read window after a decommission: the key's pre-transition
// owner has left, so it is not asked. (The TCP shell refuses an exchange
// with a departed member, and a refused probe counts as a fallback to
// local execution although the current owner then serves the hit.)
TEST(LocatorTest, DualReadSkipsAnOwnerThatLeft) {
  ManualClock clock;
  RecordingBus bus;
  const HashRing before = ring_of({0, 1, 2});
  const HashRing after = ring_of({1, 2});
  const auto target = targets_where(1, [&](const std::string& key) {
    return before.owner_of(key) == 0 && after.owner_of(key) == 1;
  })[0];
  bus.owner_records[{1, key_of(target)}] = 1;  // forwarded by the leaver
  bus.remote_data[key_of(target)] = "moved";
  bus.refused.insert(0);
  CacheManager manager(2, 3, options_for(DirectoryMode::kPartitioned), &clock,
                       &bus);
  manager.member_left(0);
  ASSERT_TRUE(manager.locator().ring_transition_active());

  auto r = manager.lookup(http::Method::kGet, uri_of(target), Deadline());
  ASSERT_EQ(r.outcome, LookupOutcome::kHit);
  EXPECT_TRUE(r.remote);
  EXPECT_EQ(bus.owner_probes, std::vector<NodeId>{1});
  EXPECT_EQ(manager.stats().dual_read_probes, 0u);
  EXPECT_EQ(manager.stats().fallback_executions, 0u);
}

// ---- digest pairs ----

TEST(LocatorTest, DigestPairsMatchAcrossAWiredPairInBothModes) {
  for (const auto mode : {DirectoryMode::kReplicated,
                          DirectoryMode::kPartitioned}) {
    SCOPED_TRACE(directory_mode_name(mode));
    ManualClock clock;
    RecordingBus bus;
    CacheManager sender(0, 2, options_for(mode), &clock, &bus);
    CacheManager receiver(1, 2, options_for(mode), &clock);
    bus.peer = &receiver;
    const HashRing ring = ring_of({0, 1});
    const auto targets =
        targets_where(6, [](const std::string&) { return true; });
    std::size_t held_by_peer = 0;
    for (const auto& target : targets) {
      cache_target(sender, target);
      if (ring.owner_of(key_of(target)) == 1) ++held_by_peer;
    }
    ASSERT_GT(held_by_peer, 0u);
    ASSERT_LT(held_by_peer, targets.size());

    std::size_t expected = 0;
    std::size_t held = 0;
    EXPECT_EQ(sender.digest_for_peer(1, &expected),
              receiver.digest_of_peer_table(0, &held));
    EXPECT_EQ(expected, held);
    // Replicated mirrors the whole table; partitioned only the owned part.
    EXPECT_EQ(expected, mode == DirectoryMode::kReplicated ? targets.size()
                                                           : held_by_peer);
    EXPECT_NE(sender.digest_for_peer(1, nullptr), 0u);
  }
}

// ---- re-announce on a membership change ----

TEST(LocatorTest, PartitionedJoinForwardsExactlyTheRemappedSlice) {
  ManualClock clock;
  RecordingBus bus;
  const HashRing before = ring_of({0, 1, 2});
  const HashRing after = ring_of({0, 1, 2, 3});
  CacheManager manager(0, 4,
                       options_for(DirectoryMode::kPartitioned, {0, 1, 2}),
                       &clock, &bus);
  const auto targets =
      targets_where(12, [](const std::string&) { return true; });
  std::size_t moved = 0;
  for (const auto& target : targets) {
    cache_target(manager, target);
    if (before.owner_of(key_of(target)) != after.owner_of(key_of(target))) {
      ++moved;
    }
  }
  // A record we own for node 1's copy, whose key moves to the joiner.
  const auto foreign = targets_where(1, [&](const std::string& key) {
    return before.owner_of(key) == 0 && after.owner_of(key) == 3;
  })[0];
  EntryMeta record;
  record.key = key_of(foreign);
  record.owner = 1;
  record.version = 1;
  manager.on_peer_insert(record);
  ASSERT_GT(moved, 0u);
  bus.owner_updates.clear();

  const auto stats = manager.member_joined(3);
  EXPECT_EQ(stats.entries, moved);
  EXPECT_EQ(stats.records, 1u);
  ASSERT_EQ(bus.owner_updates.size(), moved + 1);
  for (const auto& update : bus.owner_updates) {
    EXPECT_EQ(update.ring_owner, 3u) << update.key;
    EXPECT_TRUE(update.insert);
  }
  EXPECT_EQ(bus.owner_updates.back().key, record.key);
  EXPECT_EQ(bus.owner_updates.back().cache_node, 1u);

  // The joiner learns nothing more from its admission push.
  PushLog join;
  manager.locator().push_state(3, &join, /*joining=*/true);
  EXPECT_TRUE(join.inserts.empty());
  EXPECT_TRUE(join.owner_inserts.empty());
}

TEST(LocatorTest, PartitionedLeaveReannouncesTheLeaversKeys) {
  ManualClock clock;
  RecordingBus bus;
  const HashRing before = ring_of({0, 1, 2, 3});
  const HashRing after = ring_of({0, 1, 2});
  CacheManager manager(0, 4, options_for(DirectoryMode::kPartitioned),
                       &clock, &bus);
  const auto targets =
      targets_where(12, [](const std::string&) { return true; });
  std::vector<std::string> orphaned;
  for (const auto& target : targets) {
    cache_target(manager, target);
    if (before.owner_of(key_of(target)) == 3 &&
        after.owner_of(key_of(target)) != 0) {
      orphaned.push_back(key_of(target));
    }
  }
  ASSERT_FALSE(orphaned.empty());
  bus.owner_updates.clear();

  const auto stats = manager.member_left(3);
  EXPECT_EQ(stats.entries, orphaned.size());
  EXPECT_EQ(stats.records, 0u);
  ASSERT_EQ(bus.owner_updates.size(), orphaned.size());
  for (std::size_t i = 0; i < orphaned.size(); ++i) {
    EXPECT_EQ(bus.owner_updates[i].key, orphaned[i]);
    EXPECT_EQ(bus.owner_updates[i].ring_owner, after.owner_of(orphaned[i]));
  }
  EXPECT_EQ(manager.locator().record_holder(orphaned[0]),
            after.owner_of(orphaned[0]));
}

TEST(LocatorTest, ReplicatedMembershipChangeSendsNothingButSeedsAJoiner) {
  ManualClock clock;
  RecordingBus bus;
  CacheManager manager(0, 4,
                       options_for(DirectoryMode::kReplicated, {0, 1, 2}),
                       &clock, &bus);
  cache_target(manager, "/cgi-bin/a");
  cache_target(manager, "/cgi-bin/b");
  bus.inserts.clear();

  const auto joined = manager.member_joined(3);
  const auto left = manager.member_left(3);
  EXPECT_EQ(joined.entries + joined.records + left.entries + left.records,
            0u);
  EXPECT_TRUE(bus.inserts.empty());
  EXPECT_TRUE(bus.owner_updates.empty());
  EXPECT_FALSE(manager.locator().ring_transition_active());

  PushLog join;
  manager.locator().push_state(3, &join, /*joining=*/true);
  EXPECT_EQ(join.inserts.size(), 2u);
  EXPECT_TRUE(join.owner_inserts.empty());
}

// ---- resync pushes ----

TEST(LocatorTest, ResyncPushSendsWhatThePeerShouldHold) {
  const HashRing ring = ring_of({0, 1, 2, 3});
  for (const auto mode : {DirectoryMode::kReplicated,
                          DirectoryMode::kPartitioned}) {
    SCOPED_TRACE(directory_mode_name(mode));
    ManualClock clock;
    RecordingBus bus;
    CacheManager manager(0, 4, options_for(mode), &clock, &bus);
    const auto targets =
        targets_where(12, [](const std::string&) { return true; });
    std::size_t owned_by_2 = 0;
    for (const auto& target : targets) {
      cache_target(manager, target);
      if (ring.owner_of(key_of(target)) == 2) ++owned_by_2;
    }
    PushLog push;
    manager.locator().push_state(2, &push, /*joining=*/false);
    if (mode == DirectoryMode::kReplicated) {
      EXPECT_EQ(push.inserts.size(), targets.size());
      EXPECT_TRUE(push.owner_inserts.empty());
    } else {
      EXPECT_TRUE(push.inserts.empty());
      EXPECT_EQ(push.owner_inserts.size(), owned_by_2);
    }
  }
}

}  // namespace
}  // namespace swala::core
