// Property tests for the consistent-hash ring that backs partitioned
// directory ownership: deterministic placement, balanced key spread, and
// bounded remap on membership change. These are the invariants the
// partitioned directory mode leans on — if placement drifted between nodes
// or a membership change reshuffled unrelated keys, owner updates would be
// sent to the wrong node and the directory would silently rot.
#include "common/hash.h"

#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

namespace swala {
namespace {

std::vector<std::string> make_keys(std::size_t count) {
  std::vector<std::string> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "/cgi-bin/query?item=%zu&page=%zu", i,
                  i % 7);
    keys.emplace_back(buf);
  }
  return keys;
}

HashRing make_ring(std::size_t nodes, std::uint64_t seed = HashRing::kDefaultSeed,
                   std::size_t vnodes = HashRing::kDefaultVnodes) {
  HashRing ring(seed, vnodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    ring.add_node(static_cast<std::uint32_t>(i));
  }
  return ring;
}

TEST(HashRingTest, EmptyRingReportsNoOwner) {
  HashRing ring;
  EXPECT_EQ(ring.owner_of("/cgi-bin/a"), HashRing::kNoOwner);
  EXPECT_EQ(ring.num_nodes(), 0u);
  EXPECT_EQ(ring.num_points(), 0u);
}

TEST(HashRingTest, SingleNodeOwnsEverything) {
  auto ring = make_ring(1);
  for (const auto& key : make_keys(100)) {
    EXPECT_EQ(ring.owner_of(key), 0u);
  }
}

TEST(HashRingTest, AddAndRemoveAreIdempotent) {
  HashRing ring;
  ring.add_node(3);
  const std::size_t points = ring.num_points();
  ring.add_node(3);
  EXPECT_EQ(ring.num_points(), points);
  EXPECT_EQ(ring.num_nodes(), 1u);
  ring.remove_node(3);
  ring.remove_node(3);
  EXPECT_EQ(ring.num_points(), 0u);
  EXPECT_FALSE(ring.contains(3));
}

// Every node that builds a ring from the same (seed, membership) must
// compute identical ownership — the partitioned mode has no coordination
// step, so this is what keeps all nodes agreeing on who owns a key.
TEST(HashRingTest, PlacementIsDeterministicAcrossBuildOrder) {
  const auto keys = make_keys(5000);
  auto forward = make_ring(64);
  HashRing reversed(HashRing::kDefaultSeed, HashRing::kDefaultVnodes);
  for (int i = 63; i >= 0; --i) {
    reversed.add_node(static_cast<std::uint32_t>(i));
  }
  HashRing churned(HashRing::kDefaultSeed, HashRing::kDefaultVnodes);
  for (std::uint32_t i = 0; i < 96; ++i) churned.add_node(i);
  for (std::uint32_t i = 64; i < 96; ++i) churned.remove_node(i);
  for (const auto& key : keys) {
    const auto owner = forward.owner_of(key);
    EXPECT_EQ(reversed.owner_of(key), owner) << key;
    EXPECT_EQ(churned.owner_of(key), owner) << key;
  }
}

TEST(HashRingTest, DifferentSeedsPlaceDifferently) {
  const auto keys = make_keys(2000);
  auto a = make_ring(64, 1);
  auto b = make_ring(64, 2);
  std::size_t moved = 0;
  for (const auto& key : keys) {
    if (a.owner_of(key) != b.owner_of(key)) ++moved;
  }
  // With 64 nodes, two unrelated placements agree on ~1/64 of keys.
  EXPECT_GT(moved, keys.size() / 2);
}

// Balance: with vnodes virtual points per member, the heaviest node should
// carry no more than ~3x the mean (the classic consistent-hashing spread
// bound for 64 vnodes is much tighter in expectation; 3x gives headroom
// against unlucky seeds while still catching a broken point function, which
// typically skews 10x+).
TEST(HashRingTest, KeySpreadIsBalanced) {
  const auto keys = make_keys(20000);
  for (std::size_t nodes : {64u, 256u, 512u}) {
    auto ring = make_ring(nodes);
    std::unordered_map<std::uint32_t, std::size_t> load;
    for (const auto& key : keys) load[ring.owner_of(key)]++;
    const double mean = static_cast<double>(keys.size()) / nodes;
    std::size_t max_load = 0;
    for (const auto& [node, count] : load) {
      EXPECT_LT(node, nodes);
      max_load = std::max(max_load, count);
    }
    EXPECT_LT(static_cast<double>(max_load), 3.0 * mean)
        << nodes << " nodes: max " << max_load << " vs mean " << mean;
  }
}

// Adding one node to an n-node ring moves ~K/(n+1) keys, and every key that
// moves must move TO the new node — consistent hashing's defining property.
TEST(HashRingTest, AddingNodeRemapsOnlyToNewcomer) {
  const auto keys = make_keys(20000);
  auto before = make_ring(64);
  auto after = make_ring(65);
  std::size_t moved = 0;
  for (const auto& key : keys) {
    const auto old_owner = before.owner_of(key);
    const auto new_owner = after.owner_of(key);
    if (old_owner != new_owner) {
      EXPECT_EQ(new_owner, 64u) << key << " moved between survivors";
      ++moved;
    }
  }
  const double expected = static_cast<double>(keys.size()) / 65.0;
  EXPECT_GT(moved, 0u);
  EXPECT_LT(static_cast<double>(moved), 3.0 * expected)
      << "remap volume should be ~K/n, got " << moved;
}

// Removing a node redistributes only the removed node's keys; keys owned by
// survivors never change hands between two surviving nodes.
TEST(HashRingTest, RemovingNodeNeverRemapsBetweenSurvivors) {
  const auto keys = make_keys(20000);
  auto before = make_ring(64);
  auto after = make_ring(64);
  after.remove_node(17);
  for (const auto& key : keys) {
    const auto old_owner = before.owner_of(key);
    const auto new_owner = after.owner_of(key);
    if (old_owner != 17u) {
      EXPECT_EQ(new_owner, old_owner) << key << " moved between survivors";
    } else {
      EXPECT_NE(new_owner, 17u);
    }
  }
}

// Transitive remap minimality across a whole churn episode: starting from a
// 64-node ring, add node 64, remove node 17, then add node 17 back. Each
// step must only move keys to/from the node that changed, so composing the
// three steps bounds the total churn: a key's owner at the end may differ
// from its start owner only if some intermediate owner was one of the
// churned nodes. The membership {0..64} at the end must also place keys
// identically to a ring built with that membership from scratch (history
// independence — a restarted node rebuilds the same ring).
TEST(HashRingTest, TransitiveChurnRemapsOnlyThroughChurnedNodes) {
  const auto keys = make_keys(20000);
  auto ring = make_ring(64);
  const std::uint64_t v0 = ring.version();

  std::unordered_map<std::string, std::uint32_t> owner_start;
  for (const auto& key : keys) owner_start[key] = ring.owner_of(key);

  auto step = [&](auto&& mutate) {
    std::unordered_map<std::string, std::uint32_t> before;
    for (const auto& key : keys) before[key] = ring.owner_of(key);
    const std::uint32_t changed = mutate(ring);
    for (const auto& key : keys) {
      const auto old_owner = before[key];
      const auto new_owner = ring.owner_of(key);
      if (old_owner != new_owner) {
        EXPECT_TRUE(old_owner == changed || new_owner == changed)
            << key << " moved between bystanders (" << old_owner << " -> "
            << new_owner << " while node " << changed << " churned)";
      }
    }
  };
  step([](HashRing& r) { r.add_node(64); return 64u; });
  step([](HashRing& r) { r.remove_node(17); return 17u; });
  step([](HashRing& r) { r.add_node(17); return 17u; });
  EXPECT_EQ(ring.version(), v0 + 3) << "each change bumps the ring version";

  // History independence: the final membership placed from scratch agrees.
  auto fresh = make_ring(65);
  std::size_t net_moved = 0;
  for (const auto& key : keys) {
    EXPECT_EQ(ring.owner_of(key), fresh.owner_of(key)) << key;
    if (ring.owner_of(key) != owner_start[key]) ++net_moved;
  }
  // Net effect of the episode is exactly "node 64 joined" (17 left and
  // came back), so the net remap volume must stay ~K/65, not O(K).
  EXPECT_LT(static_cast<double>(net_moved), 3.0 * keys.size() / 65.0)
      << "churn episode reshuffled bystander keys";
}

// successor_of answers "who owns this key once that member leaves" exactly
// as a ring rebuilt without the member would, for every key and leaver.
TEST(HashRingTest, SuccessorOfMatchesTheRingWithoutTheLeaver) {
  const auto keys = make_keys(5000);
  const auto ring = make_ring(8);
  for (std::uint32_t leaving = 0; leaving < 9; ++leaving) {
    auto without = make_ring(8);
    without.remove_node(leaving);
    for (const auto& key : keys) {
      ASSERT_EQ(ring.successor_of(key, leaving), without.owner_of(key))
          << key << " leaving " << leaving;
    }
  }
  HashRing single;
  single.add_node(3);
  EXPECT_EQ(single.successor_of("/cgi-bin/a", 3), HashRing::kNoOwner);
  EXPECT_EQ(HashRing().successor_of("/cgi-bin/a", 3), HashRing::kNoOwner);
}

// vnodes = 0 is clamped to 1 point per member rather than an empty ring.
TEST(HashRingTest, ZeroVnodesClampsToOne) {
  HashRing ring(HashRing::kDefaultSeed, 0);
  ring.add_node(0);
  ring.add_node(1);
  EXPECT_EQ(ring.num_points(), 2u);
  EXPECT_NE(ring.owner_of("/cgi-bin/a"), HashRing::kNoOwner);
}

}  // namespace
}  // namespace swala
