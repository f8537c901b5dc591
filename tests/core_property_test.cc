// Property tests: randomized operation sequences against CacheStore and
// CacheManager, checking the structural invariants that every execution
// must preserve regardless of policy, limits or interleaving.
#include <gtest/gtest.h>

#include <map>

#include "common/clock.h"
#include "common/random.h"
#include "core/manager.h"

namespace swala::core {
namespace {

struct StorePropertyParam {
  PolicyKind policy;
  std::uint64_t max_entries;
  std::uint64_t max_bytes;
};

class StorePropertyTest : public ::testing::TestWithParam<StorePropertyParam> {};

TEST_P(StorePropertyTest, InvariantsUnderRandomOps) {
  const auto param = GetParam();
  ManualClock clock(from_seconds(1.0));
  CacheStore store({param.max_entries, param.max_bytes}, param.policy,
                   std::make_unique<MemoryBackend>(), &clock, 0);
  Rng rng(static_cast<std::uint64_t>(param.max_entries) * 31 +
          param.max_bytes * 7 + static_cast<std::uint64_t>(param.policy));

  // Shadow model: key -> size, for byte accounting.
  std::map<std::string, std::uint64_t> shadow;
  std::vector<EntryMeta> evicted;

  for (int step = 0; step < 4000; ++step) {
    const std::string target =
        "/cgi-bin/p?k=" + std::to_string(rng.uniform_int(0, 99));
    const CacheKey key = CacheKey::make("GET", target);
    evicted.clear();

    switch (rng.uniform_int(0, 4)) {
      case 0:
      case 1: {  // insert
        const auto size =
            static_cast<std::size_t>(rng.uniform_int(1, 2000));
        const double ttl = rng.bernoulli(0.2) ? rng.uniform(0.1, 5.0) : 0.0;
        auto result = store.insert(key, std::string(size, 'd'),
                                   rng.uniform(0.01, 10.0), ttl, "t", 200,
                                   &evicted);
        if (result) {
          shadow[key.text] = size;
        } else {
          // Rejected: must be an oversized entry with a byte limit; the
          // rejection happens before any replacement, so an existing copy
          // under this key survives untouched.
          ASSERT_NE(param.max_bytes, 0u);
          ASSERT_GT(size, param.max_bytes);
        }
        for (const auto& victim : evicted) shadow.erase(victim.key);
        break;
      }
      case 2: {  // fetch
        const auto hit = store.fetch(key.text);
        // A fetch hit must be a key the shadow believes is present (the
        // reverse need not hold: TTL expiry hides entries).
        if (hit) {
          ASSERT_TRUE(shadow.count(key.text)) << key.text;
        }
        break;
      }
      case 3: {  // erase
        store.erase(key.text);
        shadow.erase(key.text);
        break;
      }
      case 4: {  // time passes; purge
        clock.advance(from_seconds(rng.uniform(0.0, 2.0)));
        for (const auto& meta : store.purge_expired()) {
          shadow.erase(meta.key);
        }
        break;
      }
    }

    // Invariants after every step.
    ASSERT_EQ(store.entry_count(), shadow.size());
    std::uint64_t expected_bytes = 0;
    for (const auto& [k, size] : shadow) expected_bytes += size;
    ASSERT_EQ(store.bytes_used(), expected_bytes);
    if (param.max_entries != 0) {
      ASSERT_LE(store.entry_count(), param.max_entries);
    }
    if (param.max_bytes != 0) {
      ASSERT_LE(store.bytes_used(), param.max_bytes);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StorePropertyTest,
    ::testing::Values(StorePropertyParam{PolicyKind::kLru, 10, 0},
                      StorePropertyParam{PolicyKind::kLru, 0, 8000},
                      StorePropertyParam{PolicyKind::kLfu, 25, 0},
                      StorePropertyParam{PolicyKind::kFifo, 25, 20000},
                      StorePropertyParam{PolicyKind::kSize, 0, 5000},
                      StorePropertyParam{PolicyKind::kGreedyDualSize, 15, 0},
                      StorePropertyParam{PolicyKind::kGreedyDualSize, 0, 3000}),
    [](const auto& param_info) {
      return std::string(policy_name(param_info.param.policy)) + "_e" +
             std::to_string(param_info.param.max_entries) + "_b" +
             std::to_string(param_info.param.max_bytes);
    });

/// Manager-level property: after any interleaving of lookups, completions
/// and peer updates, every directory entry for self is backed by the store
/// and vice versa (modulo TTL visibility).
TEST(ManagerPropertyTest, DirectoryAndStoreStayConsistent) {
  ManualClock clock(from_seconds(1.0));
  ManagerOptions mo;
  mo.limits = {20, 0};
  RuleDecision d;
  d.cacheable = true;
  mo.rules.add_rule("/cgi-bin/*", d);
  CacheManager manager(0, 3, std::move(mo), &clock);
  Rng rng(2024);

  for (int step = 0; step < 3000; ++step) {
    const std::string target =
        "/cgi-bin/c?k=" + std::to_string(rng.uniform_int(0, 59));
    http::Uri uri;
    ASSERT_TRUE(http::parse_uri(target, &uri));

    switch (rng.uniform_int(0, 2)) {
      case 0: {
        auto lookup = manager.lookup(http::Method::kGet, uri, Deadline());
        if (lookup.outcome == LookupOutcome::kMissMustExecute) {
          cgi::CgiOutput out;
          out.success = true;
          out.body = std::string(64, 'x');
          manager.complete(http::Method::kGet, uri, lookup.rule, out, 1.0);
        }
        break;
      }
      case 1: {  // peer traffic
        EntryMeta meta;
        meta.key = "GET /cgi-bin/peer?k=" +
                   std::to_string(rng.uniform_int(0, 30));
        meta.owner = static_cast<NodeId>(rng.uniform_int(1, 2));
        meta.version = 1;
        if (rng.bernoulli(0.7)) {
          manager.on_peer_insert(meta);
        } else {
          manager.on_peer_erase(meta.owner, meta.key, 0);
        }
        break;
      }
      case 2: {
        manager.purge_expired();
        break;
      }
    }

    // Self-table consistency: everything the store holds, the directory
    // advertises, and vice versa.
    ASSERT_EQ(manager.directory().table_size(0), manager.store().entry_count());
    for (const auto& key : manager.store().keys()) {
      ASSERT_TRUE(manager.directory().lookup_at(0, key).has_value()) << key;
    }
  }
}

}  // namespace
}  // namespace swala::core
