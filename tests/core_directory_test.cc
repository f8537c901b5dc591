// Tests for the replicated cache directory: per-node tables, lookup
// precedence, version-guarded erase, expiry visibility, record round trips,
// all four locking modes (parameterized), and a concurrency smoke test.
#include <gtest/gtest.h>

#include <thread>

#include "common/clock.h"
#include "core/directory.h"

namespace swala::core {
namespace {

EntryMeta meta(const std::string& key, NodeId owner,
               std::uint64_t version = 1) {
  EntryMeta m;
  m.key = key;
  m.owner = owner;
  m.size_bytes = 10;
  m.cost_seconds = 1.0;
  m.version = version;
  return m;
}

class DirectoryModeTest : public ::testing::TestWithParam<LockingMode> {
 protected:
  // CacheDirectory holds mutexes and is intentionally immovable.
  std::unique_ptr<CacheDirectory> make_dir(NodeId self, std::size_t nodes) {
    auto dir = std::make_unique<CacheDirectory>(self, nodes, GetParam());
    dir->set_clock(&clock_);
    return dir;
  }
  ManualClock clock_{from_seconds(100.0)};
};

TEST_P(DirectoryModeTest, InsertLookupErase) {
  auto dir_ptr = make_dir(0, 3);
  CacheDirectory& dir = *dir_ptr;
  dir.apply_insert(meta("GET /x", 1));
  auto hit = dir.lookup("GET /x");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->owner, 1u);
  EXPECT_EQ(dir.size(), 1u);
  EXPECT_EQ(dir.table_size(1), 1u);
  EXPECT_EQ(dir.table_size(0), 0u);

  dir.apply_erase(1, "GET /x");
  EXPECT_FALSE(dir.lookup("GET /x").has_value());
  EXPECT_EQ(dir.size(), 0u);
}

TEST_P(DirectoryModeTest, LocalTableWins) {
  auto dir_ptr = make_dir(0, 3);
  CacheDirectory& dir = *dir_ptr;
  dir.apply_insert(meta("GET /x", 2));
  dir.apply_insert(meta("GET /x", 0));
  auto hit = dir.lookup("GET /x");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->owner, 0u) << "local copy must take precedence";
}

TEST_P(DirectoryModeTest, LookupAtSpecificNode) {
  auto dir_ptr = make_dir(0, 2);
  CacheDirectory& dir = *dir_ptr;
  dir.apply_insert(meta("GET /y", 1));
  EXPECT_TRUE(dir.lookup_at(1, "GET /y").has_value());
  EXPECT_FALSE(dir.lookup_at(0, "GET /y").has_value());
  EXPECT_FALSE(dir.lookup_at(9, "GET /y").has_value());  // out of range
}

TEST_P(DirectoryModeTest, VersionGuardedErase) {
  auto dir_ptr = make_dir(0, 2);
  CacheDirectory& dir = *dir_ptr;
  dir.apply_insert(meta("GET /v", 1, /*version=*/3));
  // A stale erase for version 2 must not remove the newer insert.
  dir.apply_erase(1, "GET /v", /*version=*/2);
  EXPECT_TRUE(dir.lookup("GET /v").has_value());
  // Matching (or newer) version removes it.
  dir.apply_erase(1, "GET /v", /*version=*/3);
  EXPECT_FALSE(dir.lookup("GET /v").has_value());
}

TEST_P(DirectoryModeTest, UnversionedEraseAlwaysRemoves) {
  auto dir_ptr = make_dir(0, 2);
  CacheDirectory& dir = *dir_ptr;
  dir.apply_insert(meta("GET /u", 1, 7));
  dir.apply_erase(1, "GET /u");
  EXPECT_FALSE(dir.lookup("GET /u").has_value());
}

TEST_P(DirectoryModeTest, ExpiredEntriesInvisible) {
  auto dir_ptr = make_dir(0, 1);
  CacheDirectory& dir = *dir_ptr;
  EntryMeta m = meta("GET /e", 0);
  m.expire_time = clock_.now() + from_seconds(5.0);
  dir.apply_insert(m);
  EXPECT_TRUE(dir.lookup("GET /e").has_value());
  clock_.advance(from_seconds(10.0));
  EXPECT_FALSE(dir.lookup("GET /e").has_value());
  const auto expired = dir.expired_keys(0, clock_.now());
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], "GET /e");
}

TEST_P(DirectoryModeTest, RecordFieldsRoundTrip) {
  // Every field the record keeps comes back unchanged through each reader;
  // the owner comes from the table and the key from the map.
  auto dir_ptr = make_dir(0, 3);
  CacheDirectory& dir = *dir_ptr;
  EntryMeta m;
  m.key = "GET /cgi-bin/report?q=a%20long%20enough%20key&page=12";
  m.owner = 2;
  m.size_bytes = 123456789012ull;
  m.cost_seconds = 0.375;
  m.insert_time = from_seconds(90.0);
  m.expire_time = from_seconds(400.0);
  m.content_type = "application/json; charset=utf-8";
  m.http_status = 203;
  m.version = 0xfedcba9876543210ull;
  dir.apply_insert(m);

  const auto expect_same = [&](const EntryMeta& got) {
    EXPECT_EQ(got.key, m.key);
    EXPECT_EQ(got.owner, m.owner);
    EXPECT_EQ(got.size_bytes, m.size_bytes);
    EXPECT_EQ(got.cost_seconds, m.cost_seconds);
    EXPECT_EQ(got.insert_time, m.insert_time);
    EXPECT_EQ(got.expire_time, m.expire_time);
    EXPECT_EQ(got.content_type, m.content_type);
    EXPECT_EQ(got.http_status, m.http_status);
    EXPECT_EQ(got.version, m.version);
  };
  const auto hit = dir.lookup(m.key);
  ASSERT_TRUE(hit.has_value());
  expect_same(*hit);
  const auto at = dir.lookup_at(2, m.key);
  ASSERT_TRUE(at.has_value());
  expect_same(*at);
  const auto metas = dir.metas_at(2);
  ASSERT_EQ(metas.size(), 1u);
  expect_same(metas[0]);
  const auto versions = dir.key_versions_at(2);
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].first, m.key);
  EXPECT_EQ(versions[0].second, m.version);
}

TEST_P(DirectoryModeTest, OutOfRangeOwnerIgnored) {
  auto dir_ptr = make_dir(0, 2);
  CacheDirectory& dir = *dir_ptr;
  dir.apply_insert(meta("GET /o", 9));
  EXPECT_EQ(dir.size(), 0u);
  dir.apply_erase(9, "GET /o");  // must not crash
}

TEST_P(DirectoryModeTest, StatsCount) {
  auto dir_ptr = make_dir(0, 2);
  CacheDirectory& dir = *dir_ptr;
  dir.apply_insert(meta("GET /s", 1));
  (void)dir.lookup("GET /s");
  (void)dir.lookup("GET /missing");
  dir.apply_erase(1, "GET /s");
  const auto stats = dir.stats();
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.erases, 1u);
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.lookup_hits, 1u);
  EXPECT_GT(stats.lock_acquisitions, 0u);
}

TEST_P(DirectoryModeTest, ConcurrentMixedOperations) {
  auto dir_ptr = make_dir(0, 4);
  CacheDirectory& dir = *dir_ptr;
  constexpr int kThreads = 4;
  constexpr int kOps = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::string key = "GET /k" + std::to_string(i % 37);
        const auto owner = static_cast<NodeId>(t);
        switch (i % 3) {
          case 0:
            dir.apply_insert(meta(key, owner));
            break;
          case 1:
            (void)dir.lookup(key);
            break;
          case 2:
            dir.apply_erase(owner, key);
            break;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Sanity: directory is still coherent and usable.
  dir.apply_insert(meta("GET /final", 0));
  EXPECT_TRUE(dir.lookup("GET /final").has_value());
}

INSTANTIATE_TEST_SUITE_P(
    Modes, DirectoryModeTest,
    ::testing::Values(LockingMode::kWholeDirectory, LockingMode::kPerTable,
                      LockingMode::kPerEntry,
                      LockingMode::kMultiGranularity),
    [](const auto& param_info) {
      std::string name = locking_mode_name(param_info.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(DirectoryTest, PerEntryModeTakesMoreLocksOnLookup) {
  // The §4.2 argument: per-entry locking multiplies acquisitions per lookup.
  ManualClock clock(0);
  CacheDirectory per_table(0, 4, LockingMode::kPerTable);
  CacheDirectory per_entry(0, 4, LockingMode::kPerEntry);
  per_table.set_clock(&clock);
  per_entry.set_clock(&clock);
  for (NodeId n = 0; n < 4; ++n) {
    per_table.apply_insert(meta("GET /k", n));
    per_entry.apply_insert(meta("GET /k", n));
  }
  const auto base_table = per_table.stats().lock_acquisitions;
  const auto base_entry = per_entry.stats().lock_acquisitions;
  for (int i = 0; i < 100; ++i) {
    (void)per_table.lookup("GET /k");
    (void)per_entry.lookup("GET /k");
  }
  const auto table_locks = per_table.stats().lock_acquisitions - base_table;
  const auto entry_locks = per_entry.stats().lock_acquisitions - base_entry;
  EXPECT_GT(entry_locks, table_locks);
}

}  // namespace
}  // namespace swala::core
