// Tests for CacheStore: insert/fetch/evict, capacity limits (entries and
// bytes), TTL expiry with a manual clock, the memory store's single copy of
// each body, the disk backend, and statistics.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "common/clock.h"
#include "common/random.h"
#include "core/store.h"

namespace swala::core {
namespace {

// Sanitizer allocators do not report through mallinfo2.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedAllocator = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitizedAllocator = true;
#else
constexpr bool kSanitizedAllocator = false;
#endif
#else
constexpr bool kSanitizedAllocator = false;
#endif

class StoreTest : public ::testing::Test {
 protected:
  CacheStore make_store(StoreLimits limits,
                        PolicyKind policy = PolicyKind::kLru) {
    return CacheStore(limits, policy, std::make_unique<MemoryBackend>(),
                      &clock_, /*owner=*/0);
  }

  CacheKey key(const std::string& target) {
    return CacheKey::make("GET", target);
  }

  ManualClock clock_{from_seconds(1000.0)};
};

TEST_F(StoreTest, InsertThenFetch) {
  auto store = make_store({10, 0});
  std::vector<EntryMeta> evicted;
  auto meta = store.insert(key("/a"), "result-data", 2.5, 0, "text/html", 200,
                           &evicted);
  ASSERT_TRUE(meta.is_ok());
  EXPECT_EQ(meta.value().size_bytes, 11u);
  EXPECT_DOUBLE_EQ(meta.value().cost_seconds, 2.5);
  EXPECT_TRUE(evicted.empty());

  auto hit = store.fetch(key("/a").text);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->data, "result-data");
  EXPECT_EQ(hit->meta.access_count, 1u);
  EXPECT_EQ(store.stats().hits, 1u);
}

TEST_F(StoreTest, MissCounts) {
  auto store = make_store({10, 0});
  EXPECT_FALSE(store.fetch("GET /nothing").has_value());
  EXPECT_EQ(store.stats().misses, 1u);
}

TEST_F(StoreTest, EntryLimitEvicts) {
  auto store = make_store({3, 0});
  std::vector<EntryMeta> evicted;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store
                    .insert(key("/e" + std::to_string(i)), "data", 1.0, 0,
                            "text/html", 200, &evicted)
                    .is_ok());
  }
  EXPECT_EQ(store.entry_count(), 3u);
  ASSERT_EQ(evicted.size(), 2u);
  // LRU: the two oldest go first.
  EXPECT_EQ(evicted[0].key, "GET /e0");
  EXPECT_EQ(evicted[1].key, "GET /e1");
  EXPECT_EQ(store.stats().evictions, 2u);
}

TEST_F(StoreTest, ByteLimitEvicts) {
  auto store = make_store({0, 100});
  std::vector<EntryMeta> evicted;
  const std::string blob40(40, 'x');
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(store
                    .insert(key("/b" + std::to_string(i)), blob40, 1.0, 0,
                            "text/html", 200, &evicted)
                    .is_ok());
  }
  EXPECT_LE(store.bytes_used(), 100u);
  EXPECT_GE(evicted.size(), 2u);
}

TEST_F(StoreTest, OversizedEntryRejected) {
  auto store = make_store({0, 50});
  std::vector<EntryMeta> evicted;
  auto result = store.insert(key("/big"), std::string(100, 'x'), 1.0, 0,
                             "text/html", 200, &evicted);
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(store.stats().rejected_too_large, 1u);
  EXPECT_EQ(store.entry_count(), 0u);
}

TEST_F(StoreTest, ReplaceDoesNotLeakBytes) {
  auto store = make_store({0, 1000});
  std::vector<EntryMeta> evicted;
  ASSERT_TRUE(store.insert(key("/r"), std::string(400, 'a'), 1.0, 0, "t", 200,
                           &evicted)
                  .is_ok());
  ASSERT_TRUE(store.insert(key("/r"), std::string(300, 'b'), 1.0, 0, "t", 200,
                           &evicted)
                  .is_ok());
  EXPECT_EQ(store.entry_count(), 1u);
  EXPECT_EQ(store.bytes_used(), 300u);
  EXPECT_TRUE(evicted.empty());
  auto hit = store.fetch(key("/r").text);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->data, std::string(300, 'b'));
  EXPECT_EQ(hit->meta.version, 2u);
}

TEST_F(StoreTest, TtlExpiryHidesEntry) {
  auto store = make_store({10, 0});
  std::vector<EntryMeta> evicted;
  ASSERT_TRUE(store.insert(key("/ttl"), "data", 1.0, /*ttl=*/5.0, "t", 200,
                           &evicted)
                  .is_ok());
  EXPECT_TRUE(store.fetch(key("/ttl").text).has_value());
  clock_.advance(from_seconds(6.0));
  EXPECT_FALSE(store.fetch(key("/ttl").text).has_value());
  EXPECT_FALSE(store.peek(key("/ttl").text).has_value());
  // The entry still occupies a slot until purged (the purge daemon owns
  // removal so deletions are broadcast).
  EXPECT_EQ(store.entry_count(), 1u);
}

TEST_F(StoreTest, PurgeExpiredRemovesAndReports) {
  auto store = make_store({10, 0});
  std::vector<EntryMeta> evicted;
  ASSERT_TRUE(store.insert(key("/p1"), "d", 1.0, 5.0, "t", 200, &evicted).is_ok());
  ASSERT_TRUE(store.insert(key("/p2"), "d", 1.0, 100.0, "t", 200, &evicted).is_ok());
  ASSERT_TRUE(store.insert(key("/p3"), "d", 1.0, 0.0, "t", 200, &evicted).is_ok());
  clock_.advance(from_seconds(10.0));
  const auto purged = store.purge_expired();
  ASSERT_EQ(purged.size(), 1u);
  EXPECT_EQ(purged[0].key, "GET /p1");
  EXPECT_EQ(store.entry_count(), 2u);
  EXPECT_EQ(store.stats().expirations, 1u);
}

TEST_F(StoreTest, ZeroTtlNeverExpires) {
  auto store = make_store({10, 0});
  std::vector<EntryMeta> evicted;
  ASSERT_TRUE(store.insert(key("/f"), "d", 1.0, 0.0, "t", 200, &evicted).is_ok());
  clock_.advance(from_seconds(1e6));
  EXPECT_TRUE(store.fetch(key("/f").text).has_value());
}

TEST_F(StoreTest, EraseReturnsMeta) {
  auto store = make_store({10, 0});
  std::vector<EntryMeta> evicted;
  ASSERT_TRUE(store.insert(key("/x"), "d", 1.0, 0, "t", 200, &evicted).is_ok());
  auto erased = store.erase(key("/x").text);
  ASSERT_TRUE(erased.has_value());
  EXPECT_EQ(erased->key, "GET /x");
  EXPECT_FALSE(store.erase(key("/x").text).has_value());
  EXPECT_EQ(store.entry_count(), 0u);
  EXPECT_EQ(store.bytes_used(), 0u);
}

TEST_F(StoreTest, ClearEmptiesEverything) {
  auto store = make_store({10, 0});
  std::vector<EntryMeta> evicted;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.insert(key("/c" + std::to_string(i)), "d", 1.0, 0, "t",
                             200, &evicted)
                    .is_ok());
  }
  store.clear();
  EXPECT_EQ(store.entry_count(), 0u);
  EXPECT_EQ(store.bytes_used(), 0u);
}

TEST_F(StoreTest, LruAccessProtectsFromEviction) {
  auto store = make_store({2, 0}, PolicyKind::kLru);
  std::vector<EntryMeta> evicted;
  ASSERT_TRUE(store.insert(key("/1"), "d", 1.0, 0, "t", 200, &evicted).is_ok());
  ASSERT_TRUE(store.insert(key("/2"), "d", 1.0, 0, "t", 200, &evicted).is_ok());
  ASSERT_TRUE(store.fetch(key("/1").text).has_value());  // touch /1
  ASSERT_TRUE(store.insert(key("/3"), "d", 1.0, 0, "t", 200, &evicted).is_ok());
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].key, "GET /2");
  EXPECT_TRUE(store.contains(key("/1").text));
}

TEST_F(StoreTest, GdsKeepsExpensiveEntryUnderPressure) {
  auto store = make_store({2, 0}, PolicyKind::kGreedyDualSize);
  std::vector<EntryMeta> evicted;
  ASSERT_TRUE(
      store.insert(key("/cheap"), "d", 0.001, 0, "t", 200, &evicted).is_ok());
  ASSERT_TRUE(
      store.insert(key("/dear"), "d", 50.0, 0, "t", 200, &evicted).is_ok());
  ASSERT_TRUE(
      store.insert(key("/new"), "d", 0.001, 0, "t", 200, &evicted).is_ok());
  EXPECT_TRUE(store.contains(key("/dear").text));
  EXPECT_FALSE(store.contains(key("/cheap").text));
}

// ---- one copy per body over the memory store ----

// With the hot-blob cache on, the memory store and the cache share one blob,
// so 2,000 bodies of 4 KiB grow the heap by their own size plus per-entry
// bookkeeping. Holding a second copy in the cache would more than double it.
TEST_F(StoreTest, MemoryStoreHoldsEachBodyOnce) {
  if (kSanitizedAllocator) {
    GTEST_SKIP() << "sanitizer allocator does not report through mallinfo2";
  }
  constexpr std::size_t kBodies = 2000;
  constexpr std::size_t kBodyBytes = 4096;
  StoreLimits limits;
  limits.max_entries = kBodies;
  limits.hot_bytes = 64u << 20;
  auto store = make_store(limits);
  std::vector<CacheKey> keys;
  keys.reserve(kBodies);
  for (std::size_t i = 0; i < kBodies; ++i) {
    keys.push_back(key("/cgi-bin/q?id=" + std::to_string(i)));
  }
  const std::string body(kBodyBytes, 'b');
  std::vector<EntryMeta> evicted;

  const std::size_t before = mallinfo2().uordblks;
  for (const auto& k : keys) {
    ASSERT_TRUE(
        store.insert(k, body, 1.0, 0, "text/html", 200, &evicted).is_ok());
  }
  const std::size_t grown = mallinfo2().uordblks - before;

  ASSERT_TRUE(evicted.empty());
  ASSERT_EQ(store.stats().hot_bytes, kBodies * kBodyBytes);
  EXPECT_LE(static_cast<double>(grown), 1.5 * kBodies * kBodyBytes)
      << (static_cast<double>(grown) / kBodies) << " heap bytes per entry";
}

/// Body of generation `gen` of key `k`: a header naming both, then filler
/// derived from them, 1-3 KiB long, so a served body can be checked byte
/// for byte without shared state.
std::string storm_body(int k, std::uint64_t gen) {
  std::string body =
      "k=" + std::to_string(k) + " g=" + std::to_string(gen) + "|";
  const std::size_t size =
      1024 + (gen * 131 + static_cast<std::uint64_t>(k) * 17) % 2048;
  while (body.size() < size) {
    body.push_back(static_cast<char>('a' + (body.size() + gen + k) % 26));
  }
  return body;
}

// Fetch, same-key replace, erase and eviction race over the memory store
// with a hot-blob cache smaller than the working set, so hits take both the
// hot path and the backend read + promotion. Every served body must be one
// that was inserted under its key, intact.
TEST_F(StoreTest, MemoryStoreStormServesIntactBodies) {
  StoreLimits limits;
  limits.max_entries = 48;        // < key space: constant eviction
  limits.hot_bytes = 24u << 10;   // ~12 bodies: hot LRU churns too
  auto store = make_store(limits);
  constexpr int kKeys = 64;
  constexpr int kThreads = 4;
  constexpr int kOps = 20000;
  std::atomic<std::uint64_t> generation{0};
  std::atomic<int> bad{0};

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(0x5709 + static_cast<std::uint64_t>(t));
      std::vector<EntryMeta> evicted;
      for (int op = 0; op < kOps; ++op) {
        const int k = static_cast<int>(rng.uniform_int(0, kKeys - 1));
        const std::string text = "GET /cgi-bin/s?k=" + std::to_string(k);
        const int dice = static_cast<int>(rng.uniform_int(0, 99));
        if (dice < 70) {
          const auto hit = store.fetch(text);
          if (!hit) continue;
          const auto gen_at = hit->data.find(" g=");
          const auto bar = hit->data.find('|');
          const bool intact =
              hit->meta.key == text && gen_at != std::string::npos &&
              bar != std::string::npos &&
              hit->data == storm_body(k, std::stoull(hit->data.substr(
                                             gen_at + 3, bar - gen_at - 3)));
          if (!intact) bad.fetch_add(1);
        } else if (dice < 95) {
          evicted.clear();
          const auto body = storm_body(k, generation.fetch_add(1));
          const auto cache_key =
              CacheKey::make("GET", "/cgi-bin/s?k=" + std::to_string(k));
          const auto inserted = store.insert(cache_key, body, 1.0, 0,
                                             "text/html", 200, &evicted);
          if (!inserted.is_ok()) bad.fetch_add(1);
        } else {
          store.erase(text);
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(bad.load(), 0);
  const StoreStats stats = store.stats();
  EXPECT_GT(stats.hot_hits, 0u);
  EXPECT_GT(stats.hot_misses, 0u);  // backend reads + promotions happened
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.hot_bytes, limits.hot_bytes);
  EXPECT_EQ(stats.pinned_entries, 0u);
  store.clear();
  EXPECT_EQ(store.stats().hot_bytes, 0u);
}

// ---- disk backend ----

TEST(DiskBackendTest, PutGetErase) {
  const std::string dir = "/tmp/swala_disk_test";
  std::filesystem::remove_all(dir);
  DiskBackend backend(dir);
  auto id = backend.put("persisted bytes");
  ASSERT_TRUE(id.is_ok()) << id.status().to_string();
  auto got = backend.get(id.value());
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), "persisted bytes");
  EXPECT_EQ(backend.bytes_stored(), 15u);
  backend.erase(id.value());
  EXPECT_FALSE(backend.get(id.value()).is_ok());
  EXPECT_EQ(backend.bytes_stored(), 0u);
}

TEST(DiskBackendTest, FilesRemovedOnDestruction) {
  const std::string dir = "/tmp/swala_disk_test2";
  std::filesystem::remove_all(dir);
  {
    DiskBackend backend(dir);
    ASSERT_TRUE(backend.put("abc").is_ok());
    ASSERT_TRUE(backend.put("def").is_ok());
    EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                            std::filesystem::directory_iterator{}),
              2);
  }
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator{}),
            0);
}

TEST(DiskBackendTest, StoreOverDiskBackend) {
  const std::string dir = "/tmp/swala_disk_test3";
  std::filesystem::remove_all(dir);
  ManualClock clock(0);
  CacheStore store({100, 0}, PolicyKind::kLru, std::make_unique<DiskBackend>(dir),
                   &clock, 0);
  std::vector<EntryMeta> evicted;
  ASSERT_TRUE(store
                  .insert(CacheKey::make("GET", "/d"), "disk-cached", 1.0, 0,
                          "text/html", 200, &evicted)
                  .is_ok());
  auto hit = store.fetch("GET /d");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->data, "disk-cached");
}

}  // namespace
}  // namespace swala::core
