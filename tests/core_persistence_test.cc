// Tests for cache warm restart: manifest save/load across store instances,
// timestamp rebasing, data-file retention and adoption, corruption
// tolerance, and manager-level restore with directory repopulation and
// peer re-broadcast.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/clock.h"
#include "core/manager.h"
#include "recording_bus.h"

namespace swala::core {
namespace {

const std::string kDir = "/tmp/swala_persist_test";
const std::string kManifest = kDir + "/manifest.txt";

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override { std::filesystem::remove_all(kDir); }

  std::unique_ptr<CacheStore> make_store(const Clock* clock) {
    return std::make_unique<CacheStore>(StoreLimits{100, 0}, PolicyKind::kLru,
                                        std::make_unique<DiskBackend>(kDir),
                                        clock, /*owner=*/0);
  }

  CacheKey key(const std::string& target) {
    return CacheKey::make("GET", target);
  }
};

TEST_F(PersistenceTest, RoundtripAcrossInstances) {
  ManualClock first_clock(from_seconds(100.0));
  {
    auto store = make_store(&first_clock);
    std::vector<EntryMeta> evicted;
    ASSERT_TRUE(store
                    ->insert(key("/a"), "alpha-data", 2.5, 0,
                             "text/html; charset=utf-8", 200, &evicted)
                    .is_ok());
    ASSERT_TRUE(store
                    ->insert(key("/b"), "beta-data", 0.7, /*ttl=*/600.0,
                             "application/json", 201, &evicted)
                    .is_ok());
    ASSERT_TRUE(store->fetch(key("/a").text).has_value());  // bump stats
    ASSERT_TRUE(store->save_manifest(kManifest).is_ok());
  }  // store destroyed; files must survive (retention marked)

  // A new process: different clock epoch entirely.
  ManualClock second_clock(from_seconds(5.0));
  auto store = make_store(&second_clock);
  auto restored = store->load_manifest(kManifest);
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  EXPECT_EQ(restored.value(), 2u);
  EXPECT_EQ(store->entry_count(), 2u);
  EXPECT_EQ(store->bytes_used(), 10u + 9u);

  auto a = store->fetch(key("/a").text);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->data, "alpha-data");
  EXPECT_EQ(a->meta.content_type, "text/html; charset=utf-8");
  EXPECT_DOUBLE_EQ(a->meta.cost_seconds, 2.5);
  EXPECT_EQ(a->meta.access_count, 2u);  // 1 before save + this fetch
  EXPECT_EQ(a->meta.expire_time, 0);

  auto b = store->fetch(key("/b").text);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->meta.http_status, 201);
  // TTL rebased against the new clock: expires ~600 s from now.
  const double remaining = to_seconds(b->meta.expire_time - second_clock.now());
  EXPECT_NEAR(remaining, 600.0, 1.0);
}

TEST_F(PersistenceTest, ExpiredEntriesNotSaved) {
  ManualClock clock(from_seconds(100.0));
  auto store = make_store(&clock);
  std::vector<EntryMeta> evicted;
  ASSERT_TRUE(store->insert(key("/ttl"), "d", 1.0, 5.0, "t", 200, &evicted)
                  .is_ok());
  clock.advance(from_seconds(10.0));  // now expired
  ASSERT_TRUE(store->save_manifest(kManifest).is_ok());

  auto fresh = make_store(&clock);
  auto restored = fresh->load_manifest(kManifest);
  ASSERT_TRUE(restored.is_ok());
  EXPECT_EQ(restored.value(), 0u);
}

TEST_F(PersistenceTest, MissingDataFileSkipped) {
  ManualClock clock(from_seconds(100.0));
  {
    auto store = make_store(&clock);
    std::vector<EntryMeta> evicted;
    ASSERT_TRUE(store->insert(key("/keep"), "kkk", 1.0, 0, "t", 200, &evicted)
                    .is_ok());
    ASSERT_TRUE(store->insert(key("/lose"), "lll", 1.0, 0, "t", 200, &evicted)
                    .is_ok());
    ASSERT_TRUE(store->save_manifest(kManifest).is_ok());
  }
  // Sabotage: delete one data file.
  std::size_t removed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(kDir)) {
    if (entry.path().filename() == "manifest.txt") continue;
    if (removed == 0) {
      std::filesystem::remove(entry.path());
      ++removed;
    }
  }
  ASSERT_EQ(removed, 1u);

  auto store = make_store(&clock);
  auto restored = store->load_manifest(kManifest);
  ASSERT_TRUE(restored.is_ok());
  EXPECT_EQ(restored.value(), 1u) << "one entry lost, one restored";
}

TEST_F(PersistenceTest, CorruptManifestLinesSkipped) {
  ManualClock clock(from_seconds(100.0));
  {
    auto store = make_store(&clock);
    std::vector<EntryMeta> evicted;
    ASSERT_TRUE(store->insert(key("/ok"), "data", 1.0, 0, "t", 200, &evicted)
                    .is_ok());
    ASSERT_TRUE(store->save_manifest(kManifest).is_ok());
  }
  // Inject garbage between the header line and the entries.
  std::string contents;
  {
    std::ifstream in(kManifest);
    contents.assign(std::istreambuf_iterator<char>(in), {});
  }
  const auto header_end = contents.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  {
    std::ofstream out(kManifest);
    out << contents.substr(0, header_end + 1) << "GARBAGE LINE\n"
        << contents.substr(header_end + 1);
  }
  auto store = make_store(&clock);
  auto restored = store->load_manifest(kManifest);
  ASSERT_TRUE(restored.is_ok());
  EXPECT_EQ(restored.value(), 1u);
}

TEST_F(PersistenceTest, NewerManifestVersionRefused) {
  ManualClock clock(from_seconds(100.0));
  {
    auto store = make_store(&clock);
    std::vector<EntryMeta> evicted;
    ASSERT_TRUE(store->insert(key("/a"), "data", 1.0, 0, "t", 200, &evicted)
                    .is_ok());
    ASSERT_TRUE(store->save_manifest(kManifest).is_ok());
  }
  // Rewrite the header to claim a future format version.
  std::string contents;
  {
    std::ifstream in(kManifest);
    contents.assign(std::istreambuf_iterator<char>(in), {});
  }
  const auto header_end = contents.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  {
    std::ofstream out(kManifest);
    out << "swala-manifest " << (kManifestFormatVersion + 1) << "\n"
        << contents.substr(header_end + 1);
  }
  auto store = make_store(&clock);
  auto restored = store->load_manifest(kManifest);
  ASSERT_FALSE(restored.is_ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(store->entry_count(), 0u);
  // The data files must be left untouched: the newer deployment that wrote
  // this manifest may still want them after a roll-forward.
  std::size_t cache_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(kDir)) {
    if (entry.path().extension() == ".cache") ++cache_files;
  }
  EXPECT_EQ(cache_files, 1u);
}

TEST_F(PersistenceTest, ManifestMissingHeaderRejected) {
  ManualClock clock(from_seconds(100.0));
  {
    auto store = make_store(&clock);
    std::vector<EntryMeta> evicted;
    ASSERT_TRUE(store->insert(key("/a"), "data", 1.0, 0, "t", 200, &evicted)
                    .is_ok());
    ASSERT_TRUE(store->save_manifest(kManifest).is_ok());
  }
  // Strip the header line entirely (e.g. a pre-versioning manifest).
  std::string contents;
  {
    std::ifstream in(kManifest);
    contents.assign(std::istreambuf_iterator<char>(in), {});
  }
  const auto header_end = contents.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  {
    std::ofstream out(kManifest);
    out << contents.substr(header_end + 1);
  }
  auto store = make_store(&clock);
  auto restored = store->load_manifest(kManifest);
  ASSERT_FALSE(restored.is_ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kCorrupt);
}

TEST_F(PersistenceTest, ManifestTruncatedMidLineSkipsTornEntry) {
  ManualClock clock(from_seconds(100.0));
  {
    auto store = make_store(&clock);
    std::vector<EntryMeta> evicted;
    ASSERT_TRUE(store->insert(key("/keep"), "kept-data", 1.0, 0, "t", 200,
                              &evicted)
                    .is_ok());
    ASSERT_TRUE(store
                    ->insert(key("/torn-entry-with-a-long-key"), "torn-data",
                             1.0, 0, "t", 200, &evicted)
                    .is_ok());
    ASSERT_TRUE(store->save_manifest(kManifest).is_ok());
  }
  // Truncate the manifest in the middle of its final line's key. The line
  // still parses, but the half key hashes differently from the one bound
  // into the cache file's header, so the adopt is refused — a torn manifest
  // can never resurrect an entry under the wrong key.
  std::string contents;
  {
    std::ifstream in(kManifest);
    contents.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_EQ(contents.back(), '\n');
  // Entry order in the manifest is unspecified; figure out which key's line
  // comes last (and therefore gets torn).
  const auto last_newline = contents.find_last_of('\n', contents.size() - 2);
  ASSERT_NE(last_newline, std::string::npos);
  const std::string last_line = contents.substr(last_newline + 1);
  const std::string torn_key =
      last_line.find("/torn-entry-with-a-long-key") != std::string::npos
          ? key("/torn-entry-with-a-long-key").text
          : key("/keep").text;
  const std::string surviving_key =
      torn_key == key("/keep").text ? key("/torn-entry-with-a-long-key").text
                                    : key("/keep").text;
  contents.resize(contents.size() - 5);
  {
    std::ofstream out(kManifest, std::ios::trunc);
    out << contents;
  }
  auto store = make_store(&clock);
  auto restored = store->load_manifest(kManifest);
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  EXPECT_EQ(restored.value(), 1u);
  EXPECT_TRUE(store->fetch(surviving_key).has_value());
  EXPECT_FALSE(store->fetch(torn_key).has_value());
}

TEST_F(PersistenceTest, ExpiredEntryFilesScrubbedAfterRestart) {
  // Regression: save_manifest skips expired entries, but with retention on,
  // their data files used to leak on disk forever. The startup scrub must
  // collect them as orphans.
  ManualClock clock(from_seconds(100.0));
  {
    auto store = make_store(&clock);
    std::vector<EntryMeta> evicted;
    ASSERT_TRUE(store->insert(key("/keep"), "kkk", 1.0, 0, "t", 200, &evicted)
                    .is_ok());
    ASSERT_TRUE(store
                    ->insert(key("/expired"), "eee", 1.0, /*ttl=*/5.0, "t", 200,
                             &evicted)
                    .is_ok());
    clock.advance(from_seconds(10.0));  // /expired is now stale
    ASSERT_TRUE(store->save_manifest(kManifest).is_ok());
  }  // retention on: both cache files survive, but only /keep is referenced

  std::size_t cache_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(kDir)) {
    if (entry.path().extension() == ".cache") ++cache_files;
  }
  ASSERT_EQ(cache_files, 2u) << "expired entry's file should still be on disk";

  auto store = make_store(&clock);
  auto restored = store->load_manifest(kManifest);
  ASSERT_TRUE(restored.is_ok());
  EXPECT_EQ(restored.value(), 1u);
  const ScrubReport report = store->scrub_backend();
  EXPECT_EQ(report.adopted, 1u);
  EXPECT_EQ(report.orphans_removed, 1u);

  cache_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(kDir)) {
    if (entry.path().extension() == ".cache") ++cache_files;
  }
  EXPECT_EQ(cache_files, 1u) << "orphaned file must be gone after scrub";
}

TEST_F(PersistenceTest, ZeroLengthCacheFileQuarantined) {
  ManualClock clock(from_seconds(100.0));
  std::string victim_path;
  {
    auto store = make_store(&clock);
    std::vector<EntryMeta> evicted;
    ASSERT_TRUE(store->insert(key("/zero"), "zzz", 1.0, 0, "t", 200, &evicted)
                    .is_ok());
    ASSERT_TRUE(store->save_manifest(kManifest).is_ok());
  }
  for (const auto& entry : std::filesystem::directory_iterator(kDir)) {
    if (entry.path().extension() == ".cache") victim_path = entry.path();
  }
  ASSERT_FALSE(victim_path.empty());
  std::filesystem::resize_file(victim_path, 0);

  auto store = make_store(&clock);
  auto restored = store->load_manifest(kManifest);
  ASSERT_TRUE(restored.is_ok());
  EXPECT_EQ(restored.value(), 0u);
  EXPECT_FALSE(std::filesystem::exists(victim_path));
  EXPECT_TRUE(std::filesystem::exists(victim_path + ".corrupt"));
}

TEST_F(PersistenceTest, MissingManifestIsError) {
  ManualClock clock(0);
  auto store = make_store(&clock);
  EXPECT_FALSE(store->load_manifest("/tmp/swala_no_such_manifest").is_ok());
}

TEST_F(PersistenceTest, NewInsertsDoNotCollideWithAdoptedIds) {
  ManualClock clock(from_seconds(100.0));
  {
    auto store = make_store(&clock);
    std::vector<EntryMeta> evicted;
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(store
                      ->insert(key("/n" + std::to_string(i)), "data", 1.0, 0,
                               "t", 200, &evicted)
                      .is_ok());
    }
    ASSERT_TRUE(store->save_manifest(kManifest).is_ok());
  }
  auto store = make_store(&clock);
  ASSERT_TRUE(store->load_manifest(kManifest).is_ok());
  // New inserts must pick fresh storage ids, not overwrite adopted files.
  std::vector<EntryMeta> evicted;
  ASSERT_TRUE(store->insert(key("/new"), "new-data", 1.0, 0, "t", 200,
                            &evicted)
                  .is_ok());
  for (int i = 0; i < 5; ++i) {
    auto hit = store->fetch(key("/n" + std::to_string(i)).text);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->data, "data");
  }
  EXPECT_EQ(store->fetch(key("/new").text)->data, "new-data");
}

// A manifest lists entries in hash order. A restored store must still evict
// by the saved recency (LRU) and insert age (FIFO), not by line order.
TEST_F(PersistenceTest, RestartKeepsTheEvictionOrder) {
  for (const PolicyKind policy : {PolicyKind::kLru, PolicyKind::kFifo}) {
    SCOPED_TRACE(policy_name(policy));
    std::filesystem::remove_all(kDir);
    const StoreLimits full{5, 0};
    ManualClock clock(from_seconds(100.0));
    std::vector<EntryMeta> evicted;
    const auto put = [&](CacheStore& store, const std::string& text) {
      clock.advance(from_seconds(1.0));
      ASSERT_TRUE(store.insert(CacheKey{text}, "data", 1.0, 0, "t", 200,
                               &evicted)
                      .is_ok());
    };
    std::string victim;
    {
      CacheStore store(full, policy, std::make_unique<DiskBackend>(kDir),
                       &clock, /*owner=*/0);
      for (const char* target : {"/a", "/b", "/c", "/d", "/e"}) {
        put(store, key(target).text);
      }
      // Re-inserting a key both uses it (LRU) and renews its age (FIFO),
      // so the one key not re-inserted is the victim under either policy.
      const auto keys = store.keys();
      victim = keys.back();
      for (const auto& k : keys) {
        if (k != victim) put(store, k);
      }
      ASSERT_TRUE(store.save_manifest(kManifest).is_ok());
    }
    std::ifstream manifest(kManifest);
    std::string line;
    ASSERT_TRUE(std::getline(manifest, line));  // header
    ASSERT_TRUE(std::getline(manifest, line));
    // The key is everything after the line's ten space-separated fields.
    std::size_t at = 0;
    for (int field = 0; field < 10; ++field) at = line.find(' ', at) + 1;
    ASSERT_NE(line.substr(at), victim) << "victim must not lead the manifest";

    CacheStore store(full, policy, std::make_unique<DiskBackend>(kDir),
                     &clock, /*owner=*/0);
    ASSERT_EQ(store.load_manifest(kManifest).value(), 5u);
    evicted.clear();
    put(store, key("/f").text);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0].key, victim);
  }
}

TEST_F(PersistenceTest, ManagerRestoreRepopulatesDirectoryAndBroadcasts) {
  ManualClock clock(from_seconds(100.0));
  ManagerOptions mo;
  mo.limits = {100, 0};
  mo.disk_dir = kDir;
  RuleDecision d;
  d.cacheable = true;
  mo.rules.add_rule("/cgi-bin/*", d);

  {
    CacheManager manager(0, 2, mo, &clock);
    http::Uri uri;
    ASSERT_TRUE(http::parse_uri("/cgi-bin/warm?q=1", &uri));
    auto lookup = manager.lookup(http::Method::kGet, uri, Deadline());
    cgi::CgiOutput out;
    out.success = true;
    out.body = "warm-body";
    manager.complete(http::Method::kGet, uri, lookup.rule, out, 1.5);
    ASSERT_TRUE(manager.save_state(kManifest).is_ok());
  }

  RecordingBus bus;
  CacheManager manager(0, 2, mo, &clock, &bus);
  auto restored = manager.restore_state(kManifest);
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  EXPECT_EQ(restored.value(), 1u);
  EXPECT_TRUE(manager.directory().lookup("GET /cgi-bin/warm?q=1").has_value());
  ASSERT_EQ(bus.inserts.size(), 1u);
  EXPECT_EQ(bus.inserts[0].key, "GET /cgi-bin/warm?q=1");

  // And the restored entry actually serves.
  http::Uri uri;
  ASSERT_TRUE(http::parse_uri("/cgi-bin/warm?q=1", &uri));
  auto hit = manager.lookup(http::Method::kGet, uri, Deadline());
  ASSERT_EQ(hit.outcome, LookupOutcome::kHit);
  EXPECT_EQ(hit.result.data, "warm-body");
}

}  // namespace
}  // namespace swala::core
