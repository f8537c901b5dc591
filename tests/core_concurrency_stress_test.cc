// Concurrency stress harness for the store↔directory commit protocol.
//
// The seed code published store and directory changes as two independent
// steps, so concurrent complete/invalidate/purge churn could interleave
// between them and leave the directory self-table out of step with the
// store (the ClusterSoakTest failure: 12 directory entries vs 11 stored).
// These tests drive exactly that churn with seeded RNG threads and assert
// the mirror invariant after every phase, plus deterministic regressions
// for the eviction-victim version race and the injected-desync detector.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "core/consistency.h"
#include "core/manager.h"
#include "core/storage.h"
#include "recording_bus.h"

namespace swala::core {
namespace {

http::Uri uri_of(const std::string& target) {
  http::Uri uri;
  EXPECT_TRUE(http::parse_uri(target, &uri));
  return uri;
}

cgi::CgiOutput ok_output(std::size_t bytes) {
  cgi::CgiOutput out;
  out.success = true;
  out.http_status = 200;
  out.body = std::string(bytes, 'z');
  return out;
}

ManagerOptions churn_options(std::uint64_t max_entries) {
  ManagerOptions mo;
  mo.limits = {max_entries, 0};  // small: constant eviction
  RuleDecision ttl_rule;
  ttl_rule.cacheable = true;
  ttl_rule.ttl_seconds = 0.05;  // expires mid-run: purge + retire paths fire
  mo.rules.add_rule("/cgi-bin/ttl/*", ttl_rule);
  RuleDecision plain;
  plain.cacheable = true;
  mo.rules.add_rule("/cgi-bin/*", plain);
  return mo;
}

/// One churn phase: `threads` seeded workers hammer a small key space with
/// lookup/complete, exact and glob invalidations, and purge ticks.
void run_churn_phase(CacheManager& manager, int threads, int ops,
                     std::uint64_t phase_seed) {
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&manager, ops, phase_seed, t] {
      Rng rng(phase_seed * 977 + static_cast<std::uint64_t>(t));
      for (int op = 0; op < ops; ++op) {
        const int dice = static_cast<int>(rng.uniform_int(0, 99));
        const std::string k = std::to_string(rng.uniform_int(0, 40));
        if (dice < 80) {
          const bool ttl = dice < 10;
          const auto uri = uri_of(std::string("/cgi-bin/") +
                                  (ttl ? "ttl/" : "") + "q?k=" + k);
          auto lookup = manager.lookup(http::Method::kGet, uri, Deadline());
          if (lookup.outcome == LookupOutcome::kMissMustExecute) {
            manager.complete(http::Method::kGet, uri, lookup.rule,
                             ok_output(32 + static_cast<std::size_t>(
                                                rng.uniform_int(0, 128))),
                             1.0);
          }
        } else if (dice < 90) {
          manager.invalidate("GET /cgi-bin/q?k=" + k);
        } else if (dice < 95) {
          manager.invalidate("GET /cgi-bin/*k=" + k + "*");
        } else {
          manager.purge_expired();
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
}

// The regression for the seed soak-test race: insert (complete) racing
// invalidate/purge on overlapping keys. Under the two-step seed publication
// an invalidation could erase store+directory between a complete's store
// insert and its directory insert, leaving a stale directory entry. The
// mirror must hold after every phase, on every seed.
TEST(CommitProtocolStress, MixedChurnKeepsMirrorAfterEveryPhase) {
  CacheManager manager(0, 1, churn_options(16), RealClock::instance());
  for (std::uint64_t phase = 0; phase < 3; ++phase) {
    run_churn_phase(manager, /*threads=*/4, /*ops=*/400, /*phase_seed=*/phase);
    const auto report = manager.debug_check_consistency();
    EXPECT_TRUE(report.consistent())
        << "phase " << phase << ": " << report.to_string();
    EXPECT_EQ(manager.directory().table_size(0), manager.store().entry_count())
        << "phase " << phase;
    EXPECT_LE(manager.store().entry_count(), 16u) << "phase " << phase;
  }
  EXPECT_GT(manager.stats().inserts, 0u);
  EXPECT_GT(manager.stats().invalidations, 0u);
  EXPECT_GT(manager.commit_sequence(), 0u);
}

// Same churn against a clustered manager (broadcasts enqueued under the
// commit mutex through a recording bus): the mirror invariant must be
// unaffected by the bus, and every broadcast erase must carry the version
// of an entry that was actually committed.
TEST(CommitProtocolStress, EvictionChurnKeepsMirrorWithBus) {
  RecordingBus bus;
  CacheManager manager(0, 2, churn_options(8), RealClock::instance(), &bus);
  for (std::uint64_t phase = 0; phase < 2; ++phase) {
    run_churn_phase(manager, /*threads=*/4, /*ops=*/300,
                    /*phase_seed=*/100 + phase);
    const auto report = manager.debug_check_consistency();
    EXPECT_TRUE(report.consistent())
        << "phase " << phase << ": " << report.to_string();
  }
  EXPECT_GT(manager.stats().evictions_broadcast, 0u);
  EXPECT_EQ(bus.inserts.size(), manager.stats().inserts);
}

// ManagerStats is both the live counters and the snapshot stats() copies:
// a reader looping stats() while request threads run lookup/await/complete
// must see every field move forward only, and the final copy must equal
// the work the threads did, outcome by outcome.
TEST(StatsSnapshotStress, SnapshotsWhileRequestsRunAddUp) {
  CacheManager manager(0, 1, churn_options(1000), RealClock::instance());
  constexpr int kThreads = 4;
  constexpr int kOps = 1500;
  std::atomic<std::uint64_t> hits{0}, leaders{0}, coalesced{0};
  std::atomic<bool> done{false};
  std::uint64_t snapshots = 0;
  std::thread reader([&] {
    ManagerStats last;
    while (!done.load()) {
      const ManagerStats s = manager.stats();
      EXPECT_GE(s.lookups, last.lookups);
      EXPECT_GE(s.local_hits, last.local_hits);
      EXPECT_GE(s.misses, last.misses);
      EXPECT_GE(s.inserts, last.inserts);
      last = s;
      ++snapshots;
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(4242 + static_cast<std::uint64_t>(t));
      for (int op = 0; op < kOps; ++op) {
        const auto uri = uri_of("/cgi-bin/q?k=" +
                                std::to_string(rng.uniform_int(0, 63)));
        auto lookup = manager.lookup(http::Method::kGet, uri, Deadline());
        if (lookup.outcome == LookupOutcome::kMissMustExecute) {
          leaders.fetch_add(1);
          manager.complete(http::Method::kGet, uri, lookup.rule,
                           ok_output(64), 1.0);
        } else if (lookup.outcome == LookupOutcome::kPending) {
          lookup = manager.await(std::move(lookup), Deadline());
          ASSERT_EQ(lookup.outcome, LookupOutcome::kHit);
          ASSERT_TRUE(lookup.coalesced);
          coalesced.fetch_add(1);
        } else {
          ASSERT_EQ(lookup.outcome, LookupOutcome::kHit);
          hits.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  done.store(true);
  reader.join();

  const ManagerStats s = manager.stats();
  EXPECT_GT(snapshots, 0u);
  EXPECT_EQ(s.lookups, static_cast<std::uint64_t>(kThreads * kOps));
  EXPECT_EQ(s.local_hits, hits.load());
  EXPECT_EQ(s.misses, leaders.load() + coalesced.load());
  EXPECT_EQ(s.coalesced_misses, coalesced.load());
  EXPECT_EQ(s.inserts, leaders.load());
  EXPECT_EQ(s.hits() + s.misses, s.lookups);
  EXPECT_EQ(s.remote_hits + s.uncacheable + s.failed_fast, 0u);
}

// Deterministic regression for the eviction-victim version race: a victim's
// erase used to be broadcast with a version read outside the commit
// section, and per-key versions restarted at 1 after an erase, so a stale
// erase could kill a re-inserted entry in peer directories. Versions must
// now be monotonic across erase→re-insert, and a peer applying the stale
// erase after the newer insert must keep the entry.
TEST(EvictionVersionRegression, ReinsertSurvivesStaleEraseBroadcast) {
  RecordingBus bus;
  ManagerOptions mo = churn_options(/*max_entries=*/1);  // every insert evicts
  CacheManager owner(0, 2, mo, RealClock::instance(), &bus);

  const auto key_a = uri_of("/cgi-bin/q?k=a");
  const auto key_b = uri_of("/cgi-bin/q?k=b");
  auto rule = owner.lookup(http::Method::kGet, key_a, Deadline()).rule;

  owner.complete(http::Method::kGet, key_a, rule, ok_output(8), 1.0);
  owner.complete(http::Method::kGet, key_b, rule, ok_output(8), 1.0);  // evicts a
  owner.complete(http::Method::kGet, key_a, rule, ok_output(8), 1.0);  // evicts b, re-inserts a

  ASSERT_EQ(bus.inserts.size(), 3u);
  ASSERT_EQ(bus.erases.size(), 2u);
  ASSERT_EQ(bus.erases[0].key, "GET /cgi-bin/q?k=a");
  const std::uint64_t stale_version = bus.erases[0].version;
  const EntryMeta& reinsert = bus.inserts[2];
  ASSERT_EQ(reinsert.key, "GET /cgi-bin/q?k=a");

  // The store-wide monotonic counter is the fix's core: the re-insert must
  // outrank the eviction it follows (the seed gave both version 1).
  EXPECT_GT(reinsert.version, stale_version);

  // A peer that sees the newer insert and then the stale erase (delayed or
  // replayed delivery) must keep the entry.
  CacheManager peer(1, 2, churn_options(16), RealClock::instance());
  peer.on_peer_insert(reinsert);
  peer.on_peer_erase(0, reinsert.key, stale_version);
  EXPECT_TRUE(peer.directory().lookup_at(0, reinsert.key).has_value())
      << "stale erase (v" << stale_version << ") killed newer insert (v"
      << reinsert.version << ")";
}

// The checker itself: a desync injected behind the manager's back must be
// reported, in both directions, and a healthy composition must be clean.
TEST(DebugConsistencyCheck, CatchesInjectedDesync) {
  ManualClock clock(from_seconds(10.0));
  CacheStore store({16, 0}, PolicyKind::kLru,
                   std::make_unique<MemoryBackend>(), &clock, /*owner=*/0);
  CacheDirectory directory(/*self=*/0, /*num_nodes=*/2);
  directory.set_clock(&clock);

  EXPECT_TRUE(check_store_directory_consistency(store, directory).consistent());

  // Store-only entry: missing from the directory.
  std::vector<EntryMeta> evicted;
  auto meta = store.insert(CacheKey::make("GET", "/cgi-bin/only-store"),
                           "data", 1.0, 0, "text/html", 200, &evicted);
  ASSERT_TRUE(meta.is_ok());
  auto report = check_store_directory_consistency(store, directory);
  EXPECT_FALSE(report.consistent());
  ASSERT_EQ(report.missing_in_directory.size(), 1u);
  EXPECT_EQ(report.missing_in_directory[0], "GET /cgi-bin/only-store");
  EXPECT_TRUE(report.stale_in_directory.empty());

  // Mirror it, then add a directory-only entry: stale.
  directory.apply_insert(meta.value());
  EXPECT_TRUE(check_store_directory_consistency(store, directory).consistent());
  EntryMeta ghost = meta.value();
  ghost.key = "GET /cgi-bin/only-directory";
  directory.apply_insert(ghost);
  report = check_store_directory_consistency(store, directory);
  EXPECT_FALSE(report.consistent());
  ASSERT_EQ(report.stale_in_directory.size(), 1u);
  EXPECT_EQ(report.stale_in_directory[0], "GET /cgi-bin/only-directory");
  EXPECT_NE(report.to_string().find("stale_in_directory"), std::string::npos);
}

// Manager-level detector: clean after real traffic, loud after an injected
// desync (the same probe the admin endpoint runs).
TEST(DebugConsistencyCheck, ManagerDetectsInjectedDesync) {
  CacheManager manager(0, 1, churn_options(16), RealClock::instance());
  const auto uri = uri_of("/cgi-bin/q?k=1");
  auto lookup = manager.lookup(http::Method::kGet, uri, Deadline());
  manager.complete(http::Method::kGet, uri, lookup.rule, ok_output(8), 1.0);
  EXPECT_TRUE(manager.debug_check_consistency().consistent());

  const_cast<CacheStore&>(manager.store()).erase("GET /cgi-bin/q?k=1");
  const auto report = manager.debug_check_consistency();
  EXPECT_FALSE(report.consistent());
  EXPECT_EQ(report.stale_in_directory.size(), 1u);
}

// ---- pin/refcount: get-while-evict ----

/// A filesystem whose open() of cache files can be made to park the caller.
/// The reader thread announces it is inside open(); the test then erases the
/// entry while the reader holds its pin, and only afterwards lets the open
/// proceed — a deterministic version of the fetch-vs-evict race.
class BlockingFsOps final : public FsOps {
 public:
  int open(const char* path, int flags, int mode) override {
    if (armed_.load(std::memory_order_acquire) &&
        std::string_view(path).find(".cache") != std::string_view::npos) {
      std::unique_lock<std::mutex> lock(mutex_);
      in_open_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    }
    return FsOps::real()->open(path, flags, mode);
  }

  void arm() { armed_.store(true, std::memory_order_release); }

  void wait_until_blocked() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return in_open_; });
  }

  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::atomic<bool> armed_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool in_open_ = false;    // guarded by mutex_
  bool released_ = false;   // guarded by mutex_
};

// Eviction/erase must never unlink a file a concurrent fetch is reading:
// the reader's pin keeps the storage alive, the erase only dooms it, and
// the unlink happens when the last pin drops. The seed code did the read
// under the store mutex, which serialized instead of racing — with the
// mutex now metadata-only, this is the race that pins exist to close.
TEST(PinnedReadRace, EraseWhileReaderPinnedKeepsFileUntilReaderDone) {
  const std::string dir = "/tmp/swala_pin_race_test";
  std::filesystem::remove_all(dir);
  BlockingFsOps fs;
  auto backend = std::make_unique<DiskBackend>(dir, &fs);
  DiskBackend* disk = backend.get();
  ManualClock clock(from_seconds(1.0));
  StoreLimits limits;
  limits.max_entries = 16;
  limits.hot_bytes = 0;  // force every fetch down the pinned-disk path
  CacheStore store(limits, PolicyKind::kLru, std::move(backend), &clock,
                   /*owner=*/0);

  std::vector<EntryMeta> evicted;
  const std::string payload(4096, 'p');
  auto meta = store.insert(CacheKey::make("GET", "/cgi-bin/pinned"), payload,
                           1.0, 0, "text/html", 200, &evicted);
  ASSERT_TRUE(meta.is_ok()) << meta.status().to_string();
  const std::string path = disk->path_for(1);  // first put gets id 1
  ASSERT_EQ(::access(path.c_str(), F_OK), 0) << path;

  fs.arm();
  std::optional<CachedResult> read;
  std::thread reader([&] { read = store.fetch("GET /cgi-bin/pinned"); });
  fs.wait_until_blocked();  // reader holds its pin, parked inside open()

  // Erase while the reader is mid-read: the entry leaves the store...
  ASSERT_TRUE(store.erase("GET /cgi-bin/pinned").has_value());
  EXPECT_FALSE(store.contains("GET /cgi-bin/pinned"));
  EXPECT_EQ(store.stats().pinned_entries, 1u);
  // ...but the pinned file must survive until the reader lets go.
  EXPECT_EQ(::access(path.c_str(), F_OK), 0)
      << "erase unlinked a file a reader was still fetching";

  fs.release();
  reader.join();
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->data, payload);
  // Last pin dropped inside the reader: the doomed storage is gone now.
  EXPECT_NE(::access(path.c_str(), F_OK), 0)
      << "doomed storage leaked after the last pin dropped";
  EXPECT_EQ(store.stats().pinned_entries, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace swala::core
