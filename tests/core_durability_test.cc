// Durability tests: CRC-32C vectors, the checksummed cache-file format,
// atomic manifest replacement, the FaultingFsOps injection seam (EIO,
// ENOSPC, short writes, crash-at-op), startup scrub after a simulated
// crash, and the manager-level degradation circuit breaker and checkpoint
// cadence. Ends with the full crash → restart → scrub acceptance scenario.
#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <fstream>

#include "common/clock.h"
#include "common/hash.h"
#include "core/fs_ops.h"
#include "core/manager.h"
#include "core/volume.h"

namespace swala::core {
namespace {

const std::string kDir = "/tmp/swala_durability_test";
const std::string kManifest = kDir + "/manifest.txt";

std::string read_whole_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::size_t count_files_with_extension(const std::string& dir,
                                       const std::string& ext) {
  std::size_t n = 0;
  if (!std::filesystem::exists(dir)) return 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ext) ++n;
  }
  return n;
}

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override { std::filesystem::remove_all(kDir); }
};

// ---- CRC-32C ----

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 §B.4 / the standard Castagnoli check value.
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c(""), 0u);
  EXPECT_EQ(crc32c(std::string(32, '\0')), 0x8A9136AAu);
}

TEST(Crc32cTest, ContinuationMatchesOneShot) {
  const std::string data = "cooperative caching of dynamic content";
  for (std::size_t split = 0; split <= data.size(); split += 7) {
    const auto head = std::string_view(data).substr(0, split);
    const auto tail = std::string_view(data).substr(split);
    EXPECT_EQ(crc32c_continue(crc32c(head), tail), crc32c(data));
  }
}

// ---- cache-file format ----

TEST(CacheFileFormatTest, RoundtripVerifies) {
  const std::string payload = "dynamic cgi result bytes";
  const std::uint64_t key_hash = fnv1a64("GET /cgi-bin/x");
  const std::string file = encode_cache_header(key_hash, payload) + payload;
  ASSERT_EQ(file.size(), kCacheHeaderSize + payload.size());

  auto verified = verify_cache_file(file, key_hash);
  ASSERT_TRUE(verified.is_ok()) << verified.status().to_string();
  EXPECT_EQ(verified.value(), payload);
  // Hash 0 = caller does not know the key; the key check is skipped.
  EXPECT_TRUE(verify_cache_file(file, 0).is_ok());
}

TEST(CacheFileFormatTest, DetectsEveryCorruptionMode) {
  const std::string payload = "payload-payload-payload";
  const std::uint64_t key_hash = fnv1a64("GET /cgi-bin/y");
  const std::string good = encode_cache_header(key_hash, payload) + payload;

  // Wrong key: a mis-adopted or swapped file must not verify.
  EXPECT_EQ(verify_cache_file(good, key_hash + 1).status().code(),
            StatusCode::kCorrupt);

  // Single flipped payload bit.
  std::string flipped = good;
  flipped[kCacheHeaderSize + 3] ^= 0x01;
  EXPECT_EQ(verify_cache_file(flipped, key_hash).status().code(),
            StatusCode::kCorrupt);

  // Flipped header byte (caught by the header CRC).
  std::string bad_header = good;
  bad_header[9] ^= 0x40;
  EXPECT_EQ(verify_cache_file(bad_header, key_hash).status().code(),
            StatusCode::kCorrupt);

  // Truncations, including an empty file and a torn header.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{7}, kCacheHeaderSize - 1,
        good.size() - 1}) {
    EXPECT_EQ(
        verify_cache_file(std::string_view(good).substr(0, len), key_hash)
            .status()
            .code(),
        StatusCode::kCorrupt)
        << "length " << len;
  }

  // Wrong magic and unsupported version (header CRC recomputed so only the
  // field under test differs).
  std::string wrong_magic = good;
  wrong_magic[0] ^= 0xFF;
  EXPECT_FALSE(verify_cache_file(wrong_magic, key_hash).is_ok());
}

// ---- atomic file replacement under faults ----

TEST_F(DurabilityTest, WriteFileAtomicKeepsOldContentOnFailure) {
  FaultingFsOps fs;
  ASSERT_TRUE(make_dirs(&fs, kDir).is_ok());
  const std::string path = kDir + "/config.txt";
  ASSERT_TRUE(write_file_atomic(&fs, path, "old-content").is_ok());

  fs.add_rule({FsOp::kWrite, "", FsFaultKind::kError, EIO});
  const auto st = write_file_atomic(&fs, path, "new-content");
  EXPECT_FALSE(st.is_ok());
  EXPECT_GE(fs.faults_injected(), 1u);

  // A reader must still see the previous content, and no temp debris.
  EXPECT_EQ(read_whole_file(path), "old-content");
  EXPECT_EQ(count_files_with_extension(kDir, ".tmp"), 0u);
}

// ---- recursive directory creation ----

TEST_F(DurabilityTest, DiskBackendCreatesNestedDirectories) {
  const std::string nested = kDir + "/a/b/c";
  DiskBackend backend(nested);
  ASSERT_TRUE(backend.init_status().is_ok())
      << backend.init_status().to_string();
  auto id = backend.put("nested-data");
  ASSERT_TRUE(id.is_ok()) << id.status().to_string();
  auto back = backend.get(id.value());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), "nested-data");
}

TEST_F(DurabilityTest, DirectoryCreationFailureSurfacesEverywhere) {
  FaultingFsOps fs;
  fs.add_rule({FsOp::kMkdir, "", FsFaultKind::kError, EACCES});
  DiskBackend backend(kDir + "/denied", &fs);
  EXPECT_FALSE(backend.init_status().is_ok());
  // Puts fail fast with the construction error, not a per-file surprise.
  EXPECT_FALSE(backend.put("x").is_ok());

  // And the manager exposes it so from_config can refuse to boot.
  FaultingFsOps manager_fs;
  manager_fs.add_rule({FsOp::kMkdir, "", FsFaultKind::kError, EACCES});
  ManualClock clock(from_seconds(1.0));
  ManagerOptions mo;
  mo.limits = {100, 0};
  mo.disk_dir = kDir + "/denied2";
  mo.fs_ops = &manager_fs;
  CacheManager manager(0, 1, mo, &clock);
  EXPECT_FALSE(manager.storage_status().is_ok());
}

// ---- put failure modes ----

TEST_F(DurabilityTest, PutFailureLeavesNoFileBehind) {
  for (const int error_no : {EIO, ENOSPC}) {
    std::filesystem::remove_all(kDir);
    FaultingFsOps fs;
    DiskBackend backend(kDir, &fs);
    ASSERT_TRUE(backend.init_status().is_ok());
    fs.add_rule({FsOp::kWrite, "", FsFaultKind::kError, error_no});

    auto id = backend.put("doomed-data", fnv1a64("GET /k"));
    ASSERT_FALSE(id.is_ok());
    EXPECT_EQ(id.status().code(), StatusCode::kIoError);
    EXPECT_EQ(backend.bytes_stored(), 0u);
    // The failed write's temp file is unlinked; nothing reaches a live name.
    EXPECT_EQ(count_files_with_extension(kDir, ".tmp"), 0u);
    EXPECT_EQ(count_files_with_extension(kDir, ".cache"), 0u);
  }
}

TEST_F(DurabilityTest, ShortWritesAreRetriedToCompletion) {
  FaultingFsOps fs;
  DiskBackend backend(kDir, &fs);
  ASSERT_TRUE(backend.init_status().is_ok());
  // Every write delivers only half its bytes; the put loop must keep going.
  FsFaultRule rule;
  rule.op = FsOp::kWrite;
  rule.kind = FsFaultKind::kShortWrite;
  rule.count = 3;
  fs.add_rule(rule);

  const std::string data(1000, 'z');
  auto id = backend.put(data, fnv1a64("GET /short"));
  ASSERT_TRUE(id.is_ok()) << id.status().to_string();
  EXPECT_GE(fs.faults_injected(), 3u);
  auto back = backend.get(id.value());
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value(), data);
}

// ---- read-side integrity ----

TEST_F(DurabilityTest, GetDetectsBitFlipOnDisk) {
  DiskBackend backend(kDir);
  auto id = backend.put("precious-bytes", fnv1a64("GET /flip"));
  ASSERT_TRUE(id.is_ok());

  const std::string path = backend.path_for(id.value());
  std::string contents = read_whole_file(path);
  contents[kCacheHeaderSize + 2] ^= 0x10;  // silent media corruption
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
  }

  auto back = backend.get(id.value());
  ASSERT_FALSE(back.is_ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorrupt);
}

TEST_F(DurabilityTest, AdoptRejectsCorruptPayloadOfCorrectSize) {
  const std::uint64_t key_hash = fnv1a64("GET /adopt");
  const std::string data = "adoptable-content";
  StorageId id;
  std::string path;
  {
    DiskBackend backend(kDir);
    auto put = backend.put(data, key_hash);
    ASSERT_TRUE(put.is_ok());
    id = put.value();
    path = backend.path_for(id);
    backend.set_retain_on_destruction(true);
  }
  // Flip one payload byte in place: the size check cannot see this — only
  // the CRC can.
  std::string contents = read_whole_file(path);
  ASSERT_EQ(contents.size(), kCacheHeaderSize + data.size());
  contents[kCacheHeaderSize] ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
  }

  DiskBackend backend(kDir);
  const auto st = backend.adopt(id, data.size(), key_hash);
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kCorrupt);
  // Quarantined, not serving and not deleted (postmortem evidence).
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
  EXPECT_EQ(backend.scrub().quarantined, 1u);
}

// ---- crash simulation ----

TEST_F(DurabilityTest, CrashDuringPutThenRestartScrubsDebris) {
  FaultingFsOps fs;
  const std::uint64_t key_hash = fnv1a64("GET /survivor");
  StorageId survivor_id;
  {
    DiskBackend backend(kDir, &fs);
    auto put = backend.put("survivor-bytes", key_hash);
    ASSERT_TRUE(put.is_ok());
    survivor_id = put.value();

    // The process "dies" during the payload write of the next put: the
    // header made it to the temp file, the payload only partially, and every
    // later filesystem operation fails (including the cleanup unlink — a
    // dead process cleans nothing).
    FsFaultRule crash;
    crash.op = FsOp::kWrite;
    crash.kind = FsFaultKind::kCrash;
    crash.skip = 1;
    fs.add_rule(crash);
    auto torn = backend.put("torn-bytes-never-committed", fnv1a64("GET /torn"));
    ASSERT_FALSE(torn.is_ok());
    EXPECT_TRUE(fs.crashed());
    backend.set_retain_on_destruction(true);
  }
  // The torn temp file is still on disk, exactly as after SIGKILL.
  ASSERT_EQ(count_files_with_extension(kDir, ".tmp"), 1u);

  // Restart: new backend over the same directory.
  fs.reset_crash();
  fs.clear();
  DiskBackend backend(kDir, &fs);
  ASSERT_TRUE(backend.adopt(survivor_id, 14, key_hash).is_ok());
  const ScrubReport report = backend.scrub();
  EXPECT_EQ(report.adopted, 1u);
  EXPECT_EQ(report.temps_removed, 1u);
  EXPECT_EQ(report.orphans_removed, 0u);
  EXPECT_EQ(report.quarantined, 0u);

  EXPECT_EQ(count_files_with_extension(kDir, ".tmp"), 0u);
  auto back = backend.get(survivor_id);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), "survivor-bytes");
}

// ---- manager-level degradation and checkpointing ----

class ManagerDurabilityTest : public DurabilityTest {
 protected:
  ManagerOptions base_options() {
    ManagerOptions mo;
    mo.limits = {100, 0};
    mo.disk_dir = kDir;
    RuleDecision d;
    d.cacheable = true;
    d.ttl_seconds = 600.0;
    mo.rules.add_rule("/cgi-bin/*", d);
    return mo;
  }

  /// Runs one miss-then-complete cycle for `target`.
  void run_request(CacheManager& manager, const std::string& target,
                   const std::string& body) {
    http::Uri uri;
    ASSERT_TRUE(http::parse_uri(target, &uri));
    auto lookup = manager.lookup(http::Method::kGet, uri, Deadline());
    ASSERT_NE(lookup.outcome, LookupOutcome::kUncacheable) << target;
    if (lookup.outcome == LookupOutcome::kHit) return;
    cgi::CgiOutput out;
    out.success = true;
    out.body = body;
    out.content_type = "text/html";
    manager.complete(http::Method::kGet, uri, lookup.rule, out, 1.0);
  }

  LookupResult do_lookup(CacheManager& manager, const std::string& target) {
    http::Uri uri;
    EXPECT_TRUE(http::parse_uri(target, &uri));
    return manager.lookup(http::Method::kGet, uri, Deadline());
  }
};

TEST_F(ManagerDurabilityTest, DegradesAfterConsecutiveDiskFailuresAndProbesBack) {
  FaultingFsOps fs;
  ManagerOptions mo = base_options();
  mo.fs_ops = &fs;
  mo.disk_failure_threshold = 2;
  mo.degraded_probe_every = 3;
  ManualClock clock(from_seconds(10.0));
  CacheManager manager(0, 1, mo, &clock);

  fs.add_rule({FsOp::kWrite, "", FsFaultKind::kError, EIO});
  run_request(manager, "/cgi-bin/f1", "b1");  // fails: disk_errors 1
  EXPECT_FALSE(manager.store_degraded());
  run_request(manager, "/cgi-bin/f2", "b2");  // fails: threshold reached
  EXPECT_TRUE(manager.store_degraded());

  // First degraded attempt is the probe (still failing), the next two are
  // skipped without touching the disk at all.
  run_request(manager, "/cgi-bin/f3", "b3");
  run_request(manager, "/cgi-bin/f4", "b4");
  run_request(manager, "/cgi-bin/f5", "b5");
  auto stats = manager.stats();
  EXPECT_EQ(stats.disk_errors, 3u);
  EXPECT_EQ(stats.degraded_skips, 2u);
  EXPECT_EQ(stats.store_degraded, 1u);
  EXPECT_EQ(stats.inserts, 0u);

  // The disk comes back; the next probe succeeds and caching resumes.
  fs.clear();
  run_request(manager, "/cgi-bin/f6", "b6");  // probe: succeeds
  EXPECT_FALSE(manager.store_degraded());
  run_request(manager, "/cgi-bin/f7", "b7");
  EXPECT_EQ(do_lookup(manager, "/cgi-bin/f7").outcome, LookupOutcome::kHit);
  stats = manager.stats();
  EXPECT_EQ(stats.store_degraded, 0u);
  EXPECT_GE(stats.inserts, 2u);
}

TEST_F(ManagerDurabilityTest, CheckpointsRideThePurgeTick) {
  ManagerOptions mo = base_options();
  mo.state_file = kManifest;
  mo.checkpoint_interval_seconds = 10.0;
  ManualClock clock(from_seconds(100.0));
  CacheManager manager(0, 1, mo, &clock);

  // Checkpointing is gated until the warm restore has run (the purge daemon
  // must never overwrite the manifest the restore is about to read).
  manager.purge_expired();
  EXPECT_EQ(manager.stats().checkpoints, 0u);
  auto first_boot = manager.restore_state(kManifest);
  EXPECT_EQ(first_boot.status().code(), StatusCode::kNotFound);

  run_request(manager, "/cgi-bin/ckpt", "checkpointed-body");
  manager.purge_expired();  // first post-restore tick always checkpoints
  EXPECT_EQ(manager.stats().checkpoints, 1u);
  EXPECT_TRUE(std::filesystem::exists(kManifest));

  manager.purge_expired();  // interval not elapsed: no new checkpoint
  EXPECT_EQ(manager.stats().checkpoints, 1u);

  clock.advance(from_seconds(11.0));
  manager.purge_expired();
  EXPECT_EQ(manager.stats().checkpoints, 2u);

  // The checkpointed manifest restores in a fresh process without any
  // explicit save_state on the first manager.
  ManualClock clock2(from_seconds(7.0));
  CacheManager restored(0, 1, mo, &clock2);
  auto count = restored.restore_state(kManifest);
  ASSERT_TRUE(count.is_ok()) << count.status().to_string();
  EXPECT_EQ(count.value(), 1u);
  EXPECT_EQ(do_lookup(restored, "/cgi-bin/ckpt").outcome, LookupOutcome::kHit);
}

// ---- the acceptance scenario from the issue ----
//
// Crash injected mid-put, node restarts over the same directory, one
// manifest-referenced file torn in place. After restore + scrub: the torn
// entry is a clean miss, every other entry serves CRC-verified bytes with a
// rebased TTL, and no temp or orphan files remain.
TEST_F(ManagerDurabilityTest, CrashRestartScrubAcceptance) {
  FaultingFsOps fs;
  ManagerOptions mo = base_options();
  mo.fs_ops = &fs;
  ManualClock clock(from_seconds(1000.0));
  {
    CacheManager manager(0, 1, mo, &clock);
    run_request(manager, "/cgi-bin/a", "body-a");
    run_request(manager, "/cgi-bin/b", "body-b");
    run_request(manager, "/cgi-bin/c", "body-c");
    ASSERT_TRUE(manager.save_state(kManifest).is_ok());

    // SIGKILL arrives during /cgi-bin/d's payload write.
    FsFaultRule crash;
    crash.op = FsOp::kWrite;
    crash.kind = FsFaultKind::kCrash;
    crash.skip = 1;
    fs.add_rule(crash);
    run_request(manager, "/cgi-bin/d", "body-d-never-durable");
    EXPECT_TRUE(fs.crashed());
    EXPECT_EQ(manager.stats().disk_errors, 1u);
  }
  ASSERT_EQ(count_files_with_extension(kDir, ".tmp"), 1u);

  // While the node was down, /cgi-bin/c's file (insert order: id 3) was
  // truncated — a torn sector the atomic rename could not have produced.
  const std::string torn_path = kDir + "/swala-3.cache";
  ASSERT_TRUE(std::filesystem::exists(torn_path));
  std::filesystem::resize_file(
      torn_path, std::filesystem::file_size(torn_path) - 3);

  // Restart: fresh manager, fresh clock epoch, same directory.
  fs.reset_crash();
  fs.clear();
  ManualClock restart_clock(from_seconds(50.0));
  CacheManager manager(0, 1, mo, &restart_clock);
  auto restored = manager.restore_state(kManifest);
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  EXPECT_EQ(restored.value(), 2u);

  const ScrubReport scrub = manager.last_scrub();
  EXPECT_EQ(scrub.adopted, 2u);
  EXPECT_EQ(scrub.quarantined, 1u);
  EXPECT_EQ(scrub.temps_removed, 1u);
  EXPECT_EQ(scrub.orphans_removed, 0u);

  // Survivors serve their exact bytes; the torn entry is a clean miss.
  auto a = do_lookup(manager, "/cgi-bin/a");
  ASSERT_EQ(a.outcome, LookupOutcome::kHit);
  EXPECT_EQ(a.result.data, "body-a");
  auto b = do_lookup(manager, "/cgi-bin/b");
  ASSERT_EQ(b.outcome, LookupOutcome::kHit);
  EXPECT_EQ(b.result.data, "body-b");
  EXPECT_EQ(do_lookup(manager, "/cgi-bin/c").outcome,
            LookupOutcome::kMissMustExecute);
  EXPECT_EQ(do_lookup(manager, "/cgi-bin/d").outcome,
            LookupOutcome::kMissMustExecute);

  // TTLs were rebased against the restart clock.
  auto meta = manager.directory().lookup("GET /cgi-bin/a");
  ASSERT_TRUE(meta.has_value());
  const double remaining =
      to_seconds(meta->expire_time - restart_clock.now());
  EXPECT_NEAR(remaining, 600.0, 1.0);

  // No debris: two live cache files, the quarantined one renamed aside.
  EXPECT_EQ(count_files_with_extension(kDir, ".tmp"), 0u);
  EXPECT_EQ(count_files_with_extension(kDir, ".cache"), 2u);
  EXPECT_EQ(count_files_with_extension(kDir, ".corrupt"), 1u);
}

// ---- DiskBackend erase-failure accounting ----

TEST_F(DurabilityTest, DiskBackendCountsEraseFailures) {
  FaultingFsOps fs;
  DiskBackend backend(kDir, &fs);
  auto id1 = backend.put("one", fnv1a64("k1"));
  auto id2 = backend.put("two", fnv1a64("k2"));
  ASSERT_TRUE(id1.is_ok());
  ASSERT_TRUE(id2.is_ok());

  fs.add_rule({FsOp::kUnlink, ".cache", FsFaultKind::kError, EIO});
  backend.erase(id1.value());
  StorageCounters c = backend.counters();
  EXPECT_EQ(std::string(c.backend), "files");
  EXPECT_EQ(c.erase_errors, 1u);
  EXPECT_EQ(c.consecutive_erase_failures, 1u);

  // A successful unlink ends the consecutive run; the total stays.
  fs.clear();
  backend.erase(id2.value());
  c = backend.counters();
  EXPECT_EQ(c.erase_errors, 1u);
  EXPECT_EQ(c.consecutive_erase_failures, 0u);
}

TEST_F(ManagerDurabilityTest, EraseFailuresDegradeTheStore) {
  FaultingFsOps fs;
  ManagerOptions mo = base_options();
  mo.fs_ops = &fs;
  mo.disk_failure_threshold = 3;
  ManualClock clock(from_seconds(10.0));
  CacheManager manager(0, 1, mo, &clock);
  run_request(manager, "/cgi-bin/e1", "b1");
  run_request(manager, "/cgi-bin/e2", "b2");
  run_request(manager, "/cgi-bin/e3", "b3");

  // The disk starts failing unlinks: the purge tick's erases leak space,
  // which must trip the same degradation breaker as put failures.
  fs.add_rule({FsOp::kUnlink, ".cache", FsFaultKind::kError, EIO});
  clock.advance(from_seconds(601.0));  // rule TTL is 600s
  manager.purge_expired();
  EXPECT_TRUE(manager.store_degraded());
  EXPECT_EQ(manager.storage_counters().erase_errors, 3u);
}

// ---- volume backend: format, flush, recovery walk ----

VolumeOptions small_volume(std::uint64_t slots = 16) {
  VolumeOptions vo;
  vo.segment_bytes = 64 * 1024;
  vo.volume_bytes = slots * vo.segment_bytes;
  vo.write_buffer_bytes = 8 * 1024;
  vo.flush_interval_ms = 3600 * 1000;  // flush only on buffer-full or sync()
  return vo;
}

TEST_F(DurabilityTest, VolumePutGetRoundtripAndRestartAdopts) {
  FaultingFsOps fs;
  ManualClock clock(0);
  const std::uint64_t h = fnv1a64("GET /cgi-bin/v");
  StorageId id = 0;
  {
    VolumeBackend backend(kDir, small_volume(), &fs, &clock);
    ASSERT_TRUE(backend.init_status().is_ok())
        << backend.init_status().to_string();
    auto put = backend.put("volume-bytes", h);
    ASSERT_TRUE(put.is_ok()) << put.status().to_string();
    id = put.value();
    // Readable straight from the write buffer, before any flush.
    auto pre = backend.get(id);
    ASSERT_TRUE(pre.is_ok());
    EXPECT_EQ(pre.value(), "volume-bytes");
    ASSERT_TRUE(backend.sync().is_ok());
    // And still readable once it lives on disk.
    auto post = backend.get(id);
    ASSERT_TRUE(post.is_ok());
    EXPECT_EQ(post.value(), "volume-bytes");
    backend.set_retain_on_destruction(true);
  }
  VolumeBackend backend(kDir, small_volume(), &fs, &clock);
  ASSERT_TRUE(backend.init_status().is_ok());
  ASSERT_TRUE(backend.adopt(id, 12, h).is_ok());
  const ScrubReport report = backend.scrub();
  EXPECT_EQ(report.adopted, 1u);
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_EQ(report.orphans_removed, 0u);
  auto back = backend.get(id);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), "volume-bytes");
  EXPECT_EQ(backend.counters().index_mismatches, 0u);
}

TEST_F(DurabilityTest, VolumeCrashMidFlushTruncatesTornTailOnly) {
  FaultingFsOps fs;
  ManualClock clock(0);
  std::vector<StorageId> ids;
  {
    VolumeBackend backend(kDir, small_volume(), &fs, &clock);
    for (int i = 0; i < 4; ++i) {
      auto put = backend.put("payload-" + std::to_string(i),
                             fnv1a64("k" + std::to_string(i)));
      ASSERT_TRUE(put.is_ok());
      ids.push_back(put.value());
    }
    ASSERT_TRUE(backend.sync().is_ok());  // the four records are durable

    // The process dies halfway through the next flush group's pwrite: the
    // oversized record forces an immediate flush, and only a prefix lands.
    FsFaultRule crash;
    crash.op = FsOp::kWrite;
    crash.kind = FsFaultKind::kCrash;
    fs.add_rule(crash);
    auto torn = backend.put(std::string(9000, 'x'), fnv1a64("torn"));
    ASSERT_FALSE(torn.is_ok());
    EXPECT_TRUE(fs.crashed());
    backend.set_retain_on_destruction(true);
  }
  fs.reset_crash();
  fs.clear();
  VolumeBackend backend(kDir, small_volume(), &fs, &clock);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_TRUE(
        backend.adopt(ids[i], 9, fnv1a64("k" + std::to_string(i))).is_ok())
        << "record " << i;
  }
  const ScrubReport report = backend.scrub();
  EXPECT_EQ(report.adopted, 4u);
  EXPECT_EQ(report.quarantined, 0u);  // nothing valid was quarantined
  EXPECT_EQ(backend.counters().torn_tail_truncated, 1u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    auto back = backend.get(ids[i]);
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(back.value(), "payload-" + std::to_string(i));
  }
}

TEST_F(DurabilityTest, VolumeEnospcDuringPreallocationFailsFast) {
  FaultingFsOps fs;
  fs.add_rule({FsOp::kTruncate, "", FsFaultKind::kError, ENOSPC});
  ManualClock clock(0);
  VolumeBackend backend(kDir, small_volume(), &fs, &clock);
  EXPECT_FALSE(backend.init_status().is_ok());
  EXPECT_FALSE(backend.put("x", 1).is_ok());
}

TEST_F(DurabilityTest, VolumeCorruptRecordSkippedWithResync) {
  FaultingFsOps fs;
  ManualClock clock(0);
  // Fill slot 0 past capacity so it seals (10 × 6048-byte records fit in a
  // 64 KiB segment; the 11th opens slot 1), then corrupt record #2 of the
  // sealed segment in place.
  constexpr std::size_t kPayload = 6000;
  constexpr std::size_t kRecord = kPayload + kVolumeRecordHeaderSize;
  std::vector<StorageId> ids;
  {
    VolumeBackend backend(kDir, small_volume(), &fs, &clock);
    for (int i = 0; i < 11; ++i) {
      auto put = backend.put(std::string(kPayload, 'a' + (i % 26)),
                             fnv1a64("c" + std::to_string(i)));
      ASSERT_TRUE(put.is_ok());
      ids.push_back(put.value());
    }
    ASSERT_TRUE(backend.sync().is_ok());
    backend.set_retain_on_destruction(true);
  }
  {
    // Bit rot in the middle of record index 2's payload (slot 0).
    std::fstream f(kDir + "/volume.swala",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    const std::size_t off =
        kVolumeSegmentHeaderSize + 2 * kRecord + kVolumeRecordHeaderSize + 10;
    f.seekp(static_cast<std::streamoff>(off));
    f.put('\xFF');
  }
  VolumeBackend backend(kDir, small_volume(), &fs, &clock);
  std::size_t adopted = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto st =
        backend.adopt(ids[i], kPayload, fnv1a64("c" + std::to_string(i)));
    if (st.is_ok()) ++adopted;
  }
  // Every record except the rotten one adopts; the walk resynced past it.
  EXPECT_EQ(adopted, 10u);
  const ScrubReport report = backend.scrub();
  EXPECT_EQ(report.adopted, 10u);
  EXPECT_EQ(report.quarantined, 1u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i == 2) continue;
    auto back = backend.get(ids[i]);
    ASSERT_TRUE(back.is_ok()) << "record " << i;
    EXPECT_EQ(back.value(), std::string(kPayload, 'a' + (i % 26)));
  }
}

TEST_F(DurabilityTest, VolumeCompactionReclaimsErasedSpace) {
  FaultingFsOps fs;
  ManualClock clock(0);
  // 3 slots × 64 KiB but a rolling live set of one record: without
  // compaction the 50 × 6048-byte inserts (~295 KiB) could not fit.
  VolumeBackend backend(kDir, small_volume(3), &fs, &clock);
  ASSERT_TRUE(backend.init_status().is_ok());
  StorageId prev = 0;
  StorageId last = 0;
  for (int i = 0; i < 50; ++i) {
    auto put = backend.put(std::string(6000, 'z'),
                           fnv1a64("roll" + std::to_string(i)));
    ASSERT_TRUE(put.is_ok()) << "insert " << i << ": "
                             << put.status().to_string();
    if (prev != 0) backend.erase(prev);
    prev = last = put.value();
  }
  EXPECT_GE(backend.counters().compactions, 1u);
  auto back = backend.get(last);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), std::string(6000, 'z'));
}

TEST_F(DurabilityTest, VolumeCrashMidCompactionLosesNoSyncedRecord) {
  FaultingFsOps fs;
  ManualClock clock(0);
  const std::uint64_t h1 = fnv1a64("keeper");
  StorageId keeper = 0;
  {
    // Slot 0: one keeper plus nine erased records; then keep inserting
    // until compaction relocates the keeper, and crash on the next write.
    VolumeBackend backend(kDir, small_volume(3), &fs, &clock);
    auto put = backend.put(std::string(6000, 'K'), h1);
    ASSERT_TRUE(put.is_ok());
    keeper = put.value();
    std::vector<StorageId> doomed;
    for (int i = 0; i < 9; ++i) {
      auto p = backend.put(std::string(6000, 'd'),
                           fnv1a64("doomed" + std::to_string(i)));
      ASSERT_TRUE(p.is_ok());
      doomed.push_back(p.value());
    }
    ASSERT_TRUE(backend.sync().is_ok());
    for (const StorageId id : doomed) backend.erase(id);
    for (int i = 0; i < 40 && backend.counters().compactions == 0; ++i) {
      auto p = backend.put(std::string(6000, 'f'),
                           fnv1a64("fill" + std::to_string(i)));
      ASSERT_TRUE(p.is_ok());
    }
    ASSERT_GE(backend.counters().compactions, 1u);
    FsFaultRule crash;
    crash.op = FsOp::kWrite;
    crash.kind = FsFaultKind::kCrash;
    fs.add_rule(crash);
    (void)backend.sync();  // tears whatever the compactor left buffered
    backend.set_retain_on_destruction(true);
  }
  fs.reset_crash();
  fs.clear();
  // The keeper was durable before the compaction started; whichever copy
  // the crash left behind (the original at the old seq or the relocated one
  // at the new seq) must adopt and verify.
  VolumeBackend backend(kDir, small_volume(3), &fs, &clock);
  ASSERT_TRUE(backend.adopt(keeper, 6000, h1).is_ok());
  const ScrubReport report = backend.scrub();
  EXPECT_EQ(report.quarantined, 0u);
  auto back = backend.get(keeper);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), std::string(6000, 'K'));
}

TEST_F(DurabilityTest, VolumeSidecarIndexMismatchIsCounted) {
  FaultingFsOps fs;
  ManualClock clock(0);
  std::vector<StorageId> ids;
  {
    VolumeBackend backend(kDir, small_volume(), &fs, &clock);
    for (int i = 0; i < 2; ++i) {
      auto put = backend.put("sidecar-" + std::to_string(i),
                             fnv1a64("s" + std::to_string(i)));
      ASSERT_TRUE(put.is_ok());
      ids.push_back(put.value());
    }
    ASSERT_TRUE(backend.sync().is_ok());
    backend.set_retain_on_destruction(true);
  }
  {
    // The sidecar diverges from the volume (e.g. lost its last update).
    std::ofstream out(kDir + "/volume.idx", std::ios::trunc);
    out << "swala-volindex 1\n" << ids[0] << " 999999 5\n";
  }
  VolumeBackend backend(kDir, small_volume(), &fs, &clock);
  EXPECT_GE(backend.counters().index_mismatches, 1u);
  // The recovery walk is authoritative: both records still adopt and read.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(
        backend.adopt(ids[i], 9, fnv1a64("s" + std::to_string(i))).is_ok());
    auto back = backend.get(ids[i]);
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(back.value(), "sidecar-" + std::to_string(i));
  }
}

// ---- manager-level acceptance in volume mode ----

TEST_F(ManagerDurabilityTest, VolumeCrashRestartScrubAcceptance) {
  FaultingFsOps fs;
  ManagerOptions mo = base_options();
  mo.fs_ops = &fs;
  mo.store = StoreBackendKind::kVolume;
  mo.volume = small_volume();
  ManualClock clock(from_seconds(1000.0));
  {
    CacheManager manager(0, 1, mo, &clock);
    ASSERT_TRUE(manager.storage_status().is_ok());
    run_request(manager, "/cgi-bin/a", "body-a");
    run_request(manager, "/cgi-bin/b", "body-b");
    run_request(manager, "/cgi-bin/c", "body-c");
    // save_state syncs the volume before writing the manifest, so every
    // manifest entry references durable bytes.
    ASSERT_TRUE(manager.save_state(kManifest).is_ok());

    // /cgi-bin/d is accepted into the write buffer, then the process dies
    // before the buffered tail reaches the disk.
    run_request(manager, "/cgi-bin/d", "body-d-never-durable");
    FsFaultRule crash;
    crash.op = FsOp::kWrite;
    crash.kind = FsFaultKind::kCrash;
    fs.add_rule(crash);
  }
  fs.reset_crash();
  fs.clear();
  ManualClock restart_clock(from_seconds(50.0));
  CacheManager manager(0, 1, mo, &restart_clock);
  auto restored = manager.restore_state(kManifest);
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  EXPECT_EQ(restored.value(), 3u);

  const ScrubReport scrub = manager.last_scrub();
  EXPECT_EQ(scrub.adopted, 3u);
  EXPECT_EQ(scrub.quarantined, 0u);
  EXPECT_EQ(std::string(manager.storage_counters().backend), "volume");

  for (const auto& [target, body] :
       {std::pair<std::string, std::string>{"/cgi-bin/a", "body-a"},
        {"/cgi-bin/b", "body-b"},
        {"/cgi-bin/c", "body-c"}}) {
    auto hit = do_lookup(manager, target);
    ASSERT_EQ(hit.outcome, LookupOutcome::kHit) << target;
    EXPECT_EQ(hit.result.data, body);
  }
  EXPECT_EQ(do_lookup(manager, "/cgi-bin/d").outcome,
            LookupOutcome::kMissMustExecute);
}

}  // namespace
}  // namespace swala::core
