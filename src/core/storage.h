// Storage backends for cached CGI results.
//
// The paper stores each cached result in its own operating-system file and
// keeps only the directory in main memory, relying on the UNIX buffer cache
// to keep hot files in RAM (§4.1). `DiskBackend` reproduces that design;
// `MemoryBackend` keeps results on the heap instead.
//
// Durability (beyond the paper): every cache file is self-describing — a
// fixed 32-byte header carrying magic, format version, the owning key's
// hash, the payload length and a CRC-32C of the payload — and is written
// atomically (temp file → write → fsync → rename → fsync(dir)). Torn writes
// and silent corruption therefore surface as kCorrupt errors on get/adopt
// instead of wrong bytes served to clients, and a crash can never leave a
// half-written file under a live name.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/stats.h"
#include "common/status.h"
#include "core/fs_ops.h"

namespace swala::core {

/// Opaque handle naming a stored result.
using StorageId = std::uint64_t;

/// Cache-file header constants (little-endian, packed by hand so the layout
/// is identical across compilers):
///   u32 magic  u32 version  u64 key_hash  u64 payload_len
///   u32 payload_crc32c  u32 header_crc32c(first 28 bytes)
constexpr std::uint32_t kCacheFileMagic = 0x414C5753;  // "SWLA" little-endian
constexpr std::uint32_t kCacheFormatVersion = 1;
constexpr std::size_t kCacheHeaderSize = 32;

/// Serializes a header for `payload` owned by the entry hashing to
/// `key_hash`. Returns exactly kCacheHeaderSize bytes.
std::string encode_cache_header(std::uint64_t key_hash,
                                std::string_view payload);

/// Validates `file` (header + payload) against the expected key hash.
/// `expected_key_hash` of 0 skips the key check (unknown caller). Returns
/// the payload view into `file` on success, kCorrupt on any mismatch.
Result<std::string_view> verify_cache_file(std::string_view file,
                                           std::uint64_t expected_key_hash);

/// What the startup scrub (fsck) found and did in a cache directory.
struct ScrubReport {
  std::uint64_t adopted = 0;          ///< files referenced and verified
  std::uint64_t quarantined = 0;      ///< corrupt files renamed *.corrupt
  std::uint64_t orphans_removed = 0;  ///< unreferenced swala-*.cache unlinked
  std::uint64_t temps_removed = 0;    ///< leftover *.tmp unlinked
};

/// Operational counters every backend can report; surfaced through
/// `/swala-status`'s durability object. Fields irrelevant to a backend stay
/// zero (e.g. MemoryBackend reports all zeros, DiskBackend has no segments).
/// Each backend keeps one instance and bumps it in place: DiskBackend's
/// erase counters lock-free, VolumeBackend's fields under its mutex.
struct StorageCounters {
  const char* backend = "memory";     ///< "memory" | "files" | "volume"
  Counter erase_errors;               ///< unlink/erase failures (leaked space)
  /// Current run of erase failures (the degradation feed); any erase or put
  /// that reaches the disk ends it.
  Counter consecutive_erase_failures;
  // Volume-store specific:
  std::uint64_t flushes = 0;             ///< write-buffer flush groups
  std::uint64_t flushed_records = 0;     ///< records made durable by flushes
  std::uint64_t compactions = 0;         ///< segments reclaimed
  std::uint64_t compacted_records = 0;   ///< live records relocated
  std::uint64_t corrupt_records_skipped = 0;  ///< recovery-walk CRC failures
  std::uint64_t torn_tail_truncated = 0;      ///< torn tails trimmed at open
  std::uint64_t index_mismatches = 0;    ///< sidecar-index disagreements
  std::uint64_t segments_total = 0;
  std::uint64_t segments_free = 0;
  std::uint64_t live_bytes = 0;
  std::uint64_t dead_bytes = 0;          ///< erased-but-unreclaimed bytes
};

/// Backends are internally thread-safe: the cache store issues puts, gets
/// and erases concurrently without holding its own mutex (pin/refcount
/// protocol), so each backend guards its bookkeeping itself and keeps the
/// actual data I/O outside its internal lock.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Persists `data` under a fresh id. `key_hash` identifies the owning
  /// cache key (CacheKey::hash()); durable backends bind it into the stored
  /// format so a mis-adopted or swapped file is detectable.
  virtual Result<StorageId> put(std::string_view data,
                                std::uint64_t key_hash) = 0;

  /// Convenience for callers without a key (tests, tools): hash 0 means
  /// "unknown", which skips the key-binding check on later verification.
  Result<StorageId> put(std::string_view data) { return put(data, 0); }

  /// Retrieves the full content for `id`, verifying integrity where the
  /// backend supports it (kCorrupt on checksum mismatch).
  virtual Result<std::string> get(StorageId id) = 0;

  /// Removes `id`; idempotent.
  virtual void erase(StorageId id) = 0;

  /// The stored content itself, shared rather than copied, when the backend
  /// holds it in memory; the store's hot-blob cache then serves that blob
  /// instead of a copy of it. Null when `id` is unknown or the content lives
  /// on disk. Default: null.
  virtual std::shared_ptr<const std::string> resident(StorageId id) {
    (void)id;
    return nullptr;
  }

  /// Bytes currently stored (bookkeeping, not filesystem truth).
  virtual std::uint64_t bytes_stored() const = 0;

  /// Re-registers content persisted by an earlier process under the same
  /// id (warm restart), verifying size, key hash and checksum.
  /// Default: unsupported.
  virtual Status adopt(StorageId id, std::uint64_t size,
                       std::uint64_t key_hash) {
    (void)id;
    (void)size;
    (void)key_hash;
    return Status(StatusCode::kUnavailable, "backend cannot adopt");
  }

  /// When true, stored content survives destruction (so a later process
  /// can adopt it). Default: no-op (memory content cannot survive anyway).
  virtual void set_retain_on_destruction(bool retain) { (void)retain; }

  /// Whether the backend constructed usably (e.g. its directory exists).
  /// Default: always ok.
  virtual Status init_status() const { return Status::ok(); }

  /// Removes debris a crash may have left behind: files not adopted by the
  /// manifest (orphans) and leftover temp files. Call after the manifest
  /// load so the adopted set is known. Default: nothing to scrub.
  virtual ScrubReport scrub() { return {}; }

  /// Makes every previously acknowledged put durable before returning (the
  /// volume store drains its write buffer and fsyncs). The manifest writer
  /// calls this first so a manifest never references data still in RAM.
  /// Default: puts are already durable (or volatile by design) — no-op.
  virtual Status sync() { return Status::ok(); }

  /// Operational counters snapshot; see StorageCounters.
  virtual StorageCounters counters() const { return {}; }

  /// Filesystem seam used for manifest writes sharing the backend's fault
  /// injection. Default: the real filesystem.
  virtual FsOps* fs() const { return FsOps::real(); }
};

/// Heap-backed storage: the store swalad and perfbench run whenever
/// `disk_dir` is empty, and the one the simulator and unit tests use. Each
/// result is one immutable shared blob, so `resident` hands the store's
/// hot-blob cache the same bytes and a body is held once per node.
class MemoryBackend final : public StorageBackend {
 public:
  using StorageBackend::put;
  Result<StorageId> put(std::string_view data, std::uint64_t key_hash) override;
  Result<std::string> get(StorageId id) override;
  void erase(StorageId id) override;
  std::shared_ptr<const std::string> resident(StorageId id) override;
  std::uint64_t bytes_stored() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<StorageId, std::shared_ptr<const std::string>> blobs_;
  StorageId next_id_ = 1;
  std::uint64_t bytes_ = 0;
};

/// One file per cached result under `dir` (created recursively if absent),
/// named "swala-<id>.cache". Mirrors the paper's disk cache — every cache
/// fetch is a file fetch served from the OS buffer cache when hot — with the
/// checksummed header format and atomic-rename writes described above.
class DiskBackend final : public StorageBackend {
 public:
  /// `fs` is the injectable filesystem seam; null = the real filesystem.
  explicit DiskBackend(std::string dir, FsOps* fs = nullptr);
  ~DiskBackend() override;

  using StorageBackend::put;
  Result<StorageId> put(std::string_view data, std::uint64_t key_hash) override;
  Result<std::string> get(StorageId id) override;
  void erase(StorageId id) override;
  std::uint64_t bytes_stored() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
  }
  Status adopt(StorageId id, std::uint64_t size,
               std::uint64_t key_hash) override;
  void set_retain_on_destruction(bool retain) override {
    retain_.store(retain, std::memory_order_relaxed);
  }
  Status init_status() const override { return init_status_; }
  ScrubReport scrub() override;
  StorageCounters counters() const override;
  FsOps* fs() const override { return fs_; }

  const std::string& dir() const { return dir_; }

  /// Path of the cache file backing `id` (tests corrupt files in place).
  std::string path_for(StorageId id) const;

 private:
  /// Reads the whole file at `path`; kNotFound / kIoError on failure.
  Result<std::string> read_file(const std::string& path) const;

  /// Renames a corrupt cache file to "<path>.corrupt" so it is off the
  /// serving path but preserved for postmortem. Unlinks if rename fails.
  void quarantine(const std::string& path);

  std::string dir_;
  FsOps* fs_;
  Status init_status_;
  /// Guards the bookkeeping maps and counters below; file I/O (write,
  /// read, unlink) always happens with it released.
  mutable std::mutex mutex_;
  StorageId next_id_ = 1;
  std::uint64_t bytes_ = 0;
  std::atomic<bool> retain_{false};
  std::atomic<std::uint64_t> quarantined_{0};  ///< corrupt files renamed
  StorageCounters counters_;  ///< erase counters; live_bytes comes from bytes_
  std::unordered_map<StorageId, std::uint64_t> sizes_;  ///< payload bytes
  std::unordered_map<StorageId, std::uint64_t> key_hashes_;
};

}  // namespace swala::core
