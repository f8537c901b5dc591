// The local cache of one Swala node: entry metadata + stored result data +
// replacement policy + capacity enforcement. The policy is one index: every
// entry sits in an ordered set of (rank, key) pairs, ranked by the policy's
// rank function (core/replacement.h) on insert and on each hit, and the
// store evicts the set's first element. Thread-safe. The mutex guards
// metadata only — all blob I/O (backend put/get, manifest writes, unlinks)
// happens outside it. Readers pin an entry's storage with a refcount before
// reading, so eviction and purge can never unlink a file a concurrent fetch
// is still reading from: the last pin holder performs the deferred unlink.
// A byte-capped in-memory hot-blob cache sits above the backend; a blob is
// admitted on insert or on its first verified read and is then served from
// memory with no disk access and no checksum re-verification.
#pragma once

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "core/entry.h"
#include "core/replacement.h"
#include "core/storage.h"

namespace swala::core {

/// Format version written in the manifest's header line. Bump when the line
/// layout changes; loaders refuse versions newer than they understand.
constexpr int kManifestFormatVersion = 1;

/// Capacity limits; 0 means unlimited on that axis (except hot_bytes,
/// where 0 disables the hot-blob cache entirely).
struct StoreLimits {
  std::uint64_t max_entries = 2000;
  std::uint64_t max_bytes = 0;
  /// Capacity of the in-memory hot-blob cache (LRU over verified blobs).
  /// 0 disables it: every hit reads the backend (outside the mutex).
  std::uint64_t hot_bytes = 0;
};

/// Counters exposed for experiments.
struct StoreStats {
  std::uint64_t inserts = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t expirations = 0;
  std::uint64_t rejected_too_large = 0;
  // ---- hot path ----
  std::uint64_t hot_hits = 0;    ///< hits served from the hot-blob cache
  std::uint64_t hot_misses = 0;  ///< hits that had to read the backend
  std::uint64_t hot_bytes = 0;   ///< current hot-blob residency (gauge)
  std::uint64_t pinned_entries = 0;  ///< readers inside a backend get (gauge)
};

/// A fetched cached result.
struct CachedResult {
  EntryMeta meta;
  std::string data;
};

class CacheStore {
 public:
  CacheStore(StoreLimits limits, PolicyKind policy,
             std::unique_ptr<StorageBackend> backend, const Clock* clock,
             NodeId owner);

  /// Inserts (or replaces) an entry. Evicts per policy until within limits;
  /// evicted entry metas are appended to `evicted` so the caller can
  /// broadcast deletions. Returns the inserted meta, or an error if the
  /// entry alone exceeds the byte limit.
  Result<EntryMeta> insert(const CacheKey& key, std::string_view data,
                           double cost_seconds, double ttl_seconds,
                           std::string content_type, int http_status,
                           std::vector<EntryMeta>* evicted);

  /// Looks up and reads an entry; updates access stats and the policy.
  /// Expired entries are treated as absent (but not removed; the purge
  /// daemon owns removal so deletions are always broadcast). Likewise an
  /// entry whose backing data vanished reads as a miss but stays resident:
  /// every membership change must go through the manager's commit protocol
  /// so the directory erase and broadcast happen with it.
  std::optional<CachedResult> fetch(std::string_view key);

  /// Metadata-only peek (no access-stat update).
  std::optional<EntryMeta> peek(std::string_view key) const;

  bool contains(std::string_view key) const { return peek(key).has_value(); }

  /// Removes an entry; returns its meta if it existed.
  std::optional<EntryMeta> erase(std::string_view key);

  /// Removes all expired entries and returns their metas (for broadcast).
  std::vector<EntryMeta> purge_expired();

  /// Removes every entry whose key matches a shell-style glob; returns the
  /// removed metas. Used by application-driven invalidation.
  std::vector<EntryMeta> erase_matching(std::string_view pattern);

  /// All keys currently stored (diagnostics, status pages).
  std::vector<std::string> keys() const;

  /// Metadata of every resident entry, including expired-but-unpurged ones
  /// (membership view; lets restore_state rebuild the directory in exact
  /// lockstep with the store).
  std::vector<EntryMeta> resident_metas() const;

  // ---- Warm restart (disk backend only) ----
  //
  // `save_manifest` writes entry metadata with *relative* timestamps (age,
  // remaining TTL, idle time) so the virtual clock's epoch does not leak
  // across processes, and marks the backend to retain its data files.
  // A later process constructed over the same disk directory calls
  // `load_manifest`, which re-adopts the files and rebases the timestamps
  // against its own clock.
  //
  // The manifest starts with a "swala-manifest <version>" header line and is
  // replaced atomically (temp → fsync → rename → fsync(dir)), so a crash
  // mid-checkpoint leaves the previous manifest intact and a manifest from a
  // newer format version is refused instead of misparsed.

  /// Persists the manifest; skips entries already expired. The manifest
  /// content is snapshotted under the mutex, but the disk write happens
  /// outside it so a slow checkpoint cannot stall the hit path.
  Status save_manifest(const std::string& path) const;

  /// Restores entries from a manifest. Entries whose data file is missing,
  /// corrupt (size/key-hash/CRC mismatch — corrupt files are quarantined by
  /// the backend) or already expired are skipped. Returns how many were
  /// restored; kUnavailable if the manifest's format version is newer than
  /// this build understands.
  Result<std::size_t> load_manifest(const std::string& path);

  /// Backend fsck after load_manifest: quarantine/orphan/temp cleanup.
  ScrubReport scrub_backend();

  /// Whether the storage backend constructed usably (cache dir exists).
  Status backend_init_status() const { return backend_->init_status(); }

  /// Backend operational counters (erase errors, flush/compaction/recovery
  /// stats) for the /swala-status durability object.
  StorageCounters storage_counters() const { return backend_->counters(); }

  /// Removes everything.
  void clear();

  std::size_t entry_count() const;
  std::uint64_t bytes_used() const;
  StoreStats stats() const;
  const StoreLimits& limits() const { return limits_; }
  PolicyKind policy() const { return policy_; }

 private:
  /// Refcounted handle to one entry's backing storage. Fetch copies the
  /// shared_ptr under the mutex and reads the backend outside it; removal
  /// marks the pin doomed and drops the store's reference. The last holder
  /// (a reader in flight, or the removal itself) erases the backend object
  /// from its destructor — always outside the store mutex.
  struct PinnedStorage {
    PinnedStorage(std::shared_ptr<StorageBackend> b, StorageId sid)
        : backend(std::move(b)), id(sid) {}
    ~PinnedStorage() {
      if (doomed.load(std::memory_order_acquire)) backend->erase(id);
    }
    PinnedStorage(const PinnedStorage&) = delete;
    PinnedStorage& operator=(const PinnedStorage&) = delete;

    std::shared_ptr<StorageBackend> backend;
    StorageId id = 0;
    std::atomic<bool> doomed{false};
  };
  using Pin = std::shared_ptr<PinnedStorage>;

  /// The eviction order: (rank, key), least rank first, ties by key. The
  /// key views the entry's key in entries_ (map nodes never move).
  using EvictionIndex = std::set<std::pair<double, std::string_view>>;

  struct Slot {
    EntryMeta meta;
    Pin pin;
    /// This entry's node in eviction_; its `first` is the entry's rank.
    EvictionIndex::iterator rank_it;
    /// Verified blob held in memory; null when not hot-resident.
    std::shared_ptr<const std::string> hot;
    /// Position in hot_lru_; valid only while `hot` is set.
    std::list<std::string_view>::iterator hot_it;
  };

  /// Finds entries by std::string_view without building a std::string.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>{}(key);
    }
  };
  using Entries =
      std::unordered_map<std::string, Slot, KeyHash, std::equal_to<>>;

  /// Evicts until within limits assuming `incoming_bytes` are arriving.
  /// Doomed pins are appended to `doomed` for destruction outside the
  /// mutex. Caller holds mutex_.
  void make_room(std::uint64_t incoming_bytes, std::vector<EntryMeta>* evicted,
                 std::vector<Pin>* doomed);

  /// Ranks `entry` in eviction_ on insert, or re-ranks it on a hit. A
  /// re-rank moves the set node itself: no allocation. Caller holds mutex_.
  void rank_locked(Entries::value_type& entry, bool hit);

  /// Caller holds mutex_. The removed entry's pin is marked doomed and
  /// moved into `doomed`; the caller destroys it after unlocking so the
  /// unlink (or its deferral to a pinned reader) happens outside the lock.
  /// `key` may view the entry's own key: it is read only to find the entry.
  void remove_locked(std::string_view key, bool count_eviction,
                     std::vector<EntryMeta>* out, std::vector<Pin>* doomed);

  // ---- hot-blob cache (callers hold mutex_) ----
  void hot_admit_locked(Entries::value_type& entry,
                        std::shared_ptr<const std::string> blob);
  void hot_touch_locked(Slot* slot);
  void hot_drop_locked(Slot* slot);

  StoreLimits limits_;
  PolicyKind policy_;
  /// Shared so outstanding pins keep the backend alive even if a reader
  /// races store destruction.
  std::shared_ptr<StorageBackend> backend_;
  const Clock* clock_;
  NodeId owner_;

  mutable std::mutex mutex_;
  Entries entries_;
  std::uint64_t bytes_used_ = 0;
  StoreStats stats_;
  /// Every resident entry, in the order the store evicts them.
  EvictionIndex eviction_;
  RankClock rank_clock_;
  /// Hot-blob LRU: front = most recently used. Only keys whose slot holds a
  /// hot blob appear here, as views of their key in entries_.
  std::list<std::string_view> hot_lru_;
  std::uint64_t hot_bytes_used_ = 0;
  /// Readers currently inside an unlocked backend get (gauge for stats).
  std::atomic<std::uint64_t> active_pins_{0};
  /// Store-wide monotonic version source. Per-key versions drawn from it
  /// never regress, even across erase→re-insert of the same key, so a stale
  /// erase broadcast can always be recognized by peers (its version is
  /// smaller than the re-insert's).
  std::uint64_t version_counter_ = 0;
};

}  // namespace swala::core
