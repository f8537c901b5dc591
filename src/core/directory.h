// The replicated global cache directory (§4.1–4.2 of the paper).
//
// Every node holds one table per node in the group; table i describes what
// node i currently caches. Local inserts/deletes update the local table and
// are broadcast; broadcasts from peers update the corresponding remote
// table asynchronously (weak inter-node consistency).
//
// Intra-node consistency — the paper weighs three locking granularities and
// chooses per-table read/write locks; it mentions a fourth (multi-
// granularity) it did not implement. All four are implemented behind the
// same interface so `bench/micro_directory` can reproduce the argument:
//   kWholeDirectory    — one shared_mutex over everything
//   kPerTable          — one shared_mutex per node table (the paper's choice)
//   kPerEntry          — per-table structural lock + an entry lock per read
//   kMultiGranularity  — "entry locks on one table while using table lock on
//                        the other tables" (§4.2): per-entry on the local
//                        table (the write-hot one), per-table on the rest
//
// A record is stored inline in its table's hash map and holds only what a
// reader or a directory-originated message uses: the key is the map key,
// the owner is the table, and the owning store's access statistics are not
// mirrored. The entry lock of kPerEntry is one of a fixed stripe of mutexes
// per table, chosen by key hash, so a record carries no mutex of its own.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/stats.h"
#include "core/entry.h"

namespace swala::core {

enum class LockingMode { kWholeDirectory, kPerTable, kPerEntry, kMultiGranularity };

const char* locking_mode_name(LockingMode mode);

/// How nodes share directory state (cluster.directory_mode). Each mode is
/// one core::Locator (core/locator.h), chosen when the manager is built.
///
///   kReplicated  — the paper's scheme: every insert/erase broadcasts so all
///                  nodes mirror all tables. O(n) frames per insert.
///   kPartitioned — a consistent-hash ring maps each key to one owner node
///                  that alone holds its directory entry; updates are unicast
///                  kOwnerUpdate frames, misses ask the owner. O(1) frames.
enum class DirectoryMode { kReplicated, kPartitioned };

const char* directory_mode_name(DirectoryMode mode);

/// Parses "replicated" | "partitioned"; nullopt on anything else.
std::optional<DirectoryMode> directory_mode_from_name(std::string_view name);

/// Aggregate directory statistics for experiments.
struct DirectoryStats {
  Counter lookups;
  Counter lookup_hits;
  Counter inserts;
  Counter erases;
  Counter lock_acquisitions;  ///< how many locks a workload took
};

class CacheDirectory {
 public:
  /// `self` is this node's id; the directory has `num_nodes` tables.
  CacheDirectory(NodeId self, std::size_t num_nodes,
                 LockingMode mode = LockingMode::kPerTable);

  /// Records that `meta.owner`'s cache now holds `meta`.
  void apply_insert(const EntryMeta& meta);

  /// Records that `owner` no longer caches `key`. `version`, when non-zero,
  /// guards against erasing a newer re-insert that raced ahead of the erase
  /// broadcast.
  void apply_erase(NodeId owner, const std::string& key,
                   std::uint64_t version = 0);

  /// Looks `key` up across all tables, local table first (a local hit avoids
  /// the remote fetch). Expired entries are invisible. The returned meta's
  /// `last_access` and `access_count` are 0: the directory does not keep
  /// them.
  std::optional<EntryMeta> lookup(const std::string& key) const;

  /// Looks up within one node's table only.
  std::optional<EntryMeta> lookup_at(NodeId node, const std::string& key) const;

  /// Keys in `node`'s table that are expired at `now`.
  std::vector<std::string> expired_keys(NodeId node, TimeNs now) const;

  /// Removes every entry matching a shell-style glob from every table
  /// (cluster-wide invalidation applied locally). Returns removals.
  std::size_t erase_matching(std::string_view pattern);

  // ---- peer quarantine (failure handling) ----
  //
  // When the cluster layer declares a peer dead (circuit breaker), its table
  // is quarantined: `lookup` stops advertising that peer's entries, so
  // request threads fall straight through to local execution instead of
  // attempting doomed remote fetches. The table's contents are kept (they
  // are the membership view consistency checks and rejoin diff against);
  // `clear_table` + resync refreshes them when the peer re-HELLOs.

  /// Marks `node`'s table (in)visible to `lookup`. Self cannot be
  /// quarantined. Idempotent.
  void set_quarantined(NodeId node, bool quarantined);

  /// Whether `node`'s table is currently hidden from lookups.
  bool quarantined(NodeId node) const;

  /// Drops every entry in `node`'s table (stale state of a dead or
  /// rejoining peer). Returns how many entries were removed.
  std::size_t clear_table(NodeId node);

  /// Total entries across all tables.
  std::size_t size() const;

  /// Entries in one node's table.
  std::size_t table_size(NodeId node) const;

  /// All keys in one node's table, including expired-but-unpurged entries
  /// (membership view, for consistency cross-checks against the store).
  std::vector<std::string> keys_at(NodeId node) const;

  /// (key, version) pairs in one node's table, including expired-but-
  /// unpurged entries (anti-entropy digest input; version drift matters).
  std::vector<std::pair<std::string, std::uint64_t>> key_versions_at(
      NodeId node) const;

  /// Full metas in one node's table, including expired-but-unpurged entries
  /// (membership handoff: a decommissioning owner ships its directory
  /// partition to the successor as whole records).
  std::vector<EntryMeta> metas_at(NodeId node) const;

  NodeId self() const { return self_; }
  std::size_t num_nodes() const { return tables_.size(); }

  DirectoryStats stats() const { return stats_; }

 private:
  /// One directory record: EntryMeta minus the key (the map key), the owner
  /// (the table's node) and `last_access`/`access_count`.
  struct Record {
    std::uint64_t size_bytes = 0;
    double cost_seconds = 0.0;
    TimeNs insert_time = 0;
    TimeNs expire_time = 0;
    std::uint64_t version = 0;
    std::string content_type;
    int http_status = 200;

    explicit Record(const EntryMeta& meta);
    EntryMeta meta(const std::string& key, NodeId owner) const;
    bool expired(TimeNs now) const {
      return expire_time != 0 && now >= expire_time;
    }
  };

  /// Entry locks per table (kPerEntry and the local table of
  /// kMultiGranularity); a key always maps to the same stripe.
  static constexpr std::size_t kEntryLockStripes = 16;

  struct Table {
    mutable std::shared_mutex mutex;
    mutable std::array<std::mutex, kEntryLockStripes> entry_locks;
    std::unordered_map<std::string, Record> entries;
  };

  /// `key`'s record in `node`'s table as a meta, if present and unexpired.
  /// Takes the locks `mode` prescribes for that table; kWholeDirectory
  /// expects the caller to hold whole_mutex_.
  std::optional<EntryMeta> find_in(NodeId node, const std::string& key,
                                   LockingMode mode, TimeNs now) const;

  /// Clock used only for expiry visibility checks.
  const Clock* clock_;

  NodeId self_;
  LockingMode mode_;
  std::vector<std::unique_ptr<Table>> tables_;
  /// One flag per table; set while the owning peer is considered dead.
  std::vector<std::atomic<bool>> quarantined_;
  mutable std::shared_mutex whole_mutex_;  // used only in kWholeDirectory
  mutable DirectoryStats stats_;  ///< mutable: lookups count themselves

 public:
  /// Injects the clock for expiry checks (defaults to RealClock).
  void set_clock(const Clock* clock) { clock_ = clock; }
};

}  // namespace swala::core
