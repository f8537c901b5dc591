// CacheManager: the paper's "cacher module" (§4.1, Figure 2). Request
// threads ask it to classify a request as uncacheable / cacheable-but-not-
// cached / cached, fetch hits (local or remote, with false-hit fallback),
// and insert results after successful, long-enough CGI executions.
//
// Cooperation with the rest of the group goes through the `CooperationBus`
// interface; the real TCP implementation lives in src/cluster, an in-memory
// one in src/sim and the tests. A null bus produces a stand-alone cache.
// Everything that depends on the directory mode (announcing, find-on-miss,
// digests, placement across membership changes) is the job of the
// manager's Locator (core/locator.h), chosen once at construction; the
// manager itself keeps the store, single-flight, the negative cache, the
// invalidation log, persistence and the active member set.
//
// Commit protocol: every path that changes the local store's membership
// (complete, invalidate, on_peer_invalidate, purge_expired, the false-hit
// self-cleanup in lookup, restore_state) runs inside one mutation section
// guarded by `commit_mutex_`. Within a section the store change, the
// matching directory self-table change, and the broadcast enqueue are
// published together, so the directory self-table is a faithful mirror of
// the store at every section boundary (the paper's Section 3 invariant).
// Broadcast enqueues are non-blocking (per-peer bounded queues), so holding
// the commit mutex across them cannot deadlock or stall on a slow peer.
// Peer-table updates (on_peer_insert/on_peer_erase) stay outside the
// section: they never touch the local store and are weakly consistent by
// design. Each committed section bumps `commit_sequence()`. Lock order:
// commit_mutex_ → members_mutex_, and commit_mutex_ → the locator's own
// lock; membership transitions never hold commit_mutex_.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "cgi/handler.h"
#include "common/clock.h"
#include "common/deadline.h"
#include "common/hash.h"
#include "common/stats.h"
#include "core/consistency.h"
#include "core/directory.h"
#include "core/inv_log.h"
#include "core/rules.h"
#include "core/store.h"
#include "core/volume.h"

namespace swala::core {

/// How the manager talks to the other nodes in the group.
class CooperationBus {
 public:
  virtual ~CooperationBus() = default;

  /// Announces a new/updated local entry to all peers (asynchronous).
  virtual void broadcast_insert(const EntryMeta& meta) = 0;

  /// Announces a local deletion to all peers (asynchronous).
  virtual void broadcast_erase(NodeId owner, const std::string& key,
                               std::uint64_t version) = 0;

  /// Fetches a cached result from `owner`'s cache (synchronous).
  /// kNotFound signals a false hit: the entry is gone at the owner.
  virtual Result<CachedResult> fetch_remote(NodeId owner,
                                            const std::string& key) = 0;

  /// Deadline-budgeted fetch: the transport should give up after
  /// `budget_ms` (<=0 = use the configured timeout). Default ignores the
  /// budget so single-purpose buses (tests, simulator) need not care; the
  /// real TCP group caps its socket timeouts at the budget.
  virtual Result<CachedResult> fetch_remote(NodeId owner,
                                            const std::string& key,
                                            int budget_ms) {
    (void)budget_ms;
    return fetch_remote(owner, key);
  }

  /// Announces a cluster-wide invalidation of every key matching a
  /// shell-style glob (application-driven invalidation, §4.2 future work).
  /// Default: no-op, so single-purpose buses (tests, simulator) need not
  /// care unless they exercise invalidation.
  virtual void broadcast_invalidate(const std::string& pattern) {
    (void)pattern;
  }

  /// Epoch-stamped variant (anti-entropy repair layer): the frame carries
  /// the origin's monotonic epoch so peers can detect and repair a lost
  /// invalidation. This is the one the manager calls; the default forwards
  /// to the pattern-only overload for buses that ignore epochs.
  virtual void broadcast_invalidate(const std::string& pattern,
                                    std::uint64_t epoch) {
    (void)epoch;
    broadcast_invalidate(pattern);
  }

  // ---- partitioned mode ----
  // Defaults are no-ops / unavailable so replicated-only buses need not
  // care; the TCP group and the simulator override them.

  /// Unicasts "my cache now holds `meta`" to the key's ring owner.
  virtual void send_owner_insert(NodeId ring_owner, const EntryMeta& meta) {
    (void)ring_owner;
    (void)meta;
  }

  /// Unicasts "`cache_node` dropped `key`" to the key's ring owner.
  virtual void send_owner_erase(NodeId ring_owner, NodeId cache_node,
                                const std::string& key,
                                std::uint64_t version) {
    (void)ring_owner;
    (void)cache_node;
    (void)key;
    (void)version;
  }

  /// Asks the ring owner who caches `key` (synchronous, budgeted).
  /// kNotFound = the owner definitively knows of no copy.
  virtual Result<EntryMeta> lookup_at_owner(NodeId ring_owner,
                                            const std::string& key,
                                            int budget_ms) {
    (void)ring_owner;
    (void)key;
    (void)budget_ms;
    return Status(StatusCode::kUnavailable, "no partitioned-mode transport");
  }

  /// Left from the deleted query mode; nothing in the cache calls it. Kept
  /// only because perfbench's TracingBus overrides it, and perfbench is
  /// changed only together with its benchmark: that change deletes both.
  virtual Result<EntryMeta> query_peers(const std::string& key,
                                        int budget_ms) {
    (void)key;
    (void)budget_ms;
    return Status(StatusCode::kUnavailable, "no query-mode transport");
  }

  // ---- dynamic membership (PR10) ----

  /// Graceful decommission: ship one cached entry (meta + body) to
  /// `successor`, which adopts it into its own store (a kInsert frame with
  /// the handoff tail). Default: no-op, so single-purpose buses need not
  /// care unless they exercise membership change.
  virtual void send_handoff(NodeId successor, const EntryMeta& meta,
                            const std::string& body) {
    (void)successor;
    (void)meta;
    (void)body;
  }
};

/// Classification of one incoming request.
enum class LookupOutcome {
  kUncacheable,      ///< execute, never cache
  kMissMustExecute,  ///< cacheable; execute and call `complete` (or `fail`)
  kHit,              ///< served from cache; `result` is valid
  /// Fail without executing: the key is negative-cached after a recent
  /// execution failure, the in-flight leader this request coalesced onto
  /// failed, or the request's deadline expired while waiting for the
  /// leader. `fail_status`/`fail_reason` describe the error.
  kFailedFast,
  /// Another request is already executing this key: hand the result to
  /// `CacheManager::await` for the leader's output instead of executing.
  kPending,
};

/// One in-flight execution of a key (single-flight); defined in manager.cc.
struct InFlight;

class Locator;

struct LookupResult {
  LookupOutcome outcome = LookupOutcome::kUncacheable;
  RuleDecision rule;
  CachedResult result;   ///< valid when outcome == kHit
  bool remote = false;   ///< hit was fetched from a peer
  /// Hit was produced by riding another request's in-flight execution of
  /// the same key (single-flight miss coalescing), not by the cache proper.
  bool coalesced = false;
  NodeId owner = kInvalidNode;
  int fail_status = 0;      ///< HTTP status when outcome == kFailedFast
  std::string fail_reason;  ///< diagnostic when outcome == kFailedFast
  /// The leader's execution when outcome == kPending.
  std::shared_ptr<InFlight> flight;
};

/// Counters for the experiments (all monotonic). CacheManager bumps its own
/// instance in place; stats() returns a copy with the gauge filled in.
struct ManagerStats {
  Counter lookups;
  Counter uncacheable;
  Counter local_hits;
  Counter remote_hits;
  Counter misses;
  Counter inserts;
  Counter below_threshold;  ///< executed but too fast to cache
  Counter failed_exec;      ///< CGI failed; result discarded
  Counter false_hits;       ///< remote fetch found entry deleted
  Counter false_misses;     ///< duplicate caching detected
  Counter evictions_broadcast;
  Counter invalidations;    ///< entries dropped by invalidate()
  /// Remote fetch failed for a reason other than a false hit (timeout, dead
  /// peer, torn connection) and the request fell back to local execution.
  Counter fallback_executions;

  // ---- cooperation modes (cluster.directory_mode) ----
  /// Partitioned mode: misses that asked the key's ring owner for the
  /// directory entry (the local table had nothing).
  Counter remote_dir_lookups;
  /// ... of which the owner knew a cached copy.
  Counter remote_dir_hits;

  // ---- overload protection (single-flight miss coalescing) ----
  /// Misses that rode another request's in-flight execution instead of
  /// forking their own CGI (success or failure — the waiters got the
  /// leader's result either way).
  Counter coalesced_misses;
  /// Waiters whose deadline expired before the leader finished; the
  /// request failed fast rather than outliving its budget.
  Counter coalesce_timeouts;
  /// Lookups answered from the per-key negative cache (a recent execution
  /// failure is remembered for `negative_ttl_seconds`, stopping retry
  /// storms on a persistently failing CGI).
  Counter failed_fast;

  // ---- durability ----
  /// Store inserts that failed with a disk I/O error.
  Counter disk_errors;
  /// Inserts skipped because the store is degraded (request still served,
  /// just uncached — the disk equivalent of fallback_executions).
  Counter degraded_skips;
  /// Gauge, filled by stats(): 1 while the store is degraded after
  /// `disk_failure_threshold` consecutive put failures; probe inserts
  /// eventually clear it.
  std::uint64_t store_degraded = 0;
  /// Successful periodic manifest checkpoints (purge-tick cadence).
  Counter checkpoints;
  /// Checkpoint attempts that failed (manifest write error).
  Counter checkpoint_failures;

  // ---- anti-entropy consistency repair ----
  /// Missed invalidations pulled from a peer via kInvSync and applied
  /// (each one is an invalidation this node would otherwise never see).
  Counter inv_epoch_gaps_repaired;
  /// Stale store entries dropped by repaired invalidations — each was a
  /// pre-invalidation version this node would have kept serving until TTL.
  Counter stale_serves_prevented;
  /// Conservative full purges taken because the peer's replay log had
  /// already evicted records this node needed (inv_log_entries too small
  /// for the gap).
  Counter inv_overflow_purges;

  // ---- dynamic membership (PR10) ----
  /// Membership transitions applied locally (joins + leaves).
  Counter membership_transitions;
  /// Directory records forwarded to a new ring owner (ring change or
  /// decommission partition handoff) — kOwnerUpdate frames.
  Counter handoff_records_sent;
  /// Cached entries shipped to successors at decommission (kInsert handoff).
  Counter handoff_entries_sent;
  /// Handed-off entries this node adopted into its own store.
  Counter handoff_entries_adopted;
  /// Partitioned lookups that probed the pre-transition ring owner during a
  /// dual-read window.
  Counter dual_read_probes;

  std::uint64_t hits() const { return local_hits + remote_hits; }
};

/// Which durable store implementation backs the cache when `disk_dir` is
/// set ([cache] store = files | volume).
enum class StoreBackendKind {
  kFiles,   ///< DiskBackend: one file per entry (the paper's design)
  kVolume,  ///< VolumeBackend: log-structured single preallocated file
};

/// Configuration for one node's cache manager.
struct ManagerOptions {
  StoreLimits limits;
  PolicyKind policy = PolicyKind::kLru;
  CacheabilityRules rules;
  /// Storage directory for the disk backend; empty selects MemoryBackend.
  std::string disk_dir;
  /// Durable store implementation under `disk_dir` (default: the paper's
  /// file-per-entry DiskBackend, which stays the fault-injection reference).
  StoreBackendKind store = StoreBackendKind::kFiles;
  /// Volume-store tuning; `volume.volume_bytes` must be set when
  /// store == kVolume.
  VolumeOptions volume;
  /// Manifest path for periodic checkpointing; empty disables it. A crash
  /// then loses at most `checkpoint_interval_seconds` of cache additions,
  /// not the whole cache.
  std::string state_file;
  /// Minimum seconds between checkpoints. Checkpoints ride the purge tick
  /// (purge_expired), so the effective cadence is
  /// max(purge_interval, checkpoint_interval_seconds).
  double checkpoint_interval_seconds = 10.0;
  /// Consecutive insert I/O failures before the store degrades to
  /// serve-uncacheable mode.
  int disk_failure_threshold = 5;
  /// While degraded, one insert in this many is attempted as a recovery
  /// probe; a success re-enables caching.
  int degraded_probe_every = 32;
  /// Injectable filesystem seam threaded into the disk backend (tests).
  /// Null = the real filesystem. Not owned.
  FsOps* fs_ops = nullptr;
  /// Seconds a failed execution is remembered per key; deadline-aware
  /// lookups within the window fail fast (kFailedFast) instead of
  /// re-executing a CGI that just failed. 0 disables the negative cache.
  double negative_ttl_seconds = 1.0;
  /// How directory state is shared (DirectoryMode; picks the Locator).
  /// Every node must agree on the mode, seed and vnode count.
  DirectoryMode directory_mode = DirectoryMode::kReplicated;
  /// Consistent-hash placement parameters (partitioned mode only). The ring
  /// covers the *active* membership: initially `initial_members` (or all of
  /// [0, num_nodes) when empty), then member_joined/member_left resize it —
  /// only the remapped key ranges migrate, and a dual-read window (probe
  /// the pre-transition owner first) covers it for kRingSettleSeconds. A
  /// dead owner's key range is handled by quarantine + local-execution
  /// fallback, not by resizing (an unplanned death hands nothing off).
  std::uint64_t ring_seed = HashRing::kDefaultSeed;
  std::size_t ring_vnodes = HashRing::kDefaultVnodes;
  /// Active members at construction. Empty = every slot [0, num_nodes).
  /// The directory always provisions `num_nodes` tables — capacity is fixed
  /// at config time; which slots are *active* is dynamic (join/decommission).
  std::vector<NodeId> initial_members;
  /// Bound on the epoch-stamped invalidation replay log (anti-entropy
  /// repair). A peer whose gap outruns the log falls back to a conservative
  /// full purge instead of staying stale.
  std::size_t inv_log_entries = 4096;
};

class CacheManager {
 public:
  CacheManager(NodeId self, std::size_t num_nodes, ManagerOptions options,
               const Clock* clock, CooperationBus* bus = nullptr,
               LockingMode locking = LockingMode::kPerTable);
  ~CacheManager();

  // ---- Request-thread API (Figure 2) ----

  /// Classifies and, on a hit, fetches. A false hit (remote copy vanished)
  /// comes back as a miss after cleaning the directory. Misses (and
  /// expired-TTL refreshes) of one key share a single execution: the first
  /// becomes the *leader* (kMissMustExecute; it MUST later call `complete`
  /// or `fail`, or waiters stall until their deadlines), later ones return
  /// kPending at once. Never waits on another request's execution. A key
  /// whose execution failed within `negative_ttl_seconds` fails fast
  /// (kFailedFast). Remote fetches and probes cap their timeouts at the
  /// remaining budget (an unlimited deadline uses the transport defaults).
  LookupResult lookup(http::Method method, const http::Uri& uri,
                      const Deadline& deadline);

  /// Resolves a kPending lookup: waits — up to `deadline` — for the leader
  /// to publish and returns a coalesced kHit or a propagated kFailedFast
  /// (also when the deadline expires first). Returns at once when the
  /// leader already published; any other outcome is returned unchanged.
  LookupResult await(LookupResult pending, const Deadline& deadline);

  /// Reports a finished CGI execution so the result can be cached and
  /// broadcast. `rule` must be the decision `lookup` returned. Also
  /// releases single-flight waiters with the output (even when the result
  /// is not cached) and negative-caches the key on a failed execution.
  void complete(http::Method method, const http::Uri& uri,
                const RuleDecision& rule, const cgi::CgiOutput& output,
                double exec_seconds);

  /// Reports that the execution could not run at all (fork failure, gate
  /// timeout, deadline bail-out): releases single-flight waiters with the
  /// error and — when `remember` is set — negative-caches the key for
  /// `negative_ttl_seconds`. Pass remember=false for overload bail-outs
  /// (the CGI itself is fine; a short 503 must not poison the key).
  void fail(http::Method method, const http::Uri& uri,
            const RuleDecision& rule, int http_status,
            const std::string& reason, bool remember);

  // ---- Cluster-facing API (info/data daemon threads) ----

  /// Peer announced an insert.
  void on_peer_insert(const EntryMeta& meta);

  /// Peer announced a deletion.
  void on_peer_erase(NodeId owner, const std::string& key,
                     std::uint64_t version);

  /// Serves a peer's data request from the local store.
  Result<CachedResult> serve_peer_fetch(const std::string& key);

  /// Purge daemon tick: drop expired local entries, broadcast the erases.
  /// Also the durability heartbeat: checkpoints the manifest when
  /// `state_file` is set and the checkpoint interval has elapsed. Returns
  /// how many entries were purged.
  std::size_t purge_expired();

  // ---- Invalidation (§4.2 future work, IBM-style [12]) ----

  /// Cluster-wide invalidation: removes every entry whose key matches the
  /// shell-style glob — from the local store, from every directory table,
  /// and (via broadcast) from all peers. Patterns match the full cache key
  /// ("GET /cgi-bin/report?q=1"). Returns local removals.
  std::size_t invalidate(const std::string& pattern);

  /// Applies a peer's invalidation broadcast (no re-broadcast). The
  /// (origin, epoch) pair feeds the replay log's exact duplicate filter, so
  /// a replayed frame (or epoch 0, which no origin stamps) is a no-op.
  std::size_t on_peer_invalidate(const std::string& pattern, NodeId origin,
                                 std::uint64_t epoch);

  // ---- Anti-entropy repair (epoch log + digest exchange) ----

  /// The epoch-stamped invalidation log: its high-water vector rides HELLO
  /// and kDigest, its floors are what a kInvSync pull asks "after", and it
  /// serves peers' pulls. Thread-safe; this node applies records through
  /// invalidate, on_peer_invalidate and apply_inv_sync only.
  const InvalidationLog& inv_log() const { return inv_log_; }

  /// Applies a kInvSyncResp: admits each record through the duplicate
  /// filter and applies the new ones (counting inv_epoch_gaps_repaired and
  /// stale_serves_prevented). A truncated response falls back to a
  /// conservative full purge ("*"), counted as an inv_overflow_purge.
  /// Returns how many records were newly applied.
  std::size_t apply_inv_sync(const std::vector<InvalidationRecord>& entries,
                             bool truncated);

  /// Order-independent xor digests of the (key, version) pairs this node
  /// expects `peer` to hold for us, and of those we hold for `peer` (the
  /// locator decides who holds what); `*entries` gets the pair count.
  std::uint64_t digest_for_peer(NodeId peer, std::size_t* entries) const;
  std::uint64_t digest_of_peer_table(NodeId peer, std::size_t* entries) const;

  // ---- Dynamic membership (PR10) ----
  //
  // Capacity (directory tables, id space) is fixed at config time; the
  // *active set* within [0, num_nodes) is mutable. A join activates a slot,
  // a decommission deactivates one; the locator moves whatever placement
  // depends on the set (partitioned mode: the ring, under a dual-read
  // window of kRingSettleSeconds).

  /// What a membership transition or decommission handoff actually sent.
  struct HandoffStats {
    std::size_t records = 0;  ///< directory records forwarded (kOwnerUpdate)
    std::size_t entries = 0;  ///< cached entries re-announced / shipped
  };

  /// Monotonic count of membership transitions applied by this node. Two
  /// nodes that applied the same joins/leaves report the same epoch
  /// (carried on HELLO / kJoinAck / kDecommission for divergence checks).
  std::uint64_t membership_epoch() const;

  /// Currently active member ids, sorted ascending.
  std::vector<NodeId> active_members() const;

  /// Whether `node` is in the active set.
  bool is_member(NodeId node) const;

  /// Activates `node` (two-phase join, activation side): adds it to the
  /// active set, bumps the membership epoch, clears any stale table state,
  /// and lets the locator forward what the change remapped. Idempotent: a
  /// no-op (zero stats, no epoch bump) if already active.
  HandoffStats member_joined(NodeId node);

  /// Deactivates `node` (graceful decommission observed, or operator
  /// removal), as member_joined does in reverse; its table is cleared
  /// *without* quarantining (the leaver handed its state off; quarantine is
  /// for the unplanned-death path). Idempotent. Self-removal is rejected
  /// (use begin_decommission).
  HandoffStats member_left(NodeId node);

  /// Joiner side of kJoinAck: adopt the responder's membership view (self
  /// is always retained) and re-announce the whole store to it; the epoch
  /// advances to at least `epoch`.
  void adopt_membership(std::uint64_t epoch,
                        const std::vector<NodeId>& members);

  /// Decommission step 1: stop accepting new inserts and adoptions, so the
  /// handoff below cannot race fresh state into the departing store.
  /// Lookups keep serving until the server-level drain.
  void begin_decommission();
  bool decommissioning() const;

  /// Decommission step 2: ship every cached entry (meta + body) to its
  /// post-removal successor via the bus's handoff channel — bodies larger
  /// than `batch_bytes` are skipped (a lost cache entry costs one future
  /// re-execution, never correctness; 0 = no cap) — and forward the
  /// directory records this node holds for others to their next holders.
  HandoffStats handoff_state(std::uint64_t batch_bytes);

  /// Receiving side of the handoff channel: adopt a shipped entry into the
  /// local store (one commit section: insert + directory + announce).
  /// Skipped — returns false — when already cached locally, expired, being
  /// decommissioned ourselves, or the store rejects it.
  bool adopt_entry(const EntryMeta& meta, const std::string& body);

  // ---- Peer failure handling (cluster circuit breaker) ----

  /// The cluster layer declared `peer` dead: quarantine its directory table
  /// so lookups stop advertising entries we cannot fetch.
  void on_peer_dead(NodeId peer);

  /// `peer` re-HELLOed: drop its stale table (a resync re-announces the
  /// live entries) and lift the quarantine.
  void on_peer_recovered(NodeId peer);

  // ---- Warm restart (disk-backed caches) ----

  /// Saves the local store's manifest and marks the data files for
  /// retention, so the next process can `restore_state`.
  Status save_state(const std::string& manifest_path);

  /// Restores the local store from a manifest, repopulates the local
  /// directory table, and (if clustered) broadcasts the restored entries so
  /// peers relearn them. Then scrubs the cache directory: corrupt files
  /// were quarantined during adoption, orphans (files no manifest line
  /// references — e.g. a put the crash cut off, or entries save_manifest
  /// skipped as expired) and leftover temp files are deleted. Returns how
  /// many entries came back; a missing manifest restores zero but still
  /// scrubs (first boot over a dirty directory).
  Result<std::size_t> restore_state(const std::string& manifest_path);

  /// What the startup scrub found (zeros before restore_state ran).
  ScrubReport last_scrub() const;

  /// Backend operational counters (erase errors, volume flush/compaction/
  /// recovery stats) for the /swala-status durability object.
  StorageCounters storage_counters() const {
    return store_->storage_counters();
  }

  /// Whether the storage backend is usable (cache dir creation can fail).
  Status storage_status() const { return store_->backend_init_status(); }

  /// True while inserts are suspended after repeated disk failures.
  bool store_degraded() const {
    return degraded_.load(std::memory_order_relaxed);
  }

  // ---- Introspection ----

  ManagerStats stats() const;
  const CacheStore& store() const { return *store_; }
  const CacheDirectory& directory() const { return *directory_; }
  const CacheabilityRules& rules() const { return options_.rules; }
  NodeId self() const { return self_; }
  DirectoryMode directory_mode() const { return options_.directory_mode; }

  /// The directory mode's read side: where a key's record belongs, the
  /// state pushes cluster::Protocol sends, the dual-read window.
  const Locator& locator() const { return *locator_; }

  /// Cross-verifies the store's key set against the directory self-table
  /// under the commit mutex, so the answer is exact (no commit can be half
  /// applied while the check runs). Callable from tests, housekeeping
  /// threads, and the /swala-admin/check-consistency endpoint.
  ConsistencyReport debug_check_consistency() const;

  /// Number of mutation sections committed so far (diagnostics).
  std::uint64_t commit_sequence() const;

  /// Key for a request, exposed for tests and the simulator.
  static CacheKey key_for(http::Method method, const http::Uri& uri);

 private:
  /// A remembered execution failure (negative cache).
  struct NegativeEntry {
    TimeNs expires = 0;
    int status = 503;
    std::string reason;
  };

  /// Fetches `meta` from its caching node and fills `out` on success. A
  /// false hit (kNotFound) drops the local record of the copy; any other
  /// failure counts a fallback_execution.
  Status fetch_hit_from(LookupResult* out, const EntryMeta& meta,
                        const Deadline& deadline);

  /// The insert half of a commit section (caller holds commit_mutex_):
  /// store insert, eviction erases and announcements. True when stored.
  bool commit_insert(const CacheKey& key, const std::string& body,
                     double cost_seconds, double ttl_seconds,
                     const std::string& content_type, int http_status);

  /// member_joined / member_left once validated: the active set, epoch,
  /// table and locator bookkeeping of one transition.
  HandoffStats change_membership(NodeId node, bool joined);

  /// Announces a local insert/erase through the locator, when clustered and
  /// a member. announce_erase returns whether anything was sent.
  void announce_insert(const EntryMeta& meta);
  bool announce_erase(const std::string& key, std::uint64_t version);

  /// Single-flight entry point for a miss: negative-cache check, then
  /// leader registration or a kPending handle on the existing leader.
  LookupResult finish_miss(LookupResult out, const std::string& key);

  /// Releases waiters for `key` with a result or an error. No-op when no
  /// in-flight entry exists (uncacheable or already published).
  void publish_execution(const std::string& key, bool success,
                         const cgi::CgiOutput* output, int fail_status,
                         const std::string& fail_reason);

  /// Remembers a failed execution for negative_ttl_seconds (if enabled).
  void record_negative(const std::string& key, int status,
                       const std::string& reason);

  /// Drops expired negative-cache entries (purge-tick housekeeping).
  void prune_negative();

  /// Removes `key` from store + directory and broadcasts the erase, all in
  /// one commit section. Used by lookup's self-cleanup when the directory
  /// advertises an entry the store can no longer serve. Re-validates under
  /// the mutex and leaves a fresh re-insert untouched.
  void retire_dead_entry(const std::string& key);

  /// Drops every entry matching `pattern` from the store and every table,
  /// optionally announcing the local erases (caller holds commit_mutex_).
  /// Returns local store removals.
  std::size_t drop_matching(const std::string& pattern, bool announce);

  /// `table`'s digest over the records `holder` should hold.
  std::uint64_t digest_of_table(NodeId table, NodeId holder,
                                std::size_t* entries) const;

  /// Shared body of invalidate / on_peer_invalidate: one commit section
  /// dropping matching keys from the store and every directory table, plus
  /// (optionally) the re-broadcast. Returns local store removals.
  /// Rebroadcast (a locally originated invalidate) stamps the next epoch
  /// for this node; the peer path admits (origin, epoch) through the replay
  /// log's duplicate filter first and no-ops on a replay.
  std::size_t apply_invalidation(const std::string& pattern, bool rebroadcast,
                                 NodeId origin, std::uint64_t epoch);

  /// Degradation bookkeeping around one store insert outcome. Returns true
  /// when the insert should not even be attempted (degraded, not a probe).
  bool degraded_should_skip();
  void record_insert_outcome(bool io_failure);

  /// Saves the manifest if `state_file` is set and the checkpoint interval
  /// elapsed. Called from purge_expired (outside the commit mutex: the
  /// store serializes itself, and a slow disk must not stall lookups).
  void maybe_checkpoint();

  NodeId self_;
  ManagerOptions options_;
  const Clock* clock_;
  CooperationBus* bus_;

  std::unique_ptr<CacheStore> store_;
  std::unique_ptr<CacheDirectory> directory_;
  /// Guards members_. Shared: announce_* check membership inside commit
  /// sections; transitions are rare and take the writer side.
  mutable std::shared_mutex members_mutex_;
  std::vector<NodeId> members_;  ///< sorted active set
  /// Everything that depends on the directory mode.
  std::unique_ptr<Locator> locator_;
  std::atomic<std::uint64_t> membership_epoch_{0};
  std::atomic<bool> decommissioning_{false};
  /// Epoch-stamped invalidation replay log (anti-entropy repair). Its own
  /// mutex; epoch assignment/admission happens inside the commit section so
  /// the epoch order matches the store-mutation order.
  InvalidationLog inv_log_;

  /// Guards every local-store membership change together with its directory
  /// update and broadcast enqueue (see file header). Mutable so read-side
  /// diagnostics (debug_check_consistency) can take it on a const manager.
  mutable std::mutex commit_mutex_;
  std::uint64_t commit_seq_ = 0;  ///< guarded by commit_mutex_

  ManagerStats stats_;

  // ---- single-flight state ----
  /// Guards inflight_ and negative_. Never held while waiting: waiters
  /// block on the flight's own mutex/cv so other keys stay unobstructed.
  std::mutex inflight_mutex_;
  std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight_;
  std::unordered_map<std::string, NegativeEntry> negative_;

  // ---- durability state ----
  std::atomic<bool> degraded_{false};
  /// Checkpointing is held off until restore_state has run (set when
  /// `state_file` is configured): the purge daemon starts before the warm
  /// restore, and a checkpoint of the still-empty store would overwrite the
  /// very manifest the restore is about to read. Stays set when the restore
  /// fails for any reason other than a missing manifest, so an unreadable or
  /// newer-format manifest is never clobbered by this process.
  std::atomic<bool> restore_pending_{false};
  std::atomic<int> consecutive_put_failures_{0};
  std::atomic<std::uint64_t> degraded_attempts_{0};  ///< probe cadence
  /// Guards last_checkpoint_time_ and last_scrub_ (cold path only).
  mutable std::mutex durability_mutex_;
  TimeNs last_checkpoint_time_ = 0;
  ScrubReport last_scrub_;
};

}  // namespace swala::core
