#include "core/manager.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <iterator>
#include <numeric>

#include "common/logging.h"
#include "core/locator.h"

namespace swala::core {

/// Waiters block on `cv` until the leader publishes. Held by shared_ptr so
/// a waiter can outlive the map entry.
struct InFlight {
  std::string key;
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;     // guarded by mutex
  bool success = false;  // guarded by mutex
  cgi::CgiOutput output;  ///< valid when success
  int fail_status = 500;
  std::string fail_reason;
};

CacheManager::CacheManager(NodeId self, std::size_t num_nodes,
                           ManagerOptions options, const Clock* clock,
                           CooperationBus* bus, LockingMode locking)
    : self_(self),
      options_(std::move(options)),
      clock_(clock),
      bus_(bus),
      inv_log_(options_.inv_log_entries) {
  members_ = options_.initial_members;
  if (members_.empty()) {
    members_.resize(num_nodes);
    std::iota(members_.begin(), members_.end(), NodeId{0});
  }
  std::sort(members_.begin(), members_.end());
  members_.erase(std::unique(members_.begin(), members_.end()),
                 members_.end());
  std::unique_ptr<StorageBackend> backend;
  if (options_.disk_dir.empty()) {
    backend = std::make_unique<MemoryBackend>();
  } else if (options_.store == StoreBackendKind::kVolume) {
    backend = std::make_unique<VolumeBackend>(options_.disk_dir,
                                              options_.volume,
                                              options_.fs_ops, clock_);
  } else {
    backend = std::make_unique<DiskBackend>(options_.disk_dir,
                                            options_.fs_ops);
  }
  store_ = std::make_unique<CacheStore>(options_.limits, options_.policy,
                                        std::move(backend), clock_, self_);
  directory_ = std::make_unique<CacheDirectory>(self_, num_nodes, locking);
  directory_->set_clock(clock_);
  LocatorContext context;
  context.self = self_;
  context.clock = clock_;
  context.bus = bus_;
  context.directory = directory_.get();
  context.store = store_.get();
  context.stats = &stats_;
  context.fetch = [this](const EntryMeta& meta, const Deadline& deadline,
                         LookupResult* out) {
    return fetch_hit_from(out, meta, deadline);
  };
  locator_ = make_locator(options_, std::move(context), members_);
  restore_pending_.store(!options_.state_file.empty(),
                         std::memory_order_relaxed);
}

CacheManager::~CacheManager() = default;

CacheKey CacheManager::key_for(http::Method method, const http::Uri& uri) {
  return CacheKey::make(http::method_name(method), uri.canonical());
}

LookupResult CacheManager::lookup(http::Method method, const http::Uri& uri,
                                  const Deadline& deadline) {
  ++stats_.lookups;
  LookupResult out;
  out.rule = options_.rules.classify(uri.path);
  if (!out.rule.cacheable) {
    ++stats_.uncacheable;
    out.outcome = LookupOutcome::kUncacheable;
    return out;
  }

  const CacheKey key = key_for(method, uri);
  const auto dir_hit = directory_->lookup(key.text);

  if (dir_hit && dir_hit->owner == self_) {
    auto local = store_->fetch(key.text);
    if (local) {
      ++stats_.local_hits;
      out.outcome = LookupOutcome::kHit;
      out.result = std::move(*local);
      out.owner = self_;
      return out;
    }
    // Directory said we own it but the store disagrees (expired between the
    // two checks, or data file lost). Retire the entry from both sides in
    // one commit section, then execute.
    retire_dead_entry(key.text);
  } else if (dir_hit) {
    // A peer's copy advertised by a local table.
    if (fetch_hit_from(&out, *dir_hit, deadline).is_ok()) return out;
  } else if (bus_ != nullptr && locator_->find(key.text, deadline, &out)) {
    return out;  // no local knowledge: the locator found a copy elsewhere
  }

  ++stats_.misses;
  out.outcome = LookupOutcome::kMissMustExecute;
  return finish_miss(std::move(out), key.text);
}

Status CacheManager::fetch_hit_from(LookupResult* out, const EntryMeta& meta,
                                    const Deadline& deadline) {
  if (bus_ == nullptr) return Status(StatusCode::kUnavailable, "no bus");
  // budget_ms(0) is 0 (= the transport's own timeout) when unlimited.
  auto remote = bus_->fetch_remote(meta.owner, meta.key, deadline.budget_ms(0));
  if (remote) {
    ++stats_.remote_hits;
    out->outcome = LookupOutcome::kHit;
    out->result = std::move(remote.value());
    out->remote = true;
    out->owner = meta.owner;
    return Status::ok();
  }
  if (remote.status().code() == StatusCode::kNotFound) {
    // False hit (§4.2): the entry was deleted at the caching node before
    // the directory caught up. Execute locally, per Figure 2.
    ++stats_.false_hits;
    directory_->apply_erase(meta.owner, meta.key);
    return remote.status();
  }
  // Timeout, dead peer, torn connection: degrade gracefully by running the
  // CGI locally instead of failing the client request.
  ++stats_.fallback_executions;
  SWALA_LOG(Warn) << "remote fetch from node " << meta.owner << " failed ("
                  << remote.status().to_string()
                  << "); falling back to local execution";
  return remote.status();
}

void CacheManager::announce_insert(const EntryMeta& meta) {
  if (bus_ == nullptr) return;
  // A node that is not (yet) a member of its own view serves stand-alone:
  // no directory chatter until the join protocol admits it. Peers would
  // wipe its table on admission anyway (member_joined clears it);
  // adopt_membership re-announces the resident store at that point.
  if (!is_member(self_)) return;
  locator_->announce_insert(meta);
}

bool CacheManager::announce_erase(const std::string& key,
                                  std::uint64_t version) {
  if (bus_ == nullptr) return false;
  if (!is_member(self_)) return false;  // stand-alone until admitted
  return locator_->announce_erase(key, version);
}

LookupResult CacheManager::finish_miss(LookupResult out,
                                       const std::string& key) {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  // Negative cache: a recent execution failure for this key is remembered;
  // fail fast instead of re-forking a CGI that just failed.
  if (auto it = negative_.find(key); it != negative_.end()) {
    if (clock_ != nullptr && clock_->now() < it->second.expires) {
      ++stats_.failed_fast;
      out.outcome = LookupOutcome::kFailedFast;
      out.fail_status = it->second.status;
      out.fail_reason = it->second.reason;
      return out;
    }
    negative_.erase(it);
  }
  auto [it, inserted] = inflight_.try_emplace(key, nullptr);
  if (inserted) {
    it->second = std::make_shared<InFlight>();
    it->second->key = key;
    return out;  // leader: kMissMustExecute; MUST complete() or fail()
  }
  out.outcome = LookupOutcome::kPending;
  out.flight = it->second;
  return out;
}

LookupResult CacheManager::await(LookupResult pending,
                                 const Deadline& deadline) {
  LookupResult out = std::move(pending);
  const std::shared_ptr<InFlight> flight = std::move(out.flight);
  if (out.outcome != LookupOutcome::kPending || flight == nullptr) return out;

  // Block on the leader's flight (its own mutex/cv — never the map mutex)
  // until it publishes or our own deadline runs out. Short slices so a
  // ManualClock advanced by a test is noticed without real time passing.
  std::unique_lock<std::mutex> lock(flight->mutex);
  while (!flight->done) {
    if (deadline.expired()) {
      ++stats_.coalesce_timeouts;
      out.outcome = LookupOutcome::kFailedFast;
      out.fail_status = 503;
      out.fail_reason = "deadline expired waiting for in-flight execution";
      return out;
    }
    flight->cv.wait_for(lock,
                        std::chrono::milliseconds(deadline.budget_ms(50)));
  }

  ++stats_.coalesced_misses;
  if (!flight->success) {
    out.outcome = LookupOutcome::kFailedFast;
    out.fail_status = flight->fail_status;
    out.fail_reason = flight->fail_reason;
    return out;
  }
  out.outcome = LookupOutcome::kHit;
  out.coalesced = true;
  out.owner = self_;
  out.result.meta.key = flight->key;
  out.result.meta.owner = self_;
  out.result.meta.content_type = flight->output.content_type;
  out.result.meta.http_status = flight->output.http_status;
  out.result.meta.size_bytes = flight->output.size_bytes();
  out.result.data = flight->output.body;
  return out;
}

void CacheManager::publish_execution(const std::string& key, bool success,
                                     const cgi::CgiOutput* output,
                                     int fail_status,
                                     const std::string& fail_reason) {
  std::shared_ptr<InFlight> flight;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    auto it = inflight_.find(key);
    if (it == inflight_.end()) return;  // no single-flight leader for key
    flight = std::move(it->second);
    inflight_.erase(it);
  }
  {
    std::lock_guard<std::mutex> lock(flight->mutex);
    flight->done = true;
    flight->success = success;
    if (success && output != nullptr) {
      flight->output = *output;
    } else {
      flight->fail_status = fail_status;
      flight->fail_reason = fail_reason;
    }
  }
  flight->cv.notify_all();
}

void CacheManager::record_negative(const std::string& key, int status,
                                   const std::string& reason) {
  if (options_.negative_ttl_seconds <= 0.0 || clock_ == nullptr) return;
  NegativeEntry entry;
  entry.expires =
      clock_->now() + from_seconds(options_.negative_ttl_seconds);
  entry.status = status;
  entry.reason = reason;
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  negative_[key] = std::move(entry);
}

void CacheManager::prune_negative() {
  if (clock_ == nullptr) return;
  const TimeNs now = clock_->now();
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  for (auto it = negative_.begin(); it != negative_.end();) {
    it = now >= it->second.expires ? negative_.erase(it) : std::next(it);
  }
}

void CacheManager::fail(http::Method method, const http::Uri& uri,
                        const RuleDecision& rule, int http_status,
                        const std::string& reason, bool remember) {
  if (!rule.cacheable) return;
  const CacheKey key = key_for(method, uri);
  if (remember) {
    ++stats_.failed_exec;
    record_negative(key.text, http_status, reason);
  }
  publish_execution(key.text, /*success=*/false, nullptr, http_status, reason);
}

void CacheManager::complete(http::Method method, const http::Uri& uri,
                            const RuleDecision& rule,
                            const cgi::CgiOutput& output,
                            double exec_seconds) {
  if (!rule.cacheable) return;
  const CacheKey key = key_for(method, uri);
  if (!output.success || output.http_status >= 400) {
    ++stats_.failed_exec;
    // Remember the failure so the next misses within negative_ttl fail
    // fast, and hand waiters the error rather than the cached-path result.
    record_negative(key.text,
                    output.http_status >= 400 ? output.http_status : 502,
                    "CGI execution failed");
    publish_execution(key.text, /*success=*/false, nullptr,
                      output.http_status >= 400 ? output.http_status : 502,
                      "CGI execution failed");
    return;
  }
  // Waiters get the output even when it is too fast to cache or the store
  // is degraded — the execution succeeded, so coalesced requests must not
  // see an error. Published before any early return below.
  publish_execution(key.text, /*success=*/true, &output, 0, {});
  if (exec_seconds < rule.min_exec_seconds) {
    ++stats_.below_threshold;
    return;
  }

  // Leaving the cluster: the decommission handoff snapshot must not race
  // fresh inserts into the departing store (the response still went out).
  if (decommissioning_.load(std::memory_order_relaxed)) return;

  // Disk gone bad: serve uncacheable instead of hammering a failing device
  // on every request (the response itself was already produced).
  if (degraded_should_skip()) {
    ++stats_.degraded_skips;
    return;
  }

  std::lock_guard<std::mutex> commit(commit_mutex_);
  commit_insert(key, output.body, exec_seconds, rule.ttl_seconds,
                output.content_type, output.http_status);
}

bool CacheManager::commit_insert(const CacheKey& key, const std::string& body,
                                 double cost_seconds, double ttl_seconds,
                                 const std::string& content_type,
                                 int http_status) {
  // The store insert, the eviction victims' directory erases, the new
  // entry's directory insert, and all broadcast enqueues publish as one
  // unit. The victims' versions are read and applied inside the same
  // section, so a concurrent re-insert of a victim key cannot be erased
  // with a stale version.
  std::vector<EntryMeta> evicted;
  auto inserted = store_->insert(key, body, cost_seconds, ttl_seconds,
                                 content_type, http_status, &evicted);
  for (const auto& victim : evicted) {
    directory_->apply_erase(self_, victim.key, victim.version);
    if (announce_erase(victim.key, victim.version)) {
      ++stats_.evictions_broadcast;
    }
  }
  record_insert_outcome(!inserted &&
                        inserted.status().code() == StatusCode::kIoError);
  if (!inserted) {
    SWALA_LOG(Debug) << "insert rejected: " << inserted.status().to_string();
    if (!evicted.empty()) ++commit_seq_;
    return false;
  }
  ++stats_.inserts;
  directory_->apply_insert(inserted.value());
  announce_insert(inserted.value());
  ++commit_seq_;
  return true;
}

void CacheManager::retire_dead_entry(const std::string& key) {
  std::lock_guard<std::mutex> commit(commit_mutex_);
  // Re-validate: another thread may have replaced the entry between our
  // failed fetch and this commit section. peek() hides expired entries, so
  // a live meta means a fresh re-insert we must not disturb.
  if (store_->peek(key).has_value()) return;
  const auto dead = store_->erase(key);
  directory_->apply_erase(self_, key, dead ? dead->version : 0);
  if (dead) announce_erase(key, dead->version);
  ++commit_seq_;
}

void CacheManager::on_peer_insert(const EntryMeta& meta) {
  if (meta.owner == self_) return;  // our own broadcast echoed back
  // False-miss evidence (§4.2): if we also cached this key locally, both
  // nodes executed the same request — one execution was avoidable.
  if (store_->contains(meta.key)) {
    ++stats_.false_misses;
  }
  directory_->apply_insert(meta);
}

void CacheManager::on_peer_erase(NodeId owner, const std::string& key,
                                 std::uint64_t version) {
  if (owner == self_) return;
  directory_->apply_erase(owner, key, version);
}

Result<CachedResult> CacheManager::serve_peer_fetch(const std::string& key) {
  auto local = store_->fetch(key);
  if (!local) {
    return Status(StatusCode::kNotFound, "not cached here: " + key);
  }
  return std::move(*local);
}

std::size_t CacheManager::purge_expired() {
  std::size_t count = 0;
  {
    std::lock_guard<std::mutex> commit(commit_mutex_);
    const auto purged = store_->purge_expired();
    for (const auto& meta : purged) {
      directory_->apply_erase(self_, meta.key, meta.version);
      announce_erase(meta.key, meta.version);
    }
    if (!purged.empty()) ++commit_seq_;
    count = purged.size();
  }
  // Outside the commit mutex: a slow disk during the checkpoint must not
  // stall request threads (the store serializes itself internally).
  maybe_checkpoint();
  prune_negative();
  // A run of erase (unlink) failures is the same dying-disk signal as a run
  // of put failures — feed it into the degradation path so leaked space
  // from failed unlinks can't accumulate unnoticed. The existing probe
  // inserts recover the store once the disk heals.
  if (!degraded_.load(std::memory_order_relaxed) &&
      options_.disk_failure_threshold > 0 &&
      store_->storage_counters().consecutive_erase_failures >=
          static_cast<std::uint64_t>(options_.disk_failure_threshold)) {
    if (!degraded_.exchange(true, std::memory_order_relaxed)) {
      SWALA_LOG(Error) << "node " << self_
                       << ": repeated erase failures; cache store degraded "
                          "to serve-uncacheable mode";
    }
  }
  return count;
}

bool CacheManager::degraded_should_skip() {
  if (!degraded_.load(std::memory_order_relaxed)) return false;
  const auto n = degraded_attempts_.fetch_add(1, std::memory_order_relaxed);
  const int every = options_.degraded_probe_every > 0
                        ? options_.degraded_probe_every
                        : 1;
  return n % static_cast<std::uint64_t>(every) != 0;  // probe occasionally
}

void CacheManager::record_insert_outcome(bool io_failure) {
  if (!io_failure) {
    consecutive_put_failures_.store(0, std::memory_order_relaxed);
    if (degraded_.exchange(false, std::memory_order_relaxed)) {
      SWALA_LOG(Info) << "node " << self_
                      << ": cache store recovered; caching re-enabled";
    }
    return;
  }
  ++stats_.disk_errors;
  const int failures =
      consecutive_put_failures_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (failures >= options_.disk_failure_threshold &&
      !degraded_.exchange(true, std::memory_order_relaxed)) {
    SWALA_LOG(Error) << "node " << self_ << ": " << failures
                     << " consecutive disk failures; cache store degraded to "
                        "serve-uncacheable mode";
  }
}

void CacheManager::maybe_checkpoint() {
  if (options_.state_file.empty()) return;
  // The purge daemon can tick before the warm restore; checkpointing then
  // would overwrite the manifest the restore is about to read.
  if (restore_pending_.load(std::memory_order_relaxed)) return;
  {
    std::lock_guard<std::mutex> lock(durability_mutex_);
    const TimeNs now = clock_->now();
    if (last_checkpoint_time_ != 0 &&
        to_seconds(now - last_checkpoint_time_) <
            options_.checkpoint_interval_seconds) {
      return;
    }
    last_checkpoint_time_ = now;
  }
  if (auto st = store_->save_manifest(options_.state_file); st.is_ok()) {
    ++stats_.checkpoints;
  } else {
    ++stats_.checkpoint_failures;
    SWALA_LOG(Warn) << "manifest checkpoint failed: " << st.to_string();
  }
}

std::size_t CacheManager::invalidate(const std::string& pattern) {
  return apply_invalidation(pattern, /*rebroadcast=*/true, self_, 0);
}

std::size_t CacheManager::on_peer_invalidate(const std::string& pattern,
                                             NodeId origin,
                                             std::uint64_t epoch) {
  return apply_invalidation(pattern, /*rebroadcast=*/false, origin, epoch);
}

void CacheManager::on_peer_dead(NodeId peer) {
  if (peer == self_) return;
  directory_->set_quarantined(peer, true);
  SWALA_LOG(Warn) << "node " << self_ << ": peer " << peer
                  << " declared dead; directory table quarantined";
}

void CacheManager::on_peer_recovered(NodeId peer) {
  if (peer == self_) return;
  const auto dropped = directory_->clear_table(peer);
  directory_->set_quarantined(peer, false);
  SWALA_LOG(Info) << "node " << self_ << ": peer " << peer
                  << " recovered; dropped " << dropped
                  << " stale directory entries pending resync";
}

// ---- Dynamic membership (PR10) ----

std::uint64_t CacheManager::membership_epoch() const {
  return membership_epoch_.load(std::memory_order_relaxed);
}

std::vector<NodeId> CacheManager::active_members() const {
  std::shared_lock lock(members_mutex_);
  return members_;
}

bool CacheManager::is_member(NodeId node) const {
  std::shared_lock lock(members_mutex_);
  return std::binary_search(members_.begin(), members_.end(), node);
}

CacheManager::HandoffStats CacheManager::member_joined(NodeId node) {
  return change_membership(node, /*joined=*/true);
}

CacheManager::HandoffStats CacheManager::member_left(NodeId node) {
  if (node == self_) return {};  // self-removal goes via decommission
  return change_membership(node, /*joined=*/false);
}

CacheManager::HandoffStats CacheManager::change_membership(NodeId node,
                                                           bool joined) {
  {
    std::unique_lock lock(members_mutex_);
    const auto pos = std::lower_bound(members_.begin(), members_.end(), node);
    const bool present = pos != members_.end() && *pos == node;
    if (present == joined) return {};  // idempotent
    if (joined) {
      members_.insert(pos, node);
    } else {
      members_.erase(pos);
    }
  }
  membership_epoch_.fetch_add(1, std::memory_order_relaxed);
  ++stats_.membership_transitions;
  if (node != self_) {
    // Drop the slot's stale state unquarantined: a joiner starts a new
    // life, a leaver handed its state off (quarantine is for deaths).
    directory_->clear_table(node);
    directory_->set_quarantined(node, false);
  }
  const HandoffStats stats = locator_->member_changed(node, joined);
  SWALA_LOG(Info) << "node " << self_ << ": member " << node
                  << (joined ? " joined" : " left") << " (epoch "
                  << membership_epoch() << "); forwarded "
                  << stats.records + stats.entries << " remapped records";
  return stats;
}

void CacheManager::adopt_membership(std::uint64_t epoch,
                                    const std::vector<NodeId>& members) {
  std::vector<NodeId> sorted(members);
  sorted.push_back(self_);  // whatever the responder says, we exist
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  bool changed = false;
  {
    std::unique_lock lock(members_mutex_);
    if (sorted != members_) {
      members_ = sorted;
      changed = true;
    }
  }
  // Advance to at least the responder's epoch: we were not around for the
  // transitions it already applied.
  auto current = membership_epoch_.load(std::memory_order_relaxed);
  while (epoch > current &&
         !membership_epoch_.compare_exchange_weak(current, epoch,
                                                  std::memory_order_relaxed)) {
  }
  if (changed) {
    locator_->adopt_members(sorted);
    ++stats_.membership_transitions;
    // Introduce the local cache to the adopted cluster. Entries cached
    // while stand-alone (or under the old view) have no records at the
    // new directory owners — and peers wiped this node's table on
    // admission — so without this they would be invisible forever.
    std::size_t announced = 0;
    if (bus_ != nullptr) {
      for (const auto& meta : store_->resident_metas()) {
        announce_insert(meta);
        ++announced;
      }
    }
    stats_.handoff_records_sent += announced;
    SWALA_LOG(Info) << "node " << self_ << ": adopted membership view ("
                    << members.size() << " members, epoch " << epoch
                    << "); announced " << announced << " resident entries";
  }
}

void CacheManager::begin_decommission() {
  if (!decommissioning_.exchange(true, std::memory_order_relaxed)) {
    SWALA_LOG(Info) << "node " << self_
                    << ": decommissioning; new inserts suspended";
  }
}

bool CacheManager::decommissioning() const {
  return decommissioning_.load(std::memory_order_relaxed);
}

CacheManager::HandoffStats CacheManager::handoff_state(
    std::uint64_t batch_bytes) {
  HandoffStats stats;
  if (bus_ == nullptr) return stats;
  // begin_decommission already stopped inserts, so the snapshot only races
  // expiry (fetch() re-checks and skips).
  const std::vector<NodeId> members = active_members();
  for (const auto& meta : store_->resident_metas()) {
    const NodeId succ = locator_->successor_for(meta.key, members);
    if (succ == self_) continue;  // no survivor to take it
    auto cached = store_->fetch(meta.key);
    if (!cached) continue;  // expired between snapshot and read
    if (batch_bytes != 0 && cached->data.size() > batch_bytes) {
      SWALA_LOG(Warn) << "decommission: dropping " << meta.key
                      << " (body exceeds cluster.handoff_batch_bytes)";
      continue;
    }
    bus_->send_handoff(succ, cached->meta, cached->data);
    ++stats.entries;
  }
  stats.records = locator_->forward_records();
  stats_.handoff_entries_sent += stats.entries;
  stats_.handoff_records_sent += stats.records;
  SWALA_LOG(Info) << "node " << self_ << ": handed off " << stats.entries
                  << " entries and " << stats.records
                  << " directory records to successors";
  return stats;
}

bool CacheManager::adopt_entry(const EntryMeta& meta, const std::string& body) {
  if (decommissioning_.load(std::memory_order_relaxed)) return false;
  double ttl = 0.0;
  if (meta.expire_time != 0) {
    if (clock_ == nullptr) return false;
    ttl = to_seconds(meta.expire_time - clock_->now());
    if (ttl <= 0.0) return false;  // arrived already expired
  }
  if (degraded_should_skip()) {
    ++stats_.degraded_skips;
    return false;
  }
  std::lock_guard<std::mutex> commit(commit_mutex_);
  // A live local entry wins: it is at least as fresh as the handed-off copy
  // (versions are per-store counters and do not compare across nodes).
  if (store_->peek(meta.key).has_value()) return false;
  CacheKey key;
  key.text = meta.key;
  if (!commit_insert(key, body, meta.cost_seconds, ttl, meta.content_type,
                     meta.http_status)) {
    return false;
  }
  ++stats_.handoff_entries_adopted;
  return true;
}

std::size_t CacheManager::apply_invalidation(const std::string& pattern,
                                             bool rebroadcast, NodeId origin,
                                             std::uint64_t epoch) {
  std::lock_guard<std::mutex> commit(commit_mutex_);
  std::uint64_t stamped_epoch = epoch;
  if (rebroadcast) {
    // Locally originated: stamp the next epoch inside the commit section so
    // the epoch order matches the store-mutation order.
    stamped_epoch = inv_log_.originate(self_, pattern).epoch;
  } else {
    InvalidationRecord rec;
    rec.origin = origin;
    rec.epoch = epoch;
    rec.pattern = pattern;
    if (!inv_log_.admit(rec)) return 0;  // replayed frame: exact no-op
  }
  const std::size_t dropped = drop_matching(pattern, /*announce=*/false);
  if (rebroadcast && bus_ != nullptr) {
    bus_->broadcast_invalidate(pattern, stamped_epoch);
  }
  ++commit_seq_;
  return dropped;
}

std::size_t CacheManager::drop_matching(const std::string& pattern,
                                        bool announce) {
  const auto dropped = store_->erase_matching(pattern);
  directory_->erase_matching(pattern);
  for (const auto& meta : dropped) {
    if (announce) announce_erase(meta.key, meta.version);
  }
  stats_.invalidations += dropped.size();
  return dropped.size();
}

std::size_t CacheManager::apply_inv_sync(
    const std::vector<InvalidationRecord>& entries, bool truncated) {
  std::size_t applied = 0;
  {
    std::lock_guard<std::mutex> commit(commit_mutex_);
    // The erases are announced: survivors' peer tables were re-polluted by
    // the additions-only resync and must drop the stale records too.
    for (const auto& rec : entries) {
      if (!inv_log_.admit(rec)) continue;  // replay: no-op
      stats_.stale_serves_prevented += drop_matching(rec.pattern, true);
      ++applied;
      ++stats_.inv_epoch_gaps_repaired;
    }
    if (truncated) {
      // The peer's log evicted records we needed. Conservatively drop
      // everything cached before the gap rather than stay stale forever.
      stats_.stale_serves_prevented += drop_matching("*", true);
      ++stats_.inv_overflow_purges;
    }
    if (applied > 0 || truncated) ++commit_seq_;
  }
  if (applied > 0) {
    SWALA_LOG(Info) << "node " << self_ << ": repaired " << applied
                    << " missed invalidation(s) via anti-entropy pull";
  }
  return applied;
}

std::uint64_t CacheManager::digest_for_peer(NodeId peer,
                                            std::size_t* entries) const {
  return digest_of_table(self_, peer, entries);
}

std::uint64_t CacheManager::digest_of_peer_table(NodeId peer,
                                                 std::size_t* entries) const {
  return digest_of_table(peer, self_, entries);
}

std::uint64_t CacheManager::digest_of_table(NodeId table, NodeId holder,
                                            std::size_t* entries) const {
  // Order-independent xor of mixed (key, version) terms: mix64 decorrelates
  // the terms so a single-bit version bump flips ~half the digest bits.
  // Only the records `holder` should hold count: a mis-routed record parked
  // in a partitioned table cannot cause a persistent mismatch.
  std::uint64_t d = 0;
  std::size_t n = 0;
  for (const auto& [key, version] : directory_->key_versions_at(table)) {
    const auto should_hold = locator_->record_holder(key);
    if (should_hold && *should_hold != holder) continue;
    d ^= mix64(fnv1a64(key) ^ version * 0x9E3779B97F4A7C15ULL);
    ++n;
  }
  if (entries != nullptr) *entries = n;
  return d;
}

Status CacheManager::save_state(const std::string& manifest_path) {
  return store_->save_manifest(manifest_path);
}

Result<std::size_t> CacheManager::restore_state(
    const std::string& manifest_path) {
  std::lock_guard<std::mutex> commit(commit_mutex_);
  auto restored = store_->load_manifest(manifest_path);
  if (!restored &&
      restored.status().code() != StatusCode::kNotFound) {
    // Unreadable or newer-format manifest: leave the directory contents
    // alone (no scrub — a rollback must not destroy a newer deployment's
    // files) and surface the error. restore_pending_ stays set, so this
    // process will never checkpoint over the manifest either.
    return restored.status();
  }
  restore_pending_.store(false, std::memory_order_relaxed);
  const std::size_t count = restored ? restored.value() : 0;
  for (const auto& meta : store_->resident_metas()) {
    directory_->apply_insert(meta);
    announce_insert(meta);
  }
  // fsck: corrupt files were quarantined during adoption; now drop orphans
  // (torn puts the crash cut off, entries skipped as expired) and temps.
  // Runs even when the manifest is missing, so a first boot over a dirty
  // directory comes up clean.
  const ScrubReport report = store_->scrub_backend();
  {
    std::lock_guard<std::mutex> lock(durability_mutex_);
    last_scrub_ = report;
  }
  SWALA_LOG(Info) << "restore_state: " << count << " entries restored, "
                  << report.quarantined << " quarantined, "
                  << report.orphans_removed << " orphans and "
                  << report.temps_removed << " temp files removed";
  ++commit_seq_;
  if (!restored) return restored.status();  // kNotFound: scrubbed, 0 restored
  return restored;
}

ScrubReport CacheManager::last_scrub() const {
  std::lock_guard<std::mutex> lock(durability_mutex_);
  return last_scrub_;
}

ConsistencyReport CacheManager::debug_check_consistency() const {
  std::lock_guard<std::mutex> commit(commit_mutex_);
  return check_store_directory_consistency(*store_, *directory_);
}

std::uint64_t CacheManager::commit_sequence() const {
  std::lock_guard<std::mutex> commit(commit_mutex_);
  return commit_seq_;
}

ManagerStats CacheManager::stats() const {
  ManagerStats s = stats_;
  s.store_degraded = degraded_.load(std::memory_order_relaxed) ? 1 : 0;
  return s;
}

}  // namespace swala::core
