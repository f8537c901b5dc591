#include "cluster/protocol.h"

#include <algorithm>

#include "common/logging.h"

namespace swala::cluster {

const char* peer_state_name(PeerState state) {
  switch (state) {
    case PeerState::kHealthy: return "healthy";
    case PeerState::kSuspect: return "suspect";
    case PeerState::kDead: return "dead";
  }
  return "?";
}

bool is_data_request(MsgType type) {
  return type == MsgType::kFetchReq || type == MsgType::kQuery ||
         type == MsgType::kInvSync || type == MsgType::kJoin;
}

Protocol::Protocol(core::NodeId self, std::size_t nodes,
                   const GroupOptions& options, const Clock* clock)
    : self_(self), options_(options), clock_(clock) {
  const auto& initial = options_.initial_active;
  for (core::NodeId id = 0; id < nodes; ++id) {
    if (id == self_) continue;
    auto peer = std::make_unique<Peer>();
    peer->id = id;
    if (!initial.empty()) {
      peer->active.store(
          std::find(initial.begin(), initial.end(), id) != initial.end(),
          std::memory_order_relaxed);
    }
    peers_.push_back(std::move(peer));
  }
  reset();
}

void Protocol::close_breaker(Peer* peer) {
  std::lock_guard<std::mutex> lock(peer->mutex);
  peer->state = PeerState::kHealthy;
  peer->consecutive_failures = 0;
  peer->mismatch_pending = false;
}

void Protocol::reset() {
  for (auto& peer : peers_) close_breaker(peer.get());
  std::lock_guard<std::mutex> lock(timer_mutex_);
  next_anti_entropy_ =
      clock_->now() + from_millis(options_.anti_entropy_interval_ms);
}

Protocol::Peer* Protocol::find(core::NodeId id) const {
  for (const auto& peer : peers_) {
    if (peer->id == id) return peer.get();
  }
  return nullptr;
}

PeerState Protocol::state_of(const Peer* peer) const {
  std::lock_guard<std::mutex> lock(peer->mutex);
  return peer->state;
}

void Protocol::count_drop(Peer* peer) {
  peer->dropped.fetch_add(1, std::memory_order_relaxed);
  ++stats_.messages_dropped;
}

void Protocol::trace(const std::string& text, bool warn) const {
  const std::string line = "node " + std::to_string(self_) + ": " + text;
  if (tracer_) {
    tracer_(line);
  } else if (warn) {
    SWALA_LOG(Warn) << line;
  } else {
    SWALA_LOG(Info) << line;
  }
}

// ---- circuit breaker ----

void Protocol::record_failure(Peer* peer) {
  ++stats_.peer_failures;
  peer->total_failures.fetch_add(1, std::memory_order_relaxed);
  const TimeNs next_probe =
      clock_->now() + from_millis(options_.probe_interval_ms);
  std::lock_guard<std::mutex> lock(peer->mutex);
  ++peer->consecutive_failures;
  if (peer->state == PeerState::kDead) {
    // Failed probe: stay dead, push the next probe out.
    peer->next_probe = next_probe;
    return;
  }
  if (peer->consecutive_failures < options_.failure_threshold) {
    peer->state = PeerState::kSuspect;
    return;
  }
  peer->state = PeerState::kDead;
  peer->next_probe = next_probe;
  trace("peer " + std::to_string(peer->id) + " marked dead after " +
            std::to_string(peer->consecutive_failures) +
            " consecutive failures",
        /*warn=*/true);
  // Quarantine inside the transition so a racing recovery cannot leave the
  // directory visible for a peer we just wrote off.
  if (core::CacheManager* m = manager()) m->on_peer_dead(peer->id);
}

void Protocol::record_success(Peer* peer, Outbox* out) {
  std::lock_guard<std::mutex> lock(peer->mutex);
  const bool recovered = peer->state == PeerState::kDead;
  peer->state = PeerState::kHealthy;
  peer->consecutive_failures = 0;
  if (!recovered) return;
  trace("peer " + std::to_string(peer->id) + " recovered; requesting resync");
  if (core::CacheManager* m = manager()) m->on_peer_recovered(peer->id);
  // Converge both directions: ask the peer to re-announce its entries to
  // us, and re-announce ours to it (it may have restarted with a blank view
  // of this node's table).
  ++stats_.resyncs_requested;
  out->push_back({peer->id, Message::sync_req(self_)});
  push_state_to(peer->id, out);
}

Outbox Protocol::on_send_result(core::NodeId peer, bool ok) {
  Outbox out;
  Peer* p = find(peer);
  if (p != nullptr && ok) record_success(p, &out);
  if (p != nullptr && !ok) record_failure(p);
  return out;
}

void Protocol::push_state_to(core::NodeId peer, Outbox* out) {
  core::CacheManager* m = manager();
  if (m == nullptr) return;
  const auto mode = m->directory_mode();
  if (mode == core::DirectoryMode::kQuery) return;  // no remote state to sync
  for (const auto& meta : m->store().resident_metas()) {
    if (mode == core::DirectoryMode::kReplicated) {
      out->push_back({peer, Message::insert(self_, meta)});
    } else if (m->ring_owner_of(meta.key) == peer) {
      // Partitioned: a rejoining owner lost its partition; re-announce only
      // the entries it owns (every survivor does this, so the owner's view
      // of the whole partition converges).
      out->push_back({peer, Message::owner_insert(self_, meta)});
    }
  }
}

Message Protocol::make_hello() const {
  // The epoch vector rides every greeting/probe, so the first exchange
  // after a rejoin already exposes any invalidation gap; the membership
  // epoch rides along so divergent views surface too. Before attach() there
  // is no log yet: an empty vector and membership epoch 0.
  core::CacheManager* m = manager();
  if (m == nullptr) return Message::hello(self_, {}, 0);
  return Message::hello(self_, m->inv_high_vector(), m->membership_epoch());
}

// ---- timers ----

void Protocol::probe_dead_peers(Outbox* out) {
  const TimeNs now = clock_->now();
  for (auto& peer : peers_) {
    if (!peer->active.load(std::memory_order_acquire)) continue;
    std::lock_guard<std::mutex> lock(peer->mutex);
    if (peer->state != PeerState::kDead || now < peer->next_probe) continue;
    peer->next_probe = now + from_millis(options_.probe_interval_ms);
    peer->probes.fetch_add(1, std::memory_order_relaxed);
    ++stats_.probes_sent;
    out->push_back({peer->id, make_hello()});
  }
}

void Protocol::anti_entropy_round(Outbox* out) {
  core::CacheManager* m = manager();
  if (m == nullptr) return;
  // A node outside the membership (pre-join stand-alone) or on its way out
  // (decommissioning, drain-only) does not gossip: its digests would read
  // as permanent drift to peers that already cleared its table.
  if (!m->is_member(self_) || m->decommissioning()) return;
  ++stats_.anti_entropy_rounds;
  const auto high = m->inv_high_vector();
  // Query mode keeps no remote directory state to compare, so its digest
  // is omitted; the epoch vector still repairs lost invalidations.
  const bool has_digest = m->directory_mode() != core::DirectoryMode::kQuery;
  for (auto& peer : peers_) {
    if (!peer->active.load(std::memory_order_acquire)) continue;
    if (state_of(peer.get()) == PeerState::kDead) continue;  // probes do it
    std::size_t entries = 0;
    const std::uint64_t digest =
        has_digest ? m->digest_for_peer(peer->id, &entries) : 0;
    ++stats_.digests_sent;
    out->push_back(
        {peer->id, Message::make_digest(self_, high, has_digest, digest)});
  }
}

Outbox Protocol::tick() {
  Outbox out;
  // Half-open probing rides the fine-grained tick; so does the digest round,
  // on its own (usually longer) cadence that bounds the staleness window.
  probe_dead_peers(&out);
  if (options_.anti_entropy_interval_ms <= 0) return out;
  {
    const TimeNs now = clock_->now();
    std::lock_guard<std::mutex> lock(timer_mutex_);
    if (now < next_anti_entropy_) return out;
    next_anti_entropy_ = now + from_millis(options_.anti_entropy_interval_ms);
  }
  anti_entropy_round(&out);
  return out;
}

// ---- anti-entropy repair ----

void Protocol::maybe_pull_inv_sync(core::NodeId peer,
                                   const core::EpochVector& high,
                                   Outbox* out) {
  if (high.empty()) return;
  core::CacheManager* m = manager();
  if (m == nullptr || !m->inv_behind(high)) return;
  ++stats_.inv_syncs_pulled;
  trace("epoch gap behind node " + std::to_string(peer) + "; pulling");
  out->push_back({peer, Message::inv_sync(self_, m->inv_floor_vector())});
}

void Protocol::check_digest(core::NodeId peer, std::uint64_t digest,
                            Outbox* out) {
  core::CacheManager* m = manager();
  Peer* p = find(peer);
  if (m == nullptr || p == nullptr) return;
  std::size_t entries = 0;
  const std::uint64_t local = m->digest_of_peer_table(peer, &entries);
  {
    std::lock_guard<std::mutex> lock(p->mutex);
    if (p->state == PeerState::kDead) return;  // rejoin machinery owns it
    if (local == digest) {
      p->mismatch_pending = false;
      return;
    }
    if (!p->mismatch_pending || p->last_peer_digest != digest ||
        p->last_local_digest != local) {
      p->mismatch_pending = true;
      p->last_peer_digest = digest;
      p->last_local_digest = local;
      return;
    }
    // Same mismatch two rounds in a row with nothing moving on either side:
    // real drift (a lost kInsert/kOwnerUpdate), not an in-flight update
    // racing the snapshot.
    p->mismatch_pending = false;
  }
  ++stats_.digest_repairs;
  trace("directory digest drift vs peer " + std::to_string(peer) +
            " persisted two rounds; resyncing",
        /*warn=*/true);
  // Same flow as a rejoin: drop our stale view of the peer's table and ask
  // it to re-announce.
  m->on_peer_recovered(peer);
  ++stats_.resyncs_requested;
  out->push_back({peer, Message::sync_req(self_)});
}

// ---- info channel ----

Outbox Protocol::on_info(const Message& msg) {
  Outbox out;
  if (msg.type == MsgType::kBatch) {
    // Inner messages apply in encode order, so the sender's version order
    // (inserts before their erases, etc.) is preserved exactly as if each
    // update had arrived in its own frame.
    for (const Message& inner : msg.batch) {
      ++stats_.updates_received;
      apply_info_message(inner, &out);
    }
  } else {
    ++stats_.updates_received;
    apply_info_message(msg, &out);
  }
  return out;
}

void Protocol::apply_info_message(const Message& msg, Outbox* out) {
  core::CacheManager* m = manager();
  switch (msg.type) {
    case MsgType::kHello:
      // A HELLO from a peer we had written off is the rejoin signal: the
      // restarted node greets before its first broadcast, and probes answer.
      if (Peer* p = find(msg.sender)) record_success(p, out);
      // The greeting's piggybacked epoch vector exposes any invalidation
      // gap immediately, not a full anti-entropy round later.
      maybe_pull_inv_sync(msg.sender, msg.epochs, out);
      break;
    case MsgType::kDigest:
      // Epoch gap first (repairs lost invalidations), then the directory
      // digest (repairs lost inserts/owner updates). A straggler digest
      // from a node we no longer (or don't yet) count as a member is
      // dropped: we keep no table for it to compare.
      if (m != nullptr && !m->is_member(msg.sender)) {
        trace("ignored kDigest from non-member " + std::to_string(msg.sender));
        break;
      }
      maybe_pull_inv_sync(msg.sender, msg.epochs, out);
      if (msg.has_digest) check_digest(msg.sender, msg.digest, out);
      break;
    case MsgType::kSyncReq:
      // The peer cleared its copy of our table; re-announce what we hold. A
      // non-member requester gets nothing (its records would point at a
      // node the cluster no longer routes to).
      if (m != nullptr && !m->is_member(msg.sender)) {
        trace("ignored kSyncReq from non-member " +
              std::to_string(msg.sender));
        break;
      }
      if (find(msg.sender) != nullptr) {
        ++stats_.resyncs_served;
        push_state_to(msg.sender, out);
      }
      break;
    case MsgType::kInsert:
      if (m == nullptr) break;
      if (msg.handoff) {
        // Decommission handoff: the departing owner shipped the whole entry
        // (meta + body); adopt it into our own store instead of recording a
        // directory entry for a node that is leaving.
        if (m->adopt_entry(msg.meta, msg.data)) ++stats_.handoffs_adopted;
      } else {
        m->on_peer_insert(msg.meta);
      }
      break;
    case MsgType::kErase:
      if (m != nullptr) m->on_peer_erase(msg.sender, msg.key, msg.version);
      break;
    case MsgType::kInvalidate:
      // The frame's sender is the originating node: invalidations are
      // broadcast by their origin only, never relayed.
      if (m != nullptr) m->on_peer_invalidate(msg.key, msg.sender, msg.epoch);
      break;
    case MsgType::kDecommission:
      // Graceful leave. Deactivate the slot without the dead-peer
      // quarantine: the leaver already handed its state off, so there is
      // nothing to resync when (if) the slot rejoins.
      ++stats_.decommissions_observed;
      trace("peer " + std::to_string(msg.sender) + " decommissioned (epoch " +
            std::to_string(msg.membership_epoch) + ")");
      if (Peer* p = find(msg.sender)) {
        p->active.store(false, std::memory_order_release);
        close_breaker(p);  // so a later rejoin starts clean
      }
      if (m != nullptr) m->member_left(msg.sender);
      break;
    case MsgType::kOwnerUpdate:
      // Partitioned-mode unicast. A mis-routed frame (we are not this key's
      // ring owner) still carries true information, so apply it anyway:
      // apply_insert/apply_erase bounds-check the cache node id, and
      // answer_query serves from every table.
      if (m == nullptr) break;
      if (msg.owner_op == OwnerOp::kInsert) {
        m->on_peer_insert(msg.meta);
      } else {
        m->on_peer_erase(msg.meta.owner, msg.key, msg.version);
      }
      break;
    default:
      // kBatch lands here too: nesting is decode-rejected, so seeing one
      // means a peer skipped its own flattening — ignore it.
      trace("unexpected message type on info channel", /*warn=*/true);
      break;
  }
}

// ---- data channel ----

std::optional<Message> Protocol::answer(const Message& request, Outbox* out) {
  core::CacheManager* m = manager();
  switch (request.type) {
    case MsgType::kFetchReq: {
      if (m == nullptr) return Message::fetch_resp_miss(self_);
      auto result = m->serve_peer_fetch(request.key);
      if (!result) {
        ++stats_.fetch_misses_served;
        return Message::fetch_resp_miss(self_);
      }
      ++stats_.fetches_served;
      return Message::fetch_resp_found(self_, result.value().meta,
                                       std::move(result.value().data));
    }
    case MsgType::kQuery: {
      // Directory probe (partitioned owner lookup or query-mode kQuery):
      // answer from the directory alone, never touching the blob store.
      ++stats_.queries_served;
      if (m != nullptr) {
        if (auto meta = m->answer_query(request.key)) {
          return Message::query_hit(self_, *meta);
        }
      }
      return Message::query_miss(self_);
    }
    case MsgType::kInvSync: {
      // Anti-entropy pull: ship every logged invalidation above the
      // requester's floors so it can repair the gap it detected.
      ++stats_.inv_syncs_served;
      if (m == nullptr) return Message::inv_sync_resp(self_, {}, false);
      bool truncated = false;
      auto entries = m->inv_entries_after(request.epochs, &truncated);
      return Message::inv_sync_resp(self_, std::move(entries), truncated);
    }
    case MsgType::kJoin: {
      // Join admission (phase 1, per peer): activate the sender's slot, fold
      // it into the ring, and answer with our post-join membership view.
      ++stats_.joins_served;
      Peer* p = find(request.sender);
      if (p != nullptr) {
        p->active.store(true, std::memory_order_release);
        // A joining node is reachable by definition: clear whatever breaker
        // state the slot accumulated while it was empty.
        close_breaker(p);
      }
      if (m == nullptr) return Message::join_ack(self_, 0, {});
      const auto hs = m->member_joined(request.sender);
      trace("admitted joiner " + std::to_string(request.sender) +
            " (remapped " + std::to_string(hs.records) +
            " records, re-announced " + std::to_string(hs.entries) +
            " entries)");
      // Replicated mode: the newcomer starts with an empty directory, so
      // ship it our entries (in partitioned mode member_joined already
      // re-announced exactly the remapped ranges).
      if (p != nullptr &&
          m->directory_mode() == core::DirectoryMode::kReplicated) {
        push_state_to(request.sender, out);
      }
      return Message::join_ack(self_, m->membership_epoch(),
                               m->active_members());
    }
    default:
      return std::nullopt;
  }
}

void Protocol::on_response(core::NodeId peer, const Message& response) {
  core::CacheManager* m = manager();
  if (response.type == MsgType::kInvSyncResp) {
    if (m == nullptr) return;
    const std::size_t applied =
        m->apply_inv_sync(response.inv_entries, response.truncated);
    trace("pulled " + std::to_string(response.inv_entries.size()) +
          " invalidation records from node " + std::to_string(peer) +
          ", applied " + std::to_string(applied) +
          (response.truncated ? " (log truncated: full purge)" : ""));
  } else if (response.type == MsgType::kJoinAck) {
    std::lock_guard<std::mutex> lock(join_mutex_);
    if (!join_ack_) join_ack_ = response;
  }
}

// ---- outbound ----

Outbox Protocol::broadcast(const Message& msg) {
  Outbox out;
  out.reserve(peers_.size());
  for (const auto& peer : peers_) {
    if (peer->active.load(std::memory_order_acquire)) {
      out.push_back({peer->id, msg});
    }
  }
  ++stats_.broadcasts_sent;
  return out;
}

Outbox Protocol::unicast(core::NodeId peer, Message msg) {
  Outbox out;
  Peer* p = find(peer);
  if (p == nullptr) return out;  // self or unknown id: nothing to send
  if (!p->active.load(std::memory_order_acquire)) {
    count_drop(p);
    return out;
  }
  out.push_back({peer, std::move(msg)});
  return out;
}

std::optional<PeerState> Protocol::admit(core::NodeId peer, MsgType type) {
  Peer* p = find(peer);
  if (p == nullptr) return std::nullopt;
  if (!p->active.load(std::memory_order_acquire)) {
    // Slot left the active set after this frame was queued.
    count_drop(p);
    return std::nullopt;
  }
  const PeerState state = state_of(p);
  if (state == PeerState::kDead && type != MsgType::kHello) {
    // Breaker open: dropping beats retrying into a dead peer. The rejoin
    // resync repairs whatever the peer missed.
    count_drop(p);
    return std::nullopt;
  }
  return state;
}

Status Protocol::exchange_allowed(core::NodeId peer) const {
  const Peer* p = find(peer);
  if (p == nullptr) return Status::ok();
  if (!p->active.load(std::memory_order_acquire)) {
    // Not an active member (decommissioned or never joined): fail fast,
    // exactly like an open breaker, so callers fall back immediately.
    return Status(StatusCode::kUnavailable,
                  "peer " + std::to_string(peer) + " not an active member");
  }
  if (state_of(p) == PeerState::kDead) {
    // Breaker open: fail fast so the request goes straight to the local
    // CGI fallback instead of burning a connect timeout.
    return Status(StatusCode::kUnavailable,
                  "peer " + std::to_string(peer) + " dead (circuit open)");
  }
  return Status::ok();
}

// ---- dynamic membership ----

Outbox Protocol::join_requests() {
  if (manager() == nullptr) return {};  // finish_join reports it
  {
    std::lock_guard<std::mutex> lock(join_mutex_);
    join_ack_.reset();
  }
  // Every active peer admits us explicitly (a HELLO alone must not activate
  // a slot: a draining leaver still greets). The first ack is adopted only
  // once all are in: adoption re-announces our entries, which a peer that
  // has not yet processed our kJoin would wipe in member_joined.
  Outbox out;
  for (const auto& peer : peers_) {
    if (!peer->active.load(std::memory_order_acquire)) continue;
    ++stats_.joins_sent;
    out.push_back({peer->id, Message::join(self_)});
  }
  return out;
}

Status Protocol::finish_join(Outbox* out) {
  core::CacheManager* m = manager();
  if (m == nullptr) {
    return Status(StatusCode::kInvalidArgument,
                  "attach() a manager before joining");
  }
  std::optional<Message> ack;
  {
    std::lock_guard<std::mutex> lock(join_mutex_);
    ack.swap(join_ack_);
  }
  if (!ack) {
    return Status(StatusCode::kUnavailable, "no active peer admitted the join");
  }
  // With every member's admission in hand: adopt the acked view, realign
  // the slot flags, and greet so epoch vectors flow.
  m->adopt_membership(ack->membership_epoch, ack->members);
  for (auto& peer : peers_) {
    const bool member = m->is_member(peer->id);
    peer->active.store(member, std::memory_order_release);
    if (member) out->push_back({peer->id, make_hello()});
  }
  trace("joined cluster (epoch " + std::to_string(m->membership_epoch()) +
        ", " + std::to_string(m->active_members().size()) + " members)");
  return Status::ok();
}

core::CacheManager::HandoffStats Protocol::decommission(Outbox* out) {
  core::CacheManager* m = manager();
  if (m == nullptr) return {};
  // Stop admitting first, so no fresh state races the handoff; its frames
  // leave through the manager's bus ahead of the announcement.
  m->begin_decommission();
  const auto handed = m->handoff_state(options_.handoff_batch_bytes);
  trace("announcing decommission (epoch " +
        std::to_string(m->membership_epoch()) + ", handed off " +
        std::to_string(handed.records) + " records, " +
        std::to_string(handed.entries) + " entries)");
  for (auto& frame :
       broadcast(Message::decommission(self_, m->membership_epoch()))) {
    out->push_back(std::move(frame));
  }
  return handed;
}

bool Protocol::member_active(core::NodeId id) const {
  if (id == self_) return true;
  const Peer* p = find(id);
  return p != nullptr && p->active.load(std::memory_order_acquire);
}

PeerState Protocol::peer_state(core::NodeId id) const {
  const Peer* p = find(id);
  return p == nullptr ? PeerState::kHealthy : state_of(p);
}

std::vector<PeerHealth> Protocol::peer_health() const {
  std::vector<PeerHealth> out;
  out.reserve(peers_.size());
  for (const auto& peer : peers_) {
    PeerHealth h;
    h.id = peer->id;
    h.active = peer->active.load(std::memory_order_acquire);
    {
      std::lock_guard<std::mutex> lock(peer->mutex);
      h.state = peer->state;
      h.consecutive_failures =
          static_cast<std::uint64_t>(peer->consecutive_failures);
    }
    h.total_failures = peer->total_failures.load(std::memory_order_relaxed);
    h.messages_dropped = peer->dropped.load(std::memory_order_relaxed);
    h.probes_sent = peer->probes.load(std::memory_order_relaxed);
    out.push_back(h);
  }
  return out;
}

// ---- ProtocolBus ----

void ProtocolBus::broadcast_insert(const core::EntryMeta& meta) {
  send_updates(protocol_.broadcast(Message::insert(protocol_.self(), meta)));
}

void ProtocolBus::broadcast_erase(core::NodeId owner, const std::string& key,
                                  std::uint64_t version) {
  (void)owner;  // only the owner broadcasts erases for its own entries
  send_updates(
      protocol_.broadcast(Message::erase(protocol_.self(), key, version)));
}

void ProtocolBus::broadcast_invalidate(const std::string& pattern,
                                       std::uint64_t epoch) {
  send_updates(protocol_.broadcast(
      Message::invalidate(protocol_.self(), pattern, epoch)));
}

void ProtocolBus::send_owner_insert(core::NodeId ring_owner,
                                    const core::EntryMeta& meta) {
  ++protocol_.stats().owner_updates_sent;
  send_updates(protocol_.unicast(
      ring_owner, Message::owner_insert(protocol_.self(), meta)));
}

void ProtocolBus::send_owner_erase(core::NodeId ring_owner,
                                   core::NodeId cache_node,
                                   const std::string& key,
                                   std::uint64_t version) {
  ++protocol_.stats().owner_updates_sent;
  send_updates(protocol_.unicast(
      ring_owner,
      Message::owner_erase(protocol_.self(), cache_node, key, version)));
}

void ProtocolBus::send_handoff(core::NodeId successor,
                               const core::EntryMeta& meta,
                               const std::string& body) {
  ++protocol_.stats().handoff_frames_sent;
  send_updates(protocol_.unicast(
      successor, Message::insert_handoff(protocol_.self(), meta, body)));
}

Status ProtocolBus::join_cluster() {
  emit(protocol_.join_requests());
  Outbox greetings;
  const Status st = protocol_.finish_join(&greetings);
  emit(std::move(greetings));
  return st;
}

core::CacheManager::HandoffStats ProtocolBus::decommission() {
  Outbox out;
  const auto handed = protocol_.decommission(&out);
  emit(std::move(out));
  return handed;
}

}  // namespace swala::cluster
