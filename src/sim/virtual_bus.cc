#include "sim/virtual_bus.h"

namespace swala::sim {

using core::CacheManager;
using core::NodeId;

void FrameTally::add(const cluster::Message& msg, std::size_t legs) {
  if (legs == 0) return;
  frames += legs;
  bytes += legs * cluster::encode_message(msg).size();
}

VirtualBus::VirtualBus(SimEngine* engine, const ManagerList* managers,
                       NodeId self, double propagation_delay,
                       double probe_latency, cluster::FaultInjector* faults,
                       const std::vector<char>* alive, VirtualTraffic* traffic)
    : engine_(engine),
      managers_(managers),
      self_(self),
      propagation_delay_(propagation_delay),
      probe_latency_(probe_latency),
      faults_(faults),
      alive_(alive),
      traffic_(traffic) {}

void VirtualBus::broadcast_insert(const core::EntryMeta& meta) {
  fan_out(cluster::Message::insert(self_, meta),
          [meta](CacheManager* peer) { peer->on_peer_insert(meta); });
}

void VirtualBus::broadcast_erase(NodeId owner, const std::string& key,
                                 std::uint64_t version) {
  fan_out(cluster::Message::erase(self_, key, version),
          [owner, key, version](CacheManager* peer) {
            peer->on_peer_erase(owner, key, version);
          });
}

void VirtualBus::broadcast_invalidate(const std::string& pattern,
                                      std::uint64_t epoch) {
  fan_out(cluster::Message::invalidate(self_, pattern, epoch),
          [pattern, origin = self_, epoch](CacheManager* peer) {
            peer->on_peer_invalidate(pattern, origin, epoch);
          });
}

void VirtualBus::send_owner_insert(NodeId ring_owner,
                                   const core::EntryMeta& meta) {
  if (ring_owner >= managers_->size() || ring_owner == self_) return;
  count_update_legs(cluster::Message::owner_insert(self_, meta), 1);
  send(ring_owner, cluster::MsgType::kOwnerUpdate,
       [meta](CacheManager* owner) { owner->on_peer_insert(meta); });
}

void VirtualBus::send_owner_erase(NodeId ring_owner, NodeId cache_node,
                                  const std::string& key,
                                  std::uint64_t version) {
  if (ring_owner >= managers_->size() || ring_owner == self_) return;
  count_update_legs(
      cluster::Message::owner_erase(self_, cache_node, key, version), 1);
  send(ring_owner, cluster::MsgType::kOwnerUpdate,
       [cache_node, key, version](CacheManager* owner) {
         owner->on_peer_erase(cache_node, key, version);
       });
}

Result<core::EntryMeta> VirtualBus::lookup_at_owner(NodeId ring_owner,
                                                    const std::string& key,
                                                    int budget_ms) {
  (void)budget_ms;  // virtual time: the probe either answers or faults
  if (ring_owner >= managers_->size()) {
    return Status(StatusCode::kInvalidArgument, "bad ring owner");
  }
  pending_latency_ += probe_latency_;
  auto answer = probe(ring_owner, key);
  if (!answer.first) {
    return Status(StatusCode::kTimeout,
                  "simulated owner-lookup timeout (fault injection)");
  }
  if (!answer.second) {
    return Status(StatusCode::kNotFound, "owner knows of no cached copy");
  }
  return *answer.second;
}

Result<core::EntryMeta> VirtualBus::query_peers(const std::string& key,
                                                int budget_ms) {
  (void)budget_ms;
  // One multicast round: every peer is probed "in parallel", so the request
  // pays probe_latency once; frames are counted per probed peer (the sweep
  // stops early on the first hit, as the TCP group does).
  pending_latency_ += probe_latency_;
  bool every_peer_answered = true;
  for (std::size_t peer = 0; peer < managers_->size(); ++peer) {
    if (!is_peer(peer)) continue;
    auto answer = probe(static_cast<NodeId>(peer), key);
    if (!answer.first) {
      every_peer_answered = false;
      continue;
    }
    if (answer.second) return *answer.second;
  }
  if (every_peer_answered) {
    return Status(StatusCode::kNotFound, "no peer caches this key");
  }
  return Status(StatusCode::kTimeout, "query budget exhausted without a hit");
}

Result<core::CachedResult> VirtualBus::fetch_remote(NodeId owner,
                                                    const std::string& key) {
  if (owner >= managers_->size()) {
    return Status(StatusCode::kInvalidArgument, "bad owner");
  }
  // A lost request (or response) expires the requester's deadline; the
  // manager falls back to local execution.
  if (!up(owner) ||
      copies(owner, cluster::MsgType::kFetchReq, &pending_latency_) == 0) {
    return Status(StatusCode::kTimeout,
                  "simulated fetch deadline (fault injection)");
  }
  return manager(owner)->serve_peer_fetch(key);
}

void VirtualBus::send_handoff(NodeId successor, const core::EntryMeta& meta,
                              const std::string& body) {
  if (successor >= managers_->size() || successor == self_) return;
  traffic_->handoffs.add(cluster::Message::insert_handoff(self_, meta, body));
  // A lost handoff costs one future re-execution, not data.
  VirtualTraffic* traffic = traffic_;
  send(successor, cluster::MsgType::kInsert,
       [traffic, meta, body](CacheManager* heir) {
         if (heir->adopt_entry(meta, body)) traffic->handoffs_adopted += 1;
       });
}

double VirtualBus::take_pending_latency() {
  const double lat = pending_latency_;
  pending_latency_ = 0.0;
  return lat;
}

int VirtualBus::copies(NodeId to, cluster::MsgType type, double* delay) {
  if (faults_ == nullptr) return 1;
  const auto fault = faults_->decide(to, type);
  switch (fault.kind) {
    case cluster::FaultKind::kNone:
      return 1;
    case cluster::FaultKind::kDelay:
      *delay += fault.delay_ms / 1000.0;
      return 1;
    case cluster::FaultKind::kDuplicate:
      return 2;
    case cluster::FaultKind::kDrop:
    case cluster::FaultKind::kTruncate:
    case cluster::FaultKind::kBlackhole:
      return 0;
  }
  return 1;
}

void VirtualBus::push_state(NodeId to, FrameTally* tally) {
  CacheManager* self = manager(self_);
  const auto mode = self->directory_mode();
  if (mode == core::DirectoryMode::kQuery) return;
  for (const auto& meta : self->store().resident_metas()) {
    if (mode == core::DirectoryMode::kPartitioned &&
        self->ring_owner_of(meta.key) != to) {
      continue;
    }
    tally->add(cluster::Message::insert(self_, meta));
    engine_->schedule_in(propagation_delay_, [this, to, meta] {
      if (up(to)) manager(to)->on_peer_insert(meta);
    });
  }
}

void VirtualBus::send(NodeId to, cluster::MsgType type,
                      const std::function<void(CacheManager*)>& apply) {
  double delay = propagation_delay_;
  const int arriving = copies(to, type, &delay);
  for (int copy = 0; copy < arriving; ++copy) {
    engine_->schedule_in(delay, [this, to, apply] {
      if (up(to)) apply(manager(to));  // lost on the floor of a crash
    });
  }
}

void VirtualBus::fan_out(
    const cluster::Message& msg,
    const std::function<void(CacheManager*)>& apply) {
  std::vector<NodeId> peers;
  for (std::size_t peer = 0; peer < managers_->size(); ++peer) {
    if (is_peer(peer)) peers.push_back(static_cast<NodeId>(peer));
  }
  count_update_legs(msg, peers.size());
  for (const NodeId peer : peers) send(peer, msg.type, apply);
}

void VirtualBus::count_update_legs(const cluster::Message& msg,
                                   std::size_t legs) {
  (traffic_->in_transition ? traffic_->transitions : traffic_->updates)
      .add(msg, legs);
}

std::pair<bool, std::optional<core::EntryMeta>> VirtualBus::probe(
    NodeId peer, const std::string& key) {
  traffic_->queries.add(cluster::Message::query(self_, key));
  if (!up(peer) ||
      copies(peer, cluster::MsgType::kQuery, &pending_latency_) == 0) {
    return {false, std::nullopt};
  }
  auto answer = manager(peer)->answer_query(key);
  traffic_->queries.add(answer ? cluster::Message::query_hit(peer, *answer)
                               : cluster::Message::query_miss(peer));
  return {true, std::move(answer)};
}

}  // namespace swala::sim
