#include "sim/virtual_bus.h"

namespace swala::sim {

using cluster::Message;
using cluster::MsgType;
using core::NodeId;

namespace {

/// Decodes one framed message (the u32 length prefix is skipped; a torn
/// frame fails to decode).
Result<Message> decode_frame(const std::string& frame) {
  constexpr std::size_t kPrefix = 4;
  if (frame.size() < kPrefix) {
    return Status(StatusCode::kInvalidArgument, "frame shorter than prefix");
  }
  return cluster::decode_message(std::string_view(frame).substr(kPrefix));
}

}  // namespace

VirtualBus::VirtualBus(SimEngine* engine, const BusList* buses,
                       std::size_t nodes, NodeId self,
                       double propagation_delay, double probe_latency,
                       cluster::FaultInjector* faults,
                       const std::vector<char>* alive, VirtualTraffic* traffic,
                       const cluster::GroupOptions& options)
    : ProtocolBus(self, nodes, options, engine->clock()),
      engine_(engine),
      buses_(buses),
      self_(self),
      propagation_delay_(propagation_delay),
      probe_latency_(probe_latency),
      faults_(faults),
      alive_(alive),
      traffic_(traffic) {}

Result<core::EntryMeta> VirtualBus::lookup_at_owner(NodeId ring_owner,
                                                    const std::string& key,
                                                    int budget_ms) {
  (void)budget_ms;  // virtual time: the probe either answers or faults
  if (ring_owner >= buses_->size()) {
    return Status(StatusCode::kInvalidArgument, "bad ring owner");
  }
  pending_latency_ += probe_latency_;
  const auto answer = exchange(ring_owner, Message::query(self_, key),
                               &traffic_->queries, &pending_latency_);
  if (!answer) {
    return Status(StatusCode::kTimeout,
                  "simulated owner-lookup timeout (fault injection)");
  }
  if (!answer->found) {
    return Status(StatusCode::kNotFound, "owner knows of no cached copy");
  }
  return answer->meta;
}

Result<core::EntryMeta> VirtualBus::query_peers(const std::string& key,
                                                int budget_ms) {
  (void)budget_ms;
  // One multicast round: every peer is probed "in parallel", so the request
  // pays probe_latency once; frames are counted per probed peer (the sweep
  // stops early on the first hit, as the TCP group does).
  pending_latency_ += probe_latency_;
  bool every_peer_answered = true;
  for (NodeId peer = 0; peer < buses_->size(); ++peer) {
    if (peer == self_ || !protocol_.member_active(peer)) continue;
    const auto answer = exchange(peer, Message::query(self_, key),
                                 &traffic_->queries, &pending_latency_);
    if (!answer) {
      every_peer_answered = false;
      continue;
    }
    if (answer->found) return answer->meta;
  }
  if (every_peer_answered) {
    return Status(StatusCode::kNotFound, "no peer caches this key");
  }
  return Status(StatusCode::kTimeout, "query budget exhausted without a hit");
}

Result<core::CachedResult> VirtualBus::fetch_remote(NodeId owner,
                                                    const std::string& key) {
  if (owner >= buses_->size()) {
    return Status(StatusCode::kInvalidArgument, "bad owner");
  }
  if (auto st = protocol_.exchange_allowed(owner); !st.is_ok()) return st;
  // A lost request expires the requester's deadline; the manager falls back
  // to local execution.
  auto resp = exchange(owner, Message::fetch_req(self_, key),
                       /*tally=*/nullptr, &pending_latency_);
  if (!resp) {
    return Status(StatusCode::kTimeout,
                  "simulated fetch deadline (fault injection)");
  }
  if (!resp->found) {
    return Status(StatusCode::kNotFound, "remote miss (false hit)");
  }
  core::CachedResult result;
  result.meta = std::move(resp->meta);
  result.data = std::move(resp->data);
  return result;
}

double VirtualBus::take_pending_latency() {
  const double lat = pending_latency_;
  pending_latency_ = 0.0;
  return lat;
}

// ---- the daemons' side ----

void VirtualBus::tick() {
  if (up(self_)) emit(protocol_.tick());
}

// ---- frames ----

void VirtualBus::emit(cluster::Outbox out) {
  for (const auto& frame : out) {
    FrameTally* tally = protocol_tally(frame.msg.type);
    if (!cluster::is_data_request(frame.msg.type)) {
      send(frame.to, frame.msg, tally);
      continue;
    }
    if (!protocol_.exchange_allowed(frame.to).is_ok()) continue;
    if (auto resp = exchange(frame.to, frame.msg, tally, nullptr)) {
      protocol_.on_response(frame.to, *resp);
    }
  }
}

FrameTally* VirtualBus::protocol_tally(MsgType type) const {
  switch (type) {
    case MsgType::kHello:
    case MsgType::kJoin:
    case MsgType::kJoinAck:
    case MsgType::kDecommission:
      return nullptr;
    default:
      return traffic_->in_transition ? &traffic_->transitions
                                     : &traffic_->repair;
  }
}

void VirtualBus::send_updates(cluster::Outbox out) {
  FrameTally* tally = traffic_->in_transition ? &traffic_->transitions
                                              : &traffic_->updates;
  for (const auto& frame : out) {
    // A lost handoff costs one future re-execution, not data.
    send(frame.to, frame.msg,
         frame.msg.handoff ? &traffic_->handoffs : tally);
  }
}

void VirtualBus::send(NodeId to, const Message& msg, FrameTally* tally) {
  // An inactive slot, or an open breaker for anything but a probe, drops
  // the frame at the sender, as NodeGroup's sender loop does.
  if (!protocol_.admit(to, msg.type)) return;
  std::string frame = cluster::encode_message(msg);
  if (tally != nullptr) tally->add(frame.size());
  if (!up(to)) {
    // Nothing listens: the connect fails, and so does the send.
    emit(protocol_.on_send_result(to, false));
    return;
  }
  double delay = propagation_delay_;
  int copies = 1;
  bool torn = false;
  if (faults_ != nullptr) {
    const auto fault = faults_->decide(to, msg.type);
    switch (fault.kind) {
      case cluster::FaultKind::kNone:
        break;
      case cluster::FaultKind::kDelay:
        delay += fault.delay_ms / 1000.0;
        break;
      case cluster::FaultKind::kDuplicate:
        copies = 2;
        break;
      case cluster::FaultKind::kDrop:
      case cluster::FaultKind::kBlackhole:
        copies = 0;  // lost; the sender believes it was delivered
        break;
      case cluster::FaultKind::kTruncate:
        torn = true;
        frame.resize(frame.size() / 2);
        break;
    }
  }
  for (int copy = 0; copy < copies; ++copy) {
    engine_->schedule_in(delay, [this, to, frame] {
      (*buses_)[to]->receive(self_, frame);
    });
  }
  emit(protocol_.on_send_result(to, !torn));
}

void VirtualBus::receive(NodeId from, const std::string& frame) {
  if (!up(self_)) return;  // lost on the floor of a crash
  auto msg = decode_frame(frame);
  if (!msg) {
    protocol_.trace("frame from node " + std::to_string(from) +
                    " rejected by the decoder (" + msg.status().to_string() +
                    ")");
    return;
  }
  // A kDecommission's forwarding is membership-transition traffic.
  const bool was_in_transition = traffic_->in_transition;
  if (msg.value().type == MsgType::kDecommission) {
    traffic_->in_transition = true;
  }
  emit(protocol_.on_info(msg.value()));
  traffic_->in_transition = was_in_transition;
}

std::optional<Message> VirtualBus::exchange(NodeId to, const Message& request,
                                            FrameTally* tally,
                                            double* latency) {
  const std::string frame = cluster::encode_message(request);
  if (tally != nullptr) tally->add(frame.size());
  if (!up(to)) {
    emit(protocol_.on_send_result(to, false));
    return std::nullopt;
  }
  if (faults_ != nullptr) {
    const auto fault = faults_->decide(to, request.type);
    switch (fault.kind) {
      case cluster::FaultKind::kNone:
      case cluster::FaultKind::kDuplicate:  // never doubles a request
        break;
      case cluster::FaultKind::kDelay:
        if (latency != nullptr) *latency += fault.delay_ms / 1000.0;
        break;
      case cluster::FaultKind::kDrop:
      case cluster::FaultKind::kTruncate:
      case cluster::FaultKind::kBlackhole:
        return std::nullopt;
    }
  }
  auto decoded = decode_frame(frame);
  if (!decoded) return std::nullopt;
  VirtualBus& peer = *(*buses_)[to];
  cluster::Outbox side_effects;
  auto answer = peer.protocol_.answer(decoded.value(), &side_effects);
  peer.emit(std::move(side_effects));
  if (!answer) return std::nullopt;
  const std::string reply = cluster::encode_message(*answer);
  if (tally != nullptr) tally->add(reply.size());
  emit(protocol_.on_send_result(to, true));
  auto back = decode_frame(reply);
  if (!back) return std::nullopt;
  return std::move(back.value());
}

}  // namespace swala::sim
