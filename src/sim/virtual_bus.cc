#include "sim/virtual_bus.h"

#include <algorithm>

namespace swala::sim {

using cluster::FaultKind;
using cluster::Message;
using cluster::MsgType;
using core::NodeId;

namespace {

/// The fate `faults` (null = none) deals one leg to `to`; only a kDelay
/// keeps its delay.
cluster::FaultDecision decide(cluster::FaultInjector* faults, NodeId to,
                              MsgType type) {
  if (faults == nullptr) return {};
  cluster::FaultDecision fault = faults->decide(to, type);
  if (fault.kind != FaultKind::kDelay) fault.delay_ms = 0;
  return fault;
}

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
      traffic_(traffic),
      links_(nodes) {}

Result<core::EntryMeta> VirtualBus::lookup_at_owner(NodeId ring_owner,
                                                    const std::string& key,
                                                    int budget_ms) {
  (void)budget_ms;  // virtual time: the probe either answers or faults
  if (ring_owner >= buses_->size()) {
    return Status(StatusCode::kInvalidArgument, "bad ring owner");
  }
  if (auto st = protocol_.exchange_allowed(ring_owner); !st.is_ok()) return st;
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

void VirtualBus::restart() {
  protocol_.reset();
  for (Link& link : links_) link.connected = false;
}

// ---- frames ----

void VirtualBus::emit(cluster::Outbox out) {
  for (auto& frame : out) {
    const Charge charge = protocol_charge(frame.msg.type);
    if (!cluster::is_data_request(frame.msg.type)) {
      frame.tag = charge;
      queue(std::move(frame));
      continue;
    }
    if (!protocol_.exchange_allowed(frame.to).is_ok()) continue;
    if (auto resp = exchange(frame.to, frame.msg, tally(charge), nullptr)) {
      protocol_.on_response(frame.to, *resp);
    }
  }
}

VirtualBus::Charge VirtualBus::protocol_charge(MsgType type) const {
  switch (type) {
    case MsgType::kHello:
    case MsgType::kJoin:
    case MsgType::kJoinAck:
    case MsgType::kDecommission:
      return kUncharged;
    default:
      return traffic_->in_transition ? kTransitions : kRepair;
  }
}

FrameTally* VirtualBus::tally(int charge) const {
  FrameTally* const tallies[] = {nullptr, &traffic_->updates,
                                 &traffic_->transitions, &traffic_->handoffs,
                                 &traffic_->repair};
  return tallies[charge];
}

void VirtualBus::send_updates(cluster::Outbox out) {
  const Charge charge = traffic_->in_transition ? kTransitions : kUpdates;
  for (auto& frame : out) {
    // A lost handoff costs one future re-execution, not data.
    frame.tag = frame.msg.handoff ? kHandoffs : charge;
    queue(std::move(frame));
  }
}

void VirtualBus::queue(cluster::Outgoing frame) {
  const NodeId to = frame.to;
  if (protocol_.enqueue(std::move(frame))) pump(to);
}

void VirtualBus::pump(NodeId peer, TimeNs now) {
  Link& link = links_[peer];
  // A crashed node sends nothing; a frame queued to `peer` while its loop
  // runs further up the stack is sent by that loop.
  if (link.pumping || !up(self_)) return;
  link.pumping = true;
  for (;;) {
    now = std::max(now, engine_->clock()->now());
    const cluster::NextFrame next = protocol_.next_frame(peer, now);
    if (!next.frame) {
      const TimeNs at = next.wake_at;
      if (at != cluster::NextFrame::kIdle) {
        engine_->schedule_at(to_seconds(at), [this, peer, at] {
          pump(peer, at);
        });
      }
      break;
    }
    bool ok = false;
    if (!link.connected) {
      // Nothing listens on a down node: the connect fails.
      if (up(peer)) {
        link.connected = true;
        protocol_.on_connected(peer);
        continue;  // the greeting goes first
      }
    } else {
      ok = send(peer, *next.frame, tally(next.tag));
      link.connected = ok;
    }
    emit(protocol_.on_send_result(peer, ok, cluster::SendLeg::kFrame));
  }
  link.pumping = false;
}

bool VirtualBus::send(NodeId to, const Message& msg, FrameTally* tally) {
  std::string frame = cluster::encode_message(msg);
  if (tally != nullptr) tally->add(frame.size());
  if (!up(to)) return false;  // the peer went down under the connection
  const auto fault = decide(faults_, to, msg.type);
  const bool torn = fault.kind == FaultKind::kTruncate;
  if (torn) frame.resize(frame.size() / 2);
  // A lost frame: the sender believes it was delivered.
  const bool lost = fault.kind == FaultKind::kDrop ||
                    fault.kind == FaultKind::kBlackhole;
  const int copies = fault.kind == FaultKind::kDuplicate ? 2 : lost ? 0 : 1;
  for (int copy = 0; copy < copies; ++copy) {
    engine_->schedule_in(propagation_delay_ + fault.delay_ms / 1000.0,
                         [this, to, frame] {
                           (*buses_)[to]->receive(self_, frame);
                         });
  }
  return !torn;
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
  // A leg survives unless dropped, torn or black-holed; kDelay stretches
  // the round trip, and an exchange leg is never doubled.
  const auto survives = [latency](cluster::FaultInjector* faults, NodeId dest,
                                  MsgType type) {
    const auto fault = decide(faults, dest, type);
    if (latency != nullptr) *latency += fault.delay_ms / 1000.0;
    return fault.kind == FaultKind::kNone || fault.kind == FaultKind::kDelay ||
           fault.kind == FaultKind::kDuplicate;
  };
  // A lost leg expires the requester's deadline: a breaker failure, as in
  // NodeGroup::data_exchange.
  const auto lost = [&]() -> std::optional<Message> {
    emit(protocol_.on_send_result(to, false));
    return std::nullopt;
  };
  const std::string frame = cluster::encode_message(request);
  if (tally != nullptr) tally->add(frame.size());
  if (!up(to) || !survives(faults_, to, request.type)) return lost();
  auto decoded = decode_frame(frame);
  if (!decoded) return lost();
  VirtualBus& peer = *(*buses_)[to];
  cluster::Outbox side_effects;
  auto answer = peer.protocol_.answer(decoded.value(), &side_effects);
  peer.emit(std::move(side_effects));
  if (!answer) return lost();
  const std::string reply = cluster::encode_message(*answer);
  if (tally != nullptr) tally->add(reply.size());
  if (!survives(peer.faults_, self_, answer->type)) return lost();
  emit(protocol_.on_send_result(to, true));
  auto back = decode_frame(reply);
  if (!back) return lost();
  return std::move(back.value());
}

}  // namespace swala::sim
