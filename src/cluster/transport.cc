#include "cluster/transport.h"

#include <chrono>
#include <thread>

namespace swala::cluster {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kTruncate:
      return "truncate";
    case FaultKind::kBlackhole:
      return "blackhole";
    case FaultKind::kDuplicate:
      return "duplicate";
  }
  return "?";
}

FaultInjector::FaultInjector(std::uint64_t seed) : rng_(seed) {}

void FaultInjector::add_rule(FaultRule rule) {
  std::lock_guard<std::mutex> lock(mutex_);
  rules_.push_back(ActiveRule{rule});
}

void FaultInjector::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  rules_.clear();
}

FaultDecision FaultInjector::decide(core::NodeId peer, MsgType type) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& active : rules_) {
    const FaultRule& r = active.rule;
    if (r.peer != core::kInvalidNode && r.peer != peer) continue;
    if (r.type.has_value() && *r.type != type) continue;
    active.matched++;
    if (active.matched <= r.skip) return {};
    if (r.count != 0 && active.fired >= r.count) return {};
    if (r.probability < 1.0 && !rng_.bernoulli(r.probability)) return {};
    active.fired++;
    faults_injected_++;
    return {r.kind, r.delay_ms};
  }
  return {};
}

std::uint64_t FaultInjector::faults_injected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return faults_injected_;
}

Status Transport::send(net::TcpStream& stream, core::NodeId peer,
                       const Message& msg) {
  FaultDecision fault;
  if (faults_ != nullptr) fault = faults_->decide(peer, msg.type);
  switch (fault.kind) {
    case FaultKind::kNone:
      break;
    case FaultKind::kDrop:
    case FaultKind::kBlackhole:
      // The message vanishes; the sender believes it was delivered. The
      // receiver-side symptom is a lost update or a read timeout.
      return Status::ok();
    case FaultKind::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(fault.delay_ms));
      break;
    case FaultKind::kTruncate: {
      const std::string frame = encode_message(msg);
      const std::size_t torn = frame.size() > 1 ? frame.size() / 2 : 1;
      (void)stream.write_all(std::string_view(frame).substr(0, torn));
      return Status(StatusCode::kIoError, "fault injection: truncated frame");
    }
    case FaultKind::kDuplicate: {
      // Replay/retransmit: write the frame once here, then fall through to
      // the normal write for the second copy. Duplicating a request or
      // response frame would desync the request/response framing on pooled
      // data connections, so only one-way info-channel traffic doubles.
      if (msg.type != MsgType::kFetchReq && msg.type != MsgType::kFetchResp &&
          msg.type != MsgType::kQuery && msg.type != MsgType::kQueryHit &&
          msg.type != MsgType::kInvSync && msg.type != MsgType::kInvSyncResp) {
        if (auto st = write_message(stream, msg); !st.is_ok()) return st;
      }
      break;
    }
  }
  return write_message(stream, msg);
}

}  // namespace swala::cluster
