// The virtual-time shell of cluster::Protocol, for both virtual-time
// substrates (run_cluster_sim and run_sim_chaos). One VirtualBus per node
// owns the node's Protocol — the code NodeGroup runs over TCP — and hands
// every frame, encoded and then decoded, to the peer's Protocol on the
// discrete-event engine: one-way legs after a propagation delay, exchanges
// (probes, fetches, kInvSync, kJoin) at once, a probe's or fetch's round
// trip accruing as pending latency the caller charges to its request.
//
// Each leg consults the sender's FaultInjector as Transport::send does:
// kDrop/kBlackhole lose it while the sender believes it sent, kDelay
// stretches it, kDuplicate doubles a one-way frame, kTruncate delivers a
// torn frame the receiver's decoder rejects and fails the send. A leg to a
// down node fails the send, so the breaker, HELLO probes and rejoin resync
// run as on TCP. Unlike the TCP shell, this one sends no connection
// greeting, retries no failed send, injects no fault on an exchange's
// response, and does not count a lost request as a breaker failure.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/protocol.h"
#include "cluster/transport.h"
#include "core/manager.h"
#include "sim/engine.h"

namespace swala::sim {

/// Frames and encoded bytes charged to one class of traffic.
struct FrameTally {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;

  void add(std::size_t frame_bytes) {
    frames += 1;
    bytes += frame_bytes;
  }
};

/// Cooperation traffic shared by every node's bus, counted at send time
/// (fault-injected legs included: traffic offered to the network). HELLO,
/// kJoin, kJoinAck and kDecommission frames are not charged.
struct VirtualTraffic {
  FrameTally updates;      ///< insert/erase/invalidate + kOwnerUpdate legs
  FrameTally queries;      ///< kQuery/kQueryHit exchanges, both directions
  FrameTally transitions;  ///< legs sent while in_transition is set
  FrameTally handoffs;     ///< decommission handoff frames
  /// The protocol's own frames: kDigest, kSyncReq, kInvSync(+Resp) and the
  /// state pushes that answer a resync, a recovery or a join.
  FrameTally repair;
  /// While set, update and protocol legs count as transition traffic
  /// (raised around a join and while a kDecommission is applied).
  bool in_transition = false;
};

class VirtualBus;
using BusList = std::vector<std::unique_ptr<VirtualBus>>;
using ManagerList = std::vector<std::unique_ptr<core::CacheManager>>;

class VirtualBus final : public cluster::ProtocolBus {
 public:
  /// `buses` holds the `nodes` buses indexed by node id and may be filled
  /// after construction. `faults` is the sender-side injector (null = no
  /// faults); `alive` marks which nodes are on the network (null = every
  /// node is up) — a leg to a down node fails, a frame in flight to it is
  /// lost on arrival.
  VirtualBus(SimEngine* engine, const BusList* buses, std::size_t nodes,
             core::NodeId self, double propagation_delay, double probe_latency,
             cluster::FaultInjector* faults, const std::vector<char>* alive,
             VirtualTraffic* traffic, const cluster::GroupOptions& options);
  // Scheduled deliveries hold `this`.
  VirtualBus(const VirtualBus&) = delete;
  VirtualBus& operator=(const VirtualBus&) = delete;

  // ---- core::CooperationBus (the one-way calls are ProtocolBus's) ----
  Result<core::EntryMeta> lookup_at_owner(core::NodeId ring_owner,
                                          const std::string& key,
                                          int budget_ms) override;
  Result<core::EntryMeta> query_peers(const std::string& key,
                                      int budget_ms) override;
  Result<core::CachedResult> fetch_remote(core::NodeId owner,
                                          const std::string& key) override;

  /// Virtual latency accrued by synchronous probes and fetches since the
  /// last call (probe round trips plus kDelay faults on those legs); the
  /// caller charges it to the current request's timeline.
  double take_pending_latency();

  /// NodeGroup's purge-loop tick: dead-peer probes, anti-entropy rounds.
  void tick();

 protected:
  void emit(cluster::Outbox out) override;
  /// Charged as update (or transition) legs; handoffs as handoff frames.
  void send_updates(cluster::Outbox out) override;

 private:
  bool up(core::NodeId node) const {
    return alive_ == nullptr || (*alive_)[node] != 0;
  }

  /// Where a protocol frame of `type` is charged (null = not charged).
  FrameTally* protocol_tally(cluster::MsgType type) const;

  /// One one-way leg to `to`, charged to `tally` (may be null).
  void send(core::NodeId to, const cluster::Message& msg, FrameTally* tally);
  /// Decodes one arriving frame from `from` and applies it.
  void receive(core::NodeId from, const std::string& frame);
  /// One request/response round with `to`'s Protocol. nullopt when the
  /// peer is down, a fault eats the request, or it is no data request.
  /// kDelay faults on the request add to *latency (when given).
  std::optional<cluster::Message> exchange(core::NodeId to,
                                           const cluster::Message& request,
                                           FrameTally* tally,
                                           double* latency);

  SimEngine* engine_;
  const BusList* buses_;
  core::NodeId self_;
  double propagation_delay_;
  double probe_latency_;
  cluster::FaultInjector* faults_;
  const std::vector<char>* alive_;
  VirtualTraffic* traffic_;
  double pending_latency_ = 0.0;
};

}  // namespace swala::sim
