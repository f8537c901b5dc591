// The in-memory cooperation bus of both virtual-time substrates: the
// simulated cluster (run_cluster_sim) and the chaos harness
// (run_sim_chaos). One VirtualBus per node connects that node's real
// CacheManager to its peers' managers over the discrete-event engine:
// one-way legs (directory updates, handoffs, state pushes) arrive after a
// propagation delay; request/response exchanges (owner probes, query
// sweeps, fetches) read the peer's state immediately, and their round-trip
// cost accrues as pending latency the caller charges to its own timeline.
//
// Every leg consults the sending node's FaultInjector exactly like
// cluster::Transport::send, with the TCP group's semantics: a dropped,
// truncated or blackholed leg is lost, kDelay stretches it, and kDuplicate
// delivers a one-way frame twice. Frames are charged at their real encoded
// wire size.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cluster/message.h"
#include "cluster/transport.h"
#include "core/manager.h"
#include "sim/engine.h"

namespace swala::sim {

/// Frames and encoded bytes charged to one class of traffic.
struct FrameTally {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;

  /// Charges `legs` copies of `msg`.
  void add(const cluster::Message& msg, std::size_t legs = 1);
};

/// Cooperation traffic shared by every node's bus (one per cluster).
/// Frames are counted at send time, fault-injected legs included — traffic
/// offered to the network, as a packet capture would see it.
struct VirtualTraffic {
  FrameTally updates;      ///< insert/erase/invalidate + kOwnerUpdate legs
  FrameTally queries;      ///< kQuery/kQueryHit exchanges, both directions
  FrameTally transitions;  ///< update legs sent while in_transition is set
  FrameTally handoffs;     ///< decommission handoff frames
  std::uint64_t handoffs_adopted = 0;
  /// While set, update legs count as transition traffic instead of regular
  /// directory updates (a driver raises it around member_joined /
  /// member_left / handoff_state, whose forwarding rides the same bus).
  bool in_transition = false;
};

using ManagerList = std::vector<std::unique_ptr<core::CacheManager>>;

class VirtualBus final : public core::CooperationBus {
 public:
  /// `managers` is indexed by node id and may be filled after construction.
  /// `faults` is the sender-side injector (null = no faults); `alive` marks
  /// which nodes are on the network (null = every node is up) — a leg to a
  /// down node is lost on arrival, a probe or fetch to it times out.
  VirtualBus(SimEngine* engine, const ManagerList* managers, core::NodeId self,
             double propagation_delay, double probe_latency,
             cluster::FaultInjector* faults, const std::vector<char>* alive,
             VirtualTraffic* traffic);
  // Scheduled deliveries hold `this`.
  VirtualBus(const VirtualBus&) = delete;
  VirtualBus& operator=(const VirtualBus&) = delete;

  void broadcast_insert(const core::EntryMeta& meta) override;
  void broadcast_erase(core::NodeId owner, const std::string& key,
                       std::uint64_t version) override;
  void broadcast_invalidate(const std::string& pattern,
                            std::uint64_t epoch) override;
  void send_owner_insert(core::NodeId ring_owner,
                         const core::EntryMeta& meta) override;
  void send_owner_erase(core::NodeId ring_owner, core::NodeId cache_node,
                        const std::string& key,
                        std::uint64_t version) override;
  Result<core::EntryMeta> lookup_at_owner(core::NodeId ring_owner,
                                          const std::string& key,
                                          int budget_ms) override;
  Result<core::EntryMeta> query_peers(const std::string& key,
                                      int budget_ms) override;
  Result<core::CachedResult> fetch_remote(core::NodeId owner,
                                          const std::string& key) override;
  void send_handoff(core::NodeId successor, const core::EntryMeta& meta,
                    const std::string& body) override;

  /// Virtual latency accrued by synchronous probes and fetches since the
  /// last call (probe round trips plus kDelay faults on those legs); the
  /// caller charges it to the current request's timeline.
  double take_pending_latency();

  /// Consults this node's injector for one leg to `to`: how many copies
  /// arrive (0 = lost, 2 = duplicated), stretching *delay on kDelay.
  int copies(core::NodeId to, cluster::MsgType type, double* delay);

  /// Re-announces this node's resident entries to `to` — the kSyncReq
  /// answer, recovery push and replicated-mode join seeding — mode-aware
  /// like NodeGroup::push_state_to: everything in replicated mode, only the
  /// keys `to` owns in partitioned mode, nothing in query mode. Frames are
  /// charged to `tally` and are not subject to fault injection.
  void push_state(core::NodeId to, FrameTally* tally);

 private:
  bool up(std::size_t node) const {
    return alive_ == nullptr || (*alive_)[node] != 0;
  }
  core::CacheManager* manager(std::size_t node) const {
    return (*managers_)[node].get();
  }
  /// Peers outside the sender's membership view get no traffic (the TCP
  /// group drops frames to inactive slots at the sender).
  bool is_peer(std::size_t node) const {
    return node != self_ &&
           manager(self_)->is_member(static_cast<core::NodeId>(node));
  }

  /// One one-way leg to `to`: consults the injector, then schedules
  /// `apply` on the receiver once per arriving copy.
  void send(core::NodeId to, cluster::MsgType type,
            const std::function<void(core::CacheManager*)>& apply);

  /// Sends `msg` to every peer in this node's membership view, charging
  /// the legs as update (or transition) traffic.
  void fan_out(const cluster::Message& msg,
               const std::function<void(core::CacheManager*)>& apply);

  /// Charges `legs` copies of an update frame.
  void count_update_legs(const cluster::Message& msg, std::size_t legs);

  /// One kQuery exchange against `peer`'s directory. Returns {answered,
  /// hit}: `answered` is false when the peer is down or a fault eats the
  /// exchange. The request frame is always counted, the response only when
  /// one comes back.
  std::pair<bool, std::optional<core::EntryMeta>> probe(
      core::NodeId peer, const std::string& key);

  SimEngine* engine_;
  const ManagerList* managers_;
  core::NodeId self_;
  double propagation_delay_;
  double probe_latency_;
  cluster::FaultInjector* faults_;
  const std::vector<char>* alive_;
  VirtualTraffic* traffic_;
  double pending_latency_ = 0.0;
};

}  // namespace swala::sim
