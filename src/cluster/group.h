// NodeGroup: the TCP shell of cluster::Protocol (cluster/protocol.h), so a
// CacheManager wired to it becomes a cooperative cache. It runs the paper's
// three daemon threads per node (§4.1): the info receiver hands each decoded
// frame to the protocol, the data server answers fetches and probes on a
// thread per connection, and the purger deletes expired entries every
// `purge_interval` while its 50 ms tick drives the protocol's timers. One
// sender thread per peer writes what the protocol's send policy hands it
// (Protocol::next_frame), so the broadcast is asynchronous (no global
// locks; §4.2). The shell owns only sockets, threads and the fetch pool;
// every send goes through a Transport whose optional FaultInjector drops,
// delays, truncates or black-holes traffic for the failure tests.
#pragma once

#include <atomic>
#include <condition_variable>
#include <list>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/framing.h"
#include "cluster/protocol.h"
#include "cluster/transport.h"
#include "core/manager.h"
#include "net/socket.h"

namespace swala::cluster {

/// One provisioned member slot. The *capacity* (the slot list) is fixed at
/// config time while the active set within it is dynamic — kJoin activates
/// a slot, kDecommission deactivates one (see join_cluster / decommission).
struct MemberAddress {
  core::NodeId id = core::kInvalidNode;
  net::InetAddress info_addr;  ///< receives directory broadcasts
  net::InetAddress data_addr;  ///< serves cache fetches
};

class NodeGroup final : public ProtocolBus {
 public:
  /// `members` describes every node including this one (matched by `self`).
  NodeGroup(core::NodeId self, std::vector<MemberAddress> members,
            GroupOptions options = {});
  ~NodeGroup() override;

  NodeGroup(const NodeGroup&) = delete;
  NodeGroup& operator=(const NodeGroup&) = delete;

  /// Replaces the member address list. Needed when the group was created
  /// with ephemeral (port 0) addresses: after start() has bound the real
  /// ports, the resolved list is distributed to every group.
  /// Precondition: no cache traffic has flowed yet (call right after
  /// start(), before attach()).
  void set_members(std::vector<MemberAddress> members);

  /// Binds the info/data listeners and starts the daemon threads.
  Status start();

  /// Stops all daemons and closes all connections. Idempotent.
  void stop();

  // ---- core::CooperationBus (the one-way calls are ProtocolBus's) ----
  Result<core::CachedResult> fetch_remote(core::NodeId owner,
                                          const std::string& key) override;
  /// Budget-capped fetch: every socket timeout (connect, send, recv) is
  /// min(configured, budget_ms), so the fetch cannot outlive the request
  /// deadline that issued it. budget_ms <= 0 = configured timeouts.
  Result<core::CachedResult> fetch_remote(core::NodeId owner,
                                          const std::string& key,
                                          int budget_ms) override;
  // Partitioned mode: owner lookups ride the data channel.
  Result<core::EntryMeta> lookup_at_owner(core::NodeId ring_owner,
                                          const std::string& key,
                                          int budget_ms) override;
  GroupStats stats() const { return protocol_.stats(); }

  /// Health snapshot of every peer (excludes self).
  std::vector<PeerHealth> peer_health() const {
    return protocol_.peer_health();
  }

  /// Breaker state of one peer (kHealthy for self/unknown ids).
  PeerState peer_state(core::NodeId id) const {
    return protocol_.peer_state(id);
  }

  /// Listener ports after start() (useful when binding port 0).
  std::uint16_t info_port() const { return info_listener_.local_port(); }
  std::uint16_t data_port() const { return data_listener_.local_port(); }

  core::NodeId self() const { return self_; }

  /// Messages queued to peers and not yet delivered. Tests poll this to
  /// quiesce deterministically before invariant checks.
  std::size_t outbound_backlog() const {
    std::size_t backlog = 0;
    for (const auto& h : peer_health()) backlog += h.outbound_backlog;
    return backlog;
  }

 private:
  struct PeerLink {
    core::NodeId id = core::kInvalidNode;
    net::InetAddress info_addr;  ///< rewritten only by set_members()
    std::thread sender;
    /// Rung after every enqueue for this peer, and by stop(). The count
    /// tells the sender whether a ring landed since it last asked the
    /// protocol, so none is lost.
    std::mutex mutex;
    std::condition_variable doorbell;
    std::uint64_t rings = 0;  // guarded by mutex
  };

  /// The thread serving one accepted connection; `done` is set as it
  /// returns, so the accept loop can reap it without blocking.
  struct ConnThread {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  /// The one exit of every frame: info frames go onto the protocol's queue
  /// and ring the peer's sender; data requests run as an exchange whose
  /// answer goes back to the protocol.
  void emit(Outbox out) override;
  void ring(PeerLink* link);

  /// Serves each connection `listener` accepts on a thread of its own.
  void accept_loop(net::TcpListener* listener,
                   void (NodeGroup::*serve)(net::TcpStream));
  void info_read_loop(net::TcpStream stream);
  void serve_data_request(net::TcpStream stream);
  void purge_loop();
  /// Until stop(): wait on the doorbell for a frame, connect, greet, write,
  /// report. Then what is still queued is written once, without waiting.
  void sender_loop(PeerLink* link);

  /// One request/response round on the data channel: pooled connection,
  /// breaker fast-fail, one stale-pool retry, success/failure recording.
  /// Shared by fetch_remote, lookup_at_owner and the
  /// protocol's own requests. Timeouts are explicit because the callers
  /// budget differently.
  Result<Message> data_exchange(core::NodeId peer_id, const Message& request,
                                MsgType expected, int io_timeout_ms,
                                int connect_timeout_ms);

  PeerLink* find_link(core::NodeId id) const;

  core::NodeId self_;
  std::vector<MemberAddress> members_;
  GroupOptions options_;
  Transport transport_;
  GroupStats& stats_ = protocol_.stats();  ///< the protocol's counters

  net::TcpListener info_listener_;
  net::TcpListener data_listener_;

  std::atomic<bool> running_{false};
  std::thread info_accept_thread_;
  std::thread data_accept_thread_;
  std::thread purge_thread_;
  std::vector<std::unique_ptr<PeerLink>> peers_;  // excludes self

  std::mutex conn_mutex_;
  std::list<ConnThread> conn_threads_;  // guarded by conn_mutex_

  // Pooled idle data connections, keyed by peer node id.
  std::mutex pool_mutex_;
  std::unordered_map<core::NodeId, std::vector<net::TcpStream>> fetch_pool_;
};

/// Builds loopback member addresses with ephemeral ports for `n` in-process
/// nodes (test/bench helper). Real ports are assigned when each group's
/// start() binds; LocalCluster redistributes them via set_members().
std::vector<MemberAddress> loopback_members(std::size_t n);

}  // namespace swala::cluster
