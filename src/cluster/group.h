// NodeGroup: the TCP shell of cluster::Protocol (cluster/protocol.h), so a
// CacheManager wired to it becomes a cooperative cache. It runs the paper's
// three daemon threads per node (§4.1): the info receiver hands each decoded
// frame to the protocol, the data server answers fetches and probes on a
// thread per connection, and the purger deletes expired entries every
// `purge_interval` while its 50 ms tick drives the protocol's timers. Per-
// peer sender threads drain outbound queues, so the broadcast is
// asynchronous (no global locks; §4.2). The shell owns sockets, fetch pool,
// batching and retry with backoff; every frame leaves through emit(), which
// counts one it cannot queue as a send failure, and every send goes through
// a Transport whose optional FaultInjector drops, delays, truncates or
// black-holes traffic for the failure tests.
#pragma once

#include <atomic>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/framing.h"
#include "cluster/protocol.h"
#include "cluster/transport.h"
#include "common/queue.h"
#include "common/random.h"
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
  // Query mode: a bounded sequential probe of the healthy peers (ICP uses
  // UDP multicast; over TCP the pooled data connections make a short
  // request/response round cheap). Total time never exceeds `budget_ms`
  // (<=0 = fetch_timeout_ms); each peer gets at most query_timeout_ms.
  Result<core::EntryMeta> query_peers(const std::string& key,
                                      int budget_ms) override;
  GroupStats stats() const { return protocol_.stats(); }

  /// Health snapshot of every peer (excludes self).
  std::vector<PeerHealth> peer_health() const;

  /// Breaker state of one peer (kHealthy for self/unknown ids).
  PeerState peer_state(core::NodeId id) const {
    return protocol_.peer_state(id);
  }

  /// Listener ports after start() (useful when binding port 0).
  std::uint16_t info_port() const { return info_listener_.local_port(); }
  std::uint16_t data_port() const { return data_listener_.local_port(); }

  core::NodeId self() const { return self_; }

  /// Messages enqueued to peers but not yet handed to their sender sockets.
  /// Tests poll this to quiesce deterministically before invariant checks.
  std::size_t outbound_backlog() const;

 private:
  struct PeerLink {
    MemberAddress address;
    std::unique_ptr<BoundedQueue<Message>> outbound;
    std::thread sender;
  };

  /// The one exit of every frame: info frames go onto the peer's outbound
  /// queue (a full queue counts as a send failure); data requests run as
  /// an exchange whose answer goes back to the protocol.
  void emit(Outbox out) override;

  void info_accept_loop();
  void info_read_loop(net::TcpStream stream);
  /// Pulls additional batchable messages from `link`'s queue into `run`
  /// until size/byte/linger limits; a non-batchable pull lands in `carry`.
  void collect_batch(PeerLink* link, std::vector<Message>* run,
                     std::optional<Message>* carry);
  void data_accept_loop();
  void serve_data_request(net::TcpStream stream);
  void purge_loop();
  void sender_loop(PeerLink* link);

  /// One request/response round on the data channel: pooled connection,
  /// breaker fast-fail, one stale-pool retry, success/failure recording.
  /// Shared by fetch_remote, lookup_at_owner, query_peers and the
  /// protocol's own requests. Timeouts are explicit because the callers
  /// budget differently.
  Result<Message> data_exchange(core::NodeId peer_id, const Message& request,
                                MsgType expected, int io_timeout_ms,
                                int connect_timeout_ms);

  PeerLink* find_link(core::NodeId id) const;
  int backoff_delay_ms(int attempt);

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

  std::mutex reader_mutex_;
  std::vector<std::thread> reader_threads_;
  std::vector<std::thread> data_threads_;

  // Pooled idle data connections, keyed by peer node id.
  std::mutex pool_mutex_;
  std::unordered_map<core::NodeId, std::vector<net::TcpStream>> fetch_pool_;

  std::mutex backoff_mutex_;
  Rng backoff_rng_;  // guarded by backoff_mutex_

  /// Rotating start offset for query_peers sweeps (seeded from backoff_seed
  /// so probe order is deterministic per node yet differs across nodes).
  std::atomic<std::uint64_t> query_rotation_{0};
};

/// Builds loopback member addresses with ephemeral ports for `n` in-process
/// nodes (test/bench helper). Real ports are assigned when each group's
/// start() binds; LocalCluster redistributes them via set_members().
std::vector<MemberAddress> loopback_members(std::size_t n);

}  // namespace swala::cluster
