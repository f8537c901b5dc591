// cluster::Protocol: one node's cooperation protocol, free of I/O — the
// paper's info receiver, data server and purger decisions and asynchronous
// broadcast (§4.1-4.2), plus failure handling, anti-entropy repair and
// dynamic membership. It takes decoded frames, send outcomes and the time
// from a Clock, and returns the frames to send; it never touches a socket,
// sleeps or reads a wall clock. NodeGroup (cluster/group.h) is its TCP
// shell and sim::VirtualBus (sim/virtual_bus.h) its virtual-time shell, so
// the server and both simulators run the same protocol code.
//
// Frames leave as an Outbox. A data request in it (kInvSync, kJoin) expects
// an answer, handed back through on_response(); the rest are one-way info
// frames for enqueue(). Each peer's queue and send policy live here:
// next_frame() says what to write (a HELLO first on every new connection, a
// run of directory updates as one kBatch, a failed frame again after a
// jittered backoff) or when to ask again. A shell connects, writes and
// reports to on_send_result(), the circuit breaker: `failure_threshold`
// consecutive failures move a peer Healthy → Suspect → Dead, quarantine its
// table and start HELLO probes every `probe_interval_ms`; the first success
// then closes the breaker, drops the stale table, sends kSyncReq and pushes
// our own entries.
//
// Thread safety: per peer, one mutex for the breaker and one for the queue;
// active flags and counters are atomics.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cluster/message.h"
#include "common/clock.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/manager.h"

namespace swala::cluster {

class FaultInjector;

/// Circuit-breaker state of one peer as seen from this node.
enum class PeerState {
  kHealthy,  ///< breaker closed; traffic flows normally
  kSuspect,  ///< recent failure(s); still trying, not yet written off
  kDead,     ///< breaker open; broadcasts dropped, fetches fast-fail
};

const char* peer_state_name(PeerState state);

struct GroupOptions {
  double purge_interval_seconds = 2.0;  ///< "wakes up every few seconds"
  int fetch_timeout_ms = 10000;         ///< read deadline on FETCH_REQ
  int connect_timeout_ms = 5000;
  std::size_t outbound_queue_capacity = 65536;
  /// Idle data connections kept per peer for reuse (0 disables pooling and
  /// opens a connection per fetch, as the original Swala did).
  std::size_t fetch_pool_size = 4;
  /// Per-exchange ceiling for directory probes (partitioned-mode owner
  /// lookups, kQuery). Deliberately much tighter than
  /// fetch_timeout_ms: a probe is an optimization, and a slow answer must
  /// not delay the local-execution fallback.
  int query_timeout_ms = 300;

  // ---- broadcast batching ----
  /// Most queued directory updates (INSERT/ERASE/INVALIDATE/OWNER_UPDATE)
  /// packed into one kBatch frame. 1 disables batching: every update goes in
  /// its own frame, so per-type fault rules see each update (tests that
  /// target one update type set 1).
  std::size_t batch_max_messages = 64;
  /// Approximate payload ceiling for one batch frame.
  std::size_t batch_max_bytes = 256 * 1024;
  /// How long a run lingers for more updates once it holds the first one
  /// and the queue runs dry. Bounds the latency batching can add.
  int batch_linger_ms = 2;

  // ---- failure handling ----
  /// Send attempts per queued frame before counting a failure.
  int broadcast_retry_limit = 3;
  int backoff_base_ms = 10;   ///< delay before the first retry (doubles)
  int backoff_max_ms = 200;   ///< backoff ceiling
  std::uint64_t backoff_seed = 0xB0FF5EEDu;  ///< jitter rng seed
  /// Consecutive failures that flip a peer's breaker to kDead.
  int failure_threshold = 3;
  /// How often a dead peer is probed with a HELLO.
  int probe_interval_ms = 250;
  /// Anti-entropy cadence: every this many milliseconds each live peer gets
  /// a kDigest (high-water invalidation epochs + directory digest). A
  /// receiver that detects an epoch gap pulls the missed invalidations
  /// (kInvSync); a digest mismatch on two consecutive rounds triggers a
  /// directory resync. 0 disables anti-entropy (the paper's
  /// fire-and-forget behaviour).
  int anti_entropy_interval_ms = 1000;
  /// Optional deterministic fault hook applied to every outgoing message
  /// (not owned; tests and the simulator share the same injector type).
  FaultInjector* fault_injector = nullptr;

  // ---- dynamic membership ----
  /// Per-peer ceiling on one kJoin/kJoinAck exchange.
  int join_timeout_ms = 3000;
  /// Largest entry body shipped in one decommission handoff frame; larger
  /// entries are dropped (a lost cache entry costs one re-execution).
  std::size_t handoff_batch_bytes = 256 * 1024;
  /// Member ids active at start (this node's initial view). Empty = every
  /// configured slot. A node started outside the active set joins via
  /// join_cluster(); peers list it here-absent until its kJoin.
  std::vector<core::NodeId> initial_active;
};

/// Counters for the overhead experiments (Tables 3 and 4).
struct GroupStats {
  Counter broadcasts_sent;
  /// Frames written to peer info channels (greetings included). With
  /// batching this is what amortization shrinks: many updates, one frame.
  Counter frames_sent;
  /// Updates that rode inside a kBatch frame (counts inner messages).
  Counter batched_broadcasts;
  Counter updates_received;
  Counter fetches_served;
  Counter fetch_misses_served;  ///< peers' false hits seen from here
  Counter remote_fetches;
  /// Frames that could not be handed to a peer: a full outbound queue, or
  /// every send attempt failed.
  Counter send_failures;
  // ---- failure handling ----
  Counter send_retries;       ///< backoff-gated resend attempts
  Counter peer_failures;      ///< breaker failure recordings
  Counter messages_dropped;   ///< discarded while a peer was dead/inactive
  Counter probes_sent;        ///< HELLO probes to dead peers
  Counter resyncs_requested;  ///< SYNC_REQs sent on recovery
  Counter resyncs_served;     ///< peers' SYNC_REQs answered
  // ---- cooperation modes ----
  Counter owner_updates_sent;  ///< unicast kOwnerUpdate frames
  Counter queries_sent;        ///< kQuery probes issued
  Counter query_hits;          ///< probes answered "found"
  Counter queries_served;      ///< peers' kQuery probes answered
  // ---- anti-entropy consistency repair ----
  Counter anti_entropy_rounds;  ///< digest rounds initiated
  Counter digests_sent;         ///< kDigest frames issued
  Counter digest_repairs;       ///< directory resyncs a mismatch forced
  Counter inv_syncs_pulled;     ///< kInvSync pulls issued on a gap
  Counter inv_syncs_served;     ///< peers' kInvSync pulls answered
  // ---- dynamic membership ----
  Counter joins_sent;              ///< kJoin requests issued
  Counter joins_served;            ///< peers' kJoin requests admitted
  Counter decommissions_observed;  ///< kDecommission frames applied
  Counter handoff_frames_sent;     ///< kInsert handoff frames enqueued
  Counter handoffs_adopted;        ///< handed-off entries adopted here
};

/// Snapshot of one peer's health (exposed via /swala-status).
struct PeerHealth {
  core::NodeId id = core::kInvalidNode;
  PeerState state = PeerState::kHealthy;
  bool active = true;  ///< member slot currently in the active set
  std::uint64_t consecutive_failures = 0;
  std::uint64_t total_failures = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t probes_sent = 0;
  std::size_t outbound_backlog = 0;
};

/// One frame the protocol wants sent to `to`.
struct Outgoing {
  core::NodeId to = core::kInvalidNode;
  Message msg;
  /// The shell's own label, opaque to the protocol and handed back with the
  /// frame by next_frame() (the virtual shell's traffic class).
  int tag = 0;
};
using Outbox = std::vector<Outgoing>;

/// What a peer's sender does next (Protocol::next_frame): write `frame`
/// and report it, or else wait until `wake_at` (a linger or a backoff;
/// kIdle: until the next enqueue).
struct NextFrame {
  static constexpr TimeNs kIdle = std::numeric_limits<TimeNs>::max();
  std::optional<Message> frame;
  int tag = 0;  ///< the first queued frame's Outgoing::tag (0: a greeting)
  TimeNs wake_at = kIdle;
};

/// Which send an outcome reports: a data exchange, or the frame
/// next_frame() returned.
enum class SendLeg { kExchange, kFrame };

/// Data-channel requests: the frames that expect an answer on the same
/// connection (everything else rides the one-way info channel).
bool is_data_request(MsgType type);

class Protocol {
 public:
  /// Slots are the dense ids [0, `nodes`), `self` among them.
  Protocol(core::NodeId self, std::size_t nodes, const GroupOptions& options,
           const Clock* clock);

  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  /// Wires the manager frames are applied to. Release store: threads
  /// already running acquire-load it.
  void attach(core::CacheManager* manager) {
    manager_.store(manager, std::memory_order_release);
  }
  core::CacheManager* manager() const {
    return manager_.load(std::memory_order_acquire);
  }

  /// Optional sink for protocol events (peer dead/recovered, repairs,
  /// membership changes). Unset, events go to the log. Set before traffic.
  void set_tracer(std::function<void(const std::string&)> tracer) {
    tracer_ = std::move(tracer);
  }
  /// Reports one event as "node <self>: <text>".
  void trace(const std::string& text, bool warn = false) const;

  /// Restart: closes every breaker, forgets digest tracking and restarts
  /// the timers from now. Active flags (the membership view) survive.
  void reset();

  // ---- inbound ----

  /// Applies one info-channel frame (a kBatch applies its inner messages
  /// in order).
  Outbox on_info(const Message& msg);

  /// Answers one data-channel request (kFetchReq, kQuery, kInvSync, kJoin).
  /// Frames the answer triggers (a joiner's seeding push) go to `out`
  /// before the answer. nullopt: not a data request, drop the connection.
  std::optional<Message> answer(const Message& request, Outbox* out);

  /// The answer to a data request this protocol emitted.
  void on_response(core::NodeId peer, const Message& response);

  /// Outcome of one send to `peer`. A failed frame ends the connection and
  /// is retried while it has attempts left (a probe to a dead peer has
  /// one); the breaker hears of it once, delivered or given up.
  Outbox on_send_result(core::NodeId peer, bool ok,
                        SendLeg leg = SendLeg::kExchange);

  // ---- outbound ----

  /// Queues one info frame for its peer. False, counted in send_failures,
  /// when the queue holds `outbound_queue_capacity` frames already.
  bool enqueue(Outgoing frame);

  /// The frame to write to `peer` now, or when to ask again; the same one
  /// until its outcome is reported. A frame leaving the queue is dropped
  /// for an inactive slot, and for an open breaker unless it is a HELLO. A
  /// run of directory updates leaves as one kBatch (a run of one plain) and
  /// never passes a frame of another type.
  NextFrame next_frame(core::NodeId peer, TimeNs now);

  /// The shell opened a new connection to `peer`: a HELLO goes first.
  void on_connected(core::NodeId peer);

  /// One frame per active peer.
  Outbox broadcast(const Message& msg);

  /// `msg` to `peer` when it is an active member; otherwise counted as
  /// dropped (anti-entropy repairs an update that raced a transition).
  Outbox unicast(core::NodeId peer, Message msg);

  /// Whether a data exchange with `peer` may start (active, breaker
  /// closed); otherwise the status to fail fast with.
  Status exchange_allowed(core::NodeId peer) const;

  // ---- timers ----

  /// Dead-peer probes and, when due, one anti-entropy round. Call often
  /// (the shells tick every 50 ms).
  Outbox tick();

  // ---- membership ----

  /// Join, phase 1: one kJoin to every active peer. Each member admits us
  /// explicitly; the first kJoinAck's view is kept but not adopted yet.
  Outbox join_requests();

  /// Join, phase 2: adopts the first acked view, realigns the active
  /// flags and greets every member. Fails when no peer admitted us.
  Status finish_join(Outbox* out);

  /// Graceful leave: stop admitting entries, hand cached state to the
  /// successors (over the manager's bus), then broadcast kDecommission.
  core::CacheManager::HandoffStats decommission(Outbox* out);

  // ---- introspection ----

  PeerState peer_state(core::NodeId id) const;
  /// Breaker, queue and counter fields of every peer.
  std::vector<PeerHealth> peer_health() const;
  /// Message::hello carrying the epoch vectors and membership epoch.
  Message make_hello() const;

  GroupStats& stats() { return stats_; }
  const GroupStats& stats() const { return stats_; }
  core::NodeId self() const { return self_; }

 private:
  struct Peer {
    core::NodeId id = core::kInvalidNode;
    /// Member slot currently in the active set (this node's view). An
    /// inactive slot is not dead — its breaker is untouched — it is simply
    /// not a member: no broadcasts, probes, digests or queries.
    std::atomic<bool> active{true};

    mutable std::mutex mutex;
    PeerState state = PeerState::kHealthy;  // guarded by mutex
    int consecutive_failures = 0;           // guarded by mutex
    TimeNs next_probe = 0;                  // guarded by mutex
    /// Last mismatching digest pair (peer-advertised, locally computed).
    /// A repair fires only after two consecutive rounds mismatch with the
    /// SAME pair on both sides: if either side's digest moved between
    /// rounds, updates were still in flight and the apparent drift may be
    /// converging on its own — no resync yet. Guarded by mutex.
    std::uint64_t last_peer_digest = 0;
    std::uint64_t last_local_digest = 0;
    bool mismatch_pending = false;

    std::atomic<std::uint64_t> total_failures{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> probes{0};

    /// The outbound side, guarded by send_mutex (taken before `mutex`):
    /// `pending`, made of `pending_updates` queued frames, is being sent.
    mutable std::mutex send_mutex;
    std::deque<Outgoing> queue;
    std::optional<TimeNs> linger_until;  ///< the head run waits until then
    std::optional<Message> pending;
    int pending_tag = 0;
    std::size_t pending_updates = 0;
    int attempts = 0;
    int max_attempts = 1;
    TimeNs retry_at = 0;
    bool greet = false;  ///< a new connection owes a HELLO
  };

  Peer* find(core::NodeId id) const;
  /// Closes `peer`'s breaker (a restart, or a slot joining or leaving:
  /// neither is a death).
  static void close_breaker(Peer* peer);
  PeerState state_of(const Peer* peer) const;
  void count_drop(Peer* peer);
  /// Whether a queued frame of `type` may still go to `peer`: the slot is
  /// active and, unless the frame is a HELLO, its breaker is not open.
  /// Returns the breaker state of an admitted frame; a refused frame is
  /// counted as dropped.
  std::optional<PeerState> admit(Peer* peer, MsgType type);
  // Both require peer->send_mutex. seal_next makes `pending` from the
  // queue, or says when to try again. settle books a written frame's
  // outcome, true when the breaker should hear of it.
  bool seal_next(Peer* peer, TimeNs now, TimeNs* wake_at);
  bool settle(Peer* peer, bool ok);
  /// Jittered exponential delay before retry number `attempt` (1-based).
  TimeNs backoff(int attempt);

  /// Closes the breaker; a dead peer's recovery resyncs both directions.
  void record_success(Peer* peer, Outbox* out);
  void record_failure(Peer* peer);
  /// Re-announces what `peer` should know of the local cache after a
  /// resync or, with `joining`, on admission (the manager's locator picks
  /// the entries and the frame type).
  void push_state_to(core::NodeId peer, Outbox* out, bool joining = false);
  /// Requests the missed invalidations when `high` proves we are behind.
  void maybe_pull_inv_sync(core::NodeId peer, const core::EpochVector& high,
                           Outbox* out);
  /// Two-strike digest comparison for one kDigest frame.
  void check_digest(core::NodeId peer, std::uint64_t digest, Outbox* out);
  void anti_entropy_round(Outbox* out);
  void probe_dead_peers(Outbox* out);
  /// Applies one non-batch info frame.
  void apply_info_message(const Message& msg, Outbox* out);

  core::NodeId self_;
  GroupOptions options_;
  const Clock* clock_;
  std::atomic<core::CacheManager*> manager_{nullptr};
  std::function<void(const std::string&)> tracer_;
  std::vector<std::unique_ptr<Peer>> peers_;  // excludes self, slot order
  GroupStats stats_;

  std::mutex timer_mutex_;
  TimeNs next_anti_entropy_ = 0;  // guarded by timer_mutex_
  Rng backoff_rng_;               // guarded by timer_mutex_

  std::mutex join_mutex_;
  std::optional<Message> join_ack_;  // guarded by join_mutex_
};

/// The core::CooperationBus half both shells share: the manager's one-way
/// calls become protocol frames, and join and decommission run the
/// protocol's sequences. A shell supplies the sending.
class ProtocolBus : public core::CooperationBus {
 public:
  void broadcast_insert(const core::EntryMeta& meta) override;
  void broadcast_erase(core::NodeId owner, const std::string& key,
                       std::uint64_t version) override;
  void broadcast_invalidate(const std::string& pattern,
                            std::uint64_t epoch) override;
  // Partitioned mode: unicast directory updates to the key's ring owner.
  void send_owner_insert(core::NodeId ring_owner,
                         const core::EntryMeta& meta) override;
  void send_owner_erase(core::NodeId ring_owner, core::NodeId cache_node,
                        const std::string& key,
                        std::uint64_t version) override;
  /// Decommission handoff: ships one cached entry (meta + body) to its
  /// successor as a kInsert frame flagged handoff, so the receiver adopts
  /// the entry into its own store instead of recording a directory entry.
  void send_handoff(core::NodeId successor, const core::EntryMeta& meta,
                    const std::string& body) override;

  /// Two-phase join into a running cluster: a kJoin to every active peer
  /// over the data channel, then adopt the first kJoinAck's membership and
  /// greet every member. Requires a manager attached.
  Status join_cluster();

  /// Graceful leave: stop admitting entries, hand cached state to the ring
  /// successors, broadcast kDecommission. The caller drains afterwards.
  core::CacheManager::HandoffStats decommission();

  /// Wires the manager frames are applied to (the manager itself needs
  /// this bus, hence the two-phase setup).
  void attach(core::CacheManager* manager) { protocol_.attach(manager); }
  Protocol& protocol() { return protocol_; }

 protected:
  ProtocolBus(core::NodeId self, std::size_t nodes,
              const GroupOptions& options, const Clock* clock)
      : protocol_(self, nodes, options, clock) {}

  /// Sends the protocol's own frames: info frames to Protocol::enqueue, a
  /// data request as an exchange whose answer goes back through
  /// Protocol::on_response.
  virtual void emit(Outbox out) = 0;
  /// Sends the manager's directory updates and handoffs.
  virtual void send_updates(Outbox out) { emit(std::move(out)); }

  Protocol protocol_;
};

}  // namespace swala::cluster
