// Transport: framed message I/O between cluster nodes, with an optional
// deterministic fault-injection hook. Every send the cluster layer performs
// (broadcast, fetch request, fetch response, hello, sync) flows through one
// Transport, so a single FaultInjector can drop, delay, truncate or
// black-hole traffic per peer / message type / sequence position — which is
// what makes peer-failure behaviour testable without kill + sleep.
//
// The same FaultInjector plugs into the simulator's in-memory bus
// (sim/cluster_sim.h), so identical fault scenarios run under virtual time.
#pragma once

#include <mutex>
#include <optional>
#include <vector>

#include "cluster/framing.h"
#include "common/random.h"

namespace swala::cluster {

/// What happens to a matched message.
enum class FaultKind {
  kNone,       ///< deliver normally
  kDrop,       ///< silently discard; the sender believes the send succeeded
  kDelay,      ///< deliver after `delay_ms` (slow peer / congested link)
  kTruncate,   ///< write a partial frame, then fail the send (torn write)
  kBlackhole,  ///< discard like kDrop; the simulator models it as a hang
               ///< until the caller's deadline instead of a silent loss
  kDuplicate,  ///< deliver the frame twice (retransmit/replay); receivers
               ///< must treat the copy as a no-op (version/epoch guards)
};

const char* fault_kind_name(FaultKind kind);

/// One injection rule. Rules are matched in insertion order; the first rule
/// whose peer/type filters match a message decides its fate. `skip` lets
/// that many matching messages pass before the rule starts firing, and
/// `count` bounds how many times it fires (0 = forever), which is how tests
/// target "the 3rd broadcast to node 2" deterministically.
struct FaultRule {
  core::NodeId peer = core::kInvalidNode;  ///< kInvalidNode = any peer
  std::optional<MsgType> type;             ///< nullopt = any message type
  FaultKind kind = FaultKind::kDrop;
  int delay_ms = 0;                        ///< kDelay only
  std::uint64_t skip = 0;                  ///< matches to let pass first
  std::uint64_t count = 0;                 ///< firings allowed; 0 = forever
  double probability = 1.0;                ///< seeded coin after skip/count
};

/// Outcome of consulting the injector for one message.
struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  int delay_ms = 0;
};

/// Deterministic, thread-safe fault oracle. All randomness (the optional
/// per-rule probability) comes from one seeded Rng, so a scenario replays
/// bit-for-bit given the same seed and message order.
class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 0x5EEDFA11u);

  void add_rule(FaultRule rule);
  void clear();

  /// Decides the fate of one outgoing message to `peer`.
  FaultDecision decide(core::NodeId peer, MsgType type);

  /// Total faults fired so far (tests assert the scenario actually ran).
  std::uint64_t faults_injected() const;

 private:
  struct ActiveRule {
    FaultRule rule;
    std::uint64_t matched = 0;
    std::uint64_t fired = 0;
  };

  mutable std::mutex mutex_;
  Rng rng_;                         // guarded by mutex_
  std::vector<ActiveRule> rules_;   // guarded by mutex_
  std::uint64_t faults_injected_ = 0;
};

/// Framed send over a TcpStream with faults applied on the send side.
/// Injecting at the sender is sufficient for every failure mode: a dropped
/// FETCH_REQ or FETCH_RESP surfaces at the other end as a read timeout, a
/// truncated frame as a mid-frame EOF, a dropped broadcast as a lost
/// directory update.
class Transport {
 public:
  explicit Transport(FaultInjector* faults = nullptr) : faults_(faults) {}

  /// Sends one framed message to `peer`. A kDrop/kBlackhole fault returns OK
  /// without writing; kTruncate writes a torn frame and fails the send.
  Status send(net::TcpStream& stream, core::NodeId peer, const Message& msg);

  FaultInjector* injector() const { return faults_; }

 private:
  FaultInjector* faults_;  ///< not owned; null = fault-free transport
};

}  // namespace swala::cluster
