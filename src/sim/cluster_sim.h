// Simulated Swala cluster: N nodes, each with an FCFS CPU and a *real*
// CacheManager (memory-backed store, real directory, real rules), connected
// by sim::VirtualBus (sim/virtual_bus.h), which delays directory broadcasts
// by a configurable propagation latency — which is exactly what produces
// the paper's false misses and false hits (§4.2).
//
// Closed-loop clients replay a trace: each client stream is pinned to one
// server node (as in §5.2: "every thread launches requests to a single
// server node") and issues its next request as soon as the previous one
// completes.
//
// Used by: Figure 4 (multi-node response times), Table 3 (insert/broadcast
// overhead), Tables 5 & 6 (stand-alone vs cooperative hit ratios).
#pragma once

#include <memory>
#include <vector>

#include "cluster/transport.h"
#include "common/stats.h"
#include "core/manager.h"
#include "sim/engine.h"
#include "sim/resource.h"
#include "workload/trace.h"

namespace swala::sim {

/// Cost model, calibrated from the paper's published single-node numbers
/// (Figure 3 and §5.1); see EXPERIMENTS.md for the derivation.
struct SimCosts {
  double cgi_startup = 0.010;          ///< fork/exec overhead added to a CGI miss
  double local_fetch_cpu = 0.004;      ///< serving a hit from the local disk cache
  double remote_fetch_cpu = 0.004;     ///< requester-side cost of a remote fetch
  double remote_fetch_latency = 0.012; ///< network round trip to the owner
  double insert_cpu = 0.001;           ///< cache insert + broadcast enqueue
  double directory_update_delay = 0.003;  ///< broadcast propagation latency
  double per_request_overhead = 0.002; ///< parse/connection handling
  /// Round trip for one directory probe (partitioned owner lookup, or the
  /// query-mode kQuery sweep — the sweep is one multicast round, so it is
  /// charged once, not per peer).
  double query_latency = 0.012;

  /// Optional memory model (off when node_memory_bytes == 0). The paper's
  /// testbed had 64-128 MB nodes, and its measured 8-node speedup was ~9x —
  /// *superlinear*, because splitting the working set across nodes lifted
  /// each node out of buffer-cache thrashing. When enabled, a node whose
  /// working set (distinct response bytes served) exceeds its memory pays a
  /// service-time multiplier that grows with the overflow ratio:
  ///   multiplier = 1 + thrash_slope * max(0, working_set/memory - 1)
  std::uint64_t node_memory_bytes = 0;
  double thrash_slope = 1.0;
};

struct SimConfig {
  std::size_t nodes = 1;
  std::size_t client_streams = 16;  ///< concurrent closed-loop streams
  /// Open-loop replay: requests fire at their trace arrival times (round-
  /// robin across nodes) instead of as closed-loop streams. Use for what-if
  /// analysis over imported real logs, where the arrival process is part of
  /// the data. `client_streams` is ignored in this mode.
  bool open_loop = false;
  bool caching = true;
  bool cooperative = true;  ///< false = stand-alone caches (no bus)
  core::StoreLimits limits{2000, 0};
  core::PolicyKind policy = core::PolicyKind::kLru;
  double min_exec_seconds = 0.0;  ///< insert threshold
  double ttl_seconds = 0.0;       ///< 0 = never expire
  /// Directory cooperation scheme (cooperative mode only); the head-to-head
  /// knob for bench/ablation_directory_modes.
  core::DirectoryMode directory_mode = core::DirectoryMode::kReplicated;
  std::uint64_t ring_seed = HashRing::kDefaultSeed;  ///< partitioned placement
  std::size_t ring_vnodes = HashRing::kDefaultVnodes;
  SimCosts costs;
  /// Optional fault hook shared with the real transport (not owned). The
  /// simulated bus consults it per peer/message exactly like the TCP layer:
  /// drop/truncate/blackhole on a broadcast loses the directory update;
  /// any of those on a FETCH_REQ fails the fetch (→ local fallback, counted
  /// in fallback_executions); kDuplicate delivers a broadcast twice; kDelay
  /// adds delay_ms of virtual latency to a broadcast's propagation, or to
  /// the request that sent a probe or fetch. Same rules, same seed → same
  /// scenario as the wire transport, but under virtual time.
  cluster::FaultInjector* faults = nullptr;

  // ---- membership churn under load (cooperative mode only) ----
  /// When set (≠ kInvalidNode), this node starts *outside* the active set —
  /// its pinned client streams serve stand-alone — and runs the join
  /// protocol once `join_after_fraction` of the trace has completed: every
  /// member admits it (partitioned mode forwards only the remapped
  /// directory slice, replicated mode seeds it with a full push), then the
  /// joiner adopts the cluster view.
  core::NodeId join_node = core::kInvalidNode;
  double join_after_fraction = 0.25;
  /// When set, this node leaves gracefully once
  /// `decommission_after_fraction` of the trace has completed: it stops
  /// admitting entries, ships its cached state to ring successors over the
  /// handoff channel, peers drop it without quarantine, and its client
  /// streams repin to the next active member.
  core::NodeId decommission_node = core::kInvalidNode;
  double decommission_after_fraction = 0.5;
  /// Decommission handoff: entry bodies larger than this are not shipped
  /// (0 = no cap). Mirrors cluster.handoff_batch_bytes.
  std::uint64_t handoff_batch_bytes = 256 * 1024;
};

/// Outcome of one simulation run.
struct SimReport {
  double sim_seconds = 0.0;          ///< virtual makespan
  LatencyHistogram response_times;   ///< per-request response times
  core::ManagerStats cache;          ///< aggregated across nodes
  std::vector<core::ManagerStats> per_node;
  std::vector<double> cpu_utilization;
  std::uint64_t requests_completed = 0;

  // ---- directory traffic (real encoded wire sizes, summed over legs) ----
  /// Insert/erase/invalidate propagation: broadcast legs in replicated
  /// mode, unicast kOwnerUpdate frames in partitioned mode, zero in query
  /// mode.
  std::uint64_t dir_update_frames = 0;
  std::uint64_t dir_update_bytes = 0;
  /// Miss-time probes: kQuery/kQueryHit exchanges (both directions).
  std::uint64_t dir_query_frames = 0;
  std::uint64_t dir_query_bytes = 0;

  /// Final resident cache keys per node, sorted (mode-parity checks).
  std::vector<std::vector<std::string>> node_keys;

  // ---- membership churn (join/decommission under load) ----
  std::uint64_t membership_transitions = 0;  ///< joins + leaves applied
  /// Decommission handoff channel: entries shipped to ring successors.
  std::uint64_t handoff_frames = 0;
  std::uint64_t handoff_bytes = 0;
  std::uint64_t handoffs_adopted = 0;  ///< shipped entries successors kept
  /// Directory traffic caused by membership transitions (remapped-slice
  /// forwarding, joiner seeding, post-leave re-announcements) — the cost a
  /// static cluster never pays. The ablation compares it against a full
  /// resync (every resident entry re-announced).
  std::uint64_t transition_frames = 0;
  std::uint64_t transition_bytes = 0;
  /// The leaver's resident keys at decommission time, sorted. The
  /// zero-loss check verifies each survives in some remaining node's
  /// node_keys (with TTL 0 nothing may silently vanish).
  std::vector<std::string> decommissioned_keys;
  /// Post-churn cluster oracle over the final active membership (true when
  /// no churn was configured). `churn_report` holds the oracle's rendered
  /// findings when inconsistent (empty otherwise) — for diagnostics.
  bool churn_consistent = true;
  std::string churn_report;

  double mean_response() const { return response_times.mean(); }
  double throughput() const {
    return sim_seconds > 0 ? static_cast<double>(requests_completed) / sim_seconds
                           : 0.0;
  }
};

/// Replays `trace` against a simulated cluster. Deterministic.
SimReport run_cluster_sim(const workload::Trace& trace, const SimConfig& config);

}  // namespace swala::sim
