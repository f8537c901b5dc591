// In-process Swala nodes on loopback, assembled the way LocalCluster does
// it (NodeGroup → CacheManager → SwalaServer), with every option at the
// value SwalaNode::from_config gives an unset key unless the workload
// overrides it. A traced set puts the tracing decorators at the three seams.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cgi/registry.h"
#include "cluster/group.h"
#include "core/manager.h"
#include "server/swala_server.h"
#include "tracing.h"

namespace perfbench {

/// What a workload overrides; everything else is a from_config default.
struct NodeSetOptions {
  /// 1 = one stand-alone node with no group; >1 = a cooperative cluster.
  std::size_t nodes = 1;
  swala::core::DirectoryMode directory_mode =
      swala::core::DirectoryMode::kReplicated;
  swala::core::CacheabilityRules rules;
  std::uint64_t max_entries = 2000;
  /// Empty = memory store; otherwise node i keeps a files store (one file
  /// per entry, the default backend) under `<disk_root>/node<i>`.
  std::string disk_root;
  std::string docroot;
  bool admin = false;
};

/// Summed counters of every node at one instant.
struct Counters {
  swala::server::ServerStats server;
  swala::core::ManagerStats manager;
  swala::cluster::GroupStats group;
  swala::core::StoreStats store;
  /// Σ over nodes of count·mean of SwalaServer::latency(), so a difference
  /// of two snapshots gives the exact handle time spent between them.
  double handle_seconds = 0.0;
  std::uint64_t handle_count = 0;
};

class NodeSet {
 public:
  /// Builds and starts the nodes. `traced` mounts TracingCgi around every
  /// handler, puts a TracingBus between each manager and its group, and
  /// hands the stores a TracingFsOps. Throws std::runtime_error on failure.
  NodeSet(const NodeSetOptions& options,
          const std::vector<std::pair<std::string, swala::cgi::CgiHandlerPtr>>&
              mounts,
          bool traced);
  ~NodeSet();

  NodeSet(const NodeSet&) = delete;
  NodeSet& operator=(const NodeSet&) = delete;

  std::vector<std::uint16_t> ports() const;
  std::size_t size() const { return servers_.size(); }

  Counters counters() const;
  /// Merged request-handling histogram of every node.
  swala::LatencyHistogram handle_latency() const;

  /// Waits for every outbound queue to drain and stay drained.
  bool quiesce(double timeout_seconds);
  swala::core::ClusterConsistencyReport check_consistency() const;

  /// Stops servers first (no request in flight), then the groups.
  void stop();

 private:
  // Declaration order is teardown order in reverse: servers go first, the
  // fs seam last (the stores close files through it when destroyed).
  std::unique_ptr<TracingFsOps> fs_ops_;
  std::vector<std::unique_ptr<swala::cluster::NodeGroup>> groups_;
  std::vector<std::unique_ptr<TracingBus>> buses_;
  std::vector<std::unique_ptr<swala::core::CacheManager>> managers_;
  std::vector<std::unique_ptr<swala::server::SwalaServer>> servers_;
};

}  // namespace perfbench
