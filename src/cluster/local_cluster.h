// LocalCluster: runs an N-node Swala cache group inside one process over
// loopback TCP. Used by the integration tests and the real-substrate
// experiments (Figure 3 remote fetch, Table 4 directory updates).
//
// It performs the ephemeral-port bootstrap dance: start every NodeGroup on
// port 0, collect the bound ports, redistribute the resolved member list,
// then construct and attach the CacheManagers.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cluster/group.h"
#include "core/manager.h"

namespace swala::cluster {

class LocalCluster {
 public:
  /// Builds and starts `n` nodes; `make_options(i)` supplies each node's
  /// manager configuration. Throws std::runtime_error if networking fails
  /// (constructor-failure policy per the project error-handling rules).
  LocalCluster(std::size_t n,
               std::function<core::ManagerOptions(core::NodeId)> make_options,
               const Clock* clock = RealClock::instance(),
               GroupOptions group_options = {});

  /// As above, but `make_group_options(i)` supplies each node's group
  /// configuration — the failure tests use this to give individual nodes
  /// their own FaultInjector and tightened timeouts.
  LocalCluster(std::size_t n,
               std::function<core::ManagerOptions(core::NodeId)> make_options,
               const Clock* clock,
               std::function<GroupOptions(core::NodeId)> make_group_options);

  ~LocalCluster();

  LocalCluster(const LocalCluster&) = delete;
  LocalCluster& operator=(const LocalCluster&) = delete;

  core::CacheManager& manager(std::size_t i) { return *managers_[i]; }
  NodeGroup& group(std::size_t i) { return *groups_[i]; }
  std::size_t size() const { return groups_.size(); }

  /// Waits until every node's outbound broadcast queue has drained and
  /// stayed drained across a settle delay (in-flight writes/applies land on
  /// loopback well within it). Returns false if the backlog has not cleared
  /// by `timeout_seconds`. Call before invariant checks instead of sleeping
  /// a hard-coded amount.
  bool quiesce(double timeout_seconds = 5.0);

  /// Runs the global consistency oracle over every node (per-node store↔
  /// directory checks plus cross-node drift). Quiesce first for an exact
  /// answer. Valid after stop() too — the managers outlive the groups.
  core::ClusterConsistencyReport check_cluster_consistency() const;

  void stop();

 private:
  std::vector<std::unique_ptr<NodeGroup>> groups_;
  std::vector<std::unique_ptr<core::CacheManager>> managers_;
};

}  // namespace swala::cluster
