#include "cluster/local_cluster.h"

#include <chrono>
#include <stdexcept>
#include <thread>

namespace swala::cluster {

LocalCluster::LocalCluster(
    std::size_t n,
    std::function<core::ManagerOptions(core::NodeId)> make_options,
    const Clock* clock, GroupOptions group_options)
    : LocalCluster(n, std::move(make_options), clock,
                   [group_options](core::NodeId) { return group_options; }) {}

LocalCluster::LocalCluster(
    std::size_t n,
    std::function<core::ManagerOptions(core::NodeId)> make_options,
    const Clock* clock,
    std::function<GroupOptions(core::NodeId)> make_group_options) {
  auto members = loopback_members(n);

  // Phase 1: create and start all groups (binds ephemeral ports).
  for (std::size_t i = 0; i < n; ++i) {
    auto group = std::make_unique<NodeGroup>(
        static_cast<core::NodeId>(i), members,
        make_group_options(static_cast<core::NodeId>(i)));
    if (auto st = group->start(); !st.is_ok()) {
      throw std::runtime_error("LocalCluster: " + st.to_string());
    }
    groups_.push_back(std::move(group));
  }

  // Phase 2: collect the real ports and redistribute.
  for (std::size_t i = 0; i < n; ++i) {
    members[i].info_addr.port = groups_[i]->info_port();
    members[i].data_addr.port = groups_[i]->data_port();
  }
  for (auto& group : groups_) group->set_members(members);

  // Phase 3: build managers wired to their groups.
  for (std::size_t i = 0; i < n; ++i) {
    auto manager = std::make_unique<core::CacheManager>(
        static_cast<core::NodeId>(i), n, make_options(static_cast<core::NodeId>(i)),
        clock, groups_[i].get());
    groups_[i]->attach(manager.get());
    managers_.push_back(std::move(manager));
  }
}

LocalCluster::~LocalCluster() { stop(); }

bool LocalCluster::quiesce(double timeout_seconds) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  const auto backlog = [this] {
    std::size_t total = 0;
    for (const auto& group : groups_) total += group->outbound_backlog();
    return total;
  };
  while (std::chrono::steady_clock::now() < deadline) {
    if (backlog() != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    // Queues drained; give popped-but-unapplied messages time to land, then
    // require the backlog to still be empty (a purge tick or peer reaction
    // may have enqueued more).
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (backlog() == 0) return true;
  }
  return backlog() == 0;
}

core::ClusterConsistencyReport LocalCluster::check_cluster_consistency()
    const {
  std::vector<const core::CacheManager*> managers;
  managers.reserve(managers_.size());
  for (const auto& manager : managers_) managers.push_back(manager.get());
  return core::check_cluster_consistency(managers);
}

void LocalCluster::stop() {
  for (auto& group : groups_) group->stop();
}

}  // namespace swala::cluster
