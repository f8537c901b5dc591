#include "nodes.h"

#include <chrono>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace cgi = swala::cgi;
namespace cluster = swala::cluster;
namespace core = swala::core;
namespace server = swala::server;

namespace {

// Group options SwalaNode::from_config sets for a clustered node; the rest
// stay at GroupOptions defaults there too.
cluster::GroupOptions group_options() {
  cluster::GroupOptions go;
  go.purge_interval_seconds = 2.0;
  go.batch_max_messages = 64;
  go.batch_max_bytes = 256 * 1024;
  go.batch_linger_ms = 2;
  go.query_timeout_ms = 300;
  go.anti_entropy_interval_ms = 1000;
  go.join_timeout_ms = 3000;
  go.handoff_batch_bytes = 256 * 1024;
  return go;
}

core::ManagerOptions manager_options(const NodeSetOptions& o, std::size_t i,
                                     core::FsOps* fs_ops) {
  core::ManagerOptions mo;
  mo.limits.max_entries = o.max_entries;
  mo.limits.max_bytes = 0;
  mo.limits.hot_bytes = 64 * 1024 * 1024;
  mo.policy = core::PolicyKind::kLru;
  if (!o.disk_root.empty()) {
    mo.disk_dir = o.disk_root + "/node" + std::to_string(i);
  }
  mo.store = core::StoreBackendKind::kFiles;
  mo.rules = o.rules;
  mo.directory_mode = o.directory_mode;
  mo.checkpoint_interval_seconds = 10.0;
  mo.disk_failure_threshold = 5;
  mo.negative_ttl_seconds = 1.0;
  mo.inv_log_entries = 4096;
  mo.fs_ops = fs_ops;
  return mo;
}

server::SwalaServerOptions server_options(const NodeSetOptions& o) {
  server::SwalaServerOptions so;
  so.listen = {"127.0.0.1", 0};
  so.request_threads = 16;
  so.io_model = server::IoModel::kThreads;
  so.timer_resolution_ms = 50;
  so.docroot = o.docroot;
  so.enable_admin = o.admin;
  so.listen_backlog = 128;
  so.max_connections = 0;
  so.shed_resume_percent = 75;
  so.retry_after_seconds = 1;
  so.request_timeout_ms = 30000;
  so.dispatch_queue_depth = 1024;
  so.max_concurrent_cgi = 0;
  so.drain_timeout_ms = 5000;
  return so;
}

}  // namespace

NodeSet::NodeSet(
    const NodeSetOptions& options,
    const std::vector<std::pair<std::string, cgi::CgiHandlerPtr>>& mounts,
    bool traced) {
  const std::size_t n = options.nodes;
  if (traced) fs_ops_ = std::make_unique<TracingFsOps>();

  auto registry = std::make_shared<cgi::HandlerRegistry>();
  for (const auto& [path, handler] : mounts) {
    registry->mount(path, traced ? std::make_shared<TracingCgi>(handler)
                                 : handler);
  }

  if (n > 1) {
    // LocalCluster's bootstrap: start every group on port 0, then hand the
    // resolved member list to all of them before any manager attaches.
    auto members = cluster::loopback_members(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto group = std::make_unique<cluster::NodeGroup>(
          static_cast<core::NodeId>(i), members, group_options());
      if (auto st = group->start(); !st.is_ok()) {
        throw std::runtime_error("group start: " + st.to_string());
      }
      groups_.push_back(std::move(group));
    }
    for (std::size_t i = 0; i < n; ++i) {
      members[i].info_addr.port = groups_[i]->info_port();
      members[i].data_addr.port = groups_[i]->data_port();
    }
    for (auto& group : groups_) group->set_members(members);
  }

  for (std::size_t i = 0; i < n; ++i) {
    core::CooperationBus* bus = nullptr;
    if (n > 1) {
      bus = groups_[i].get();
      if (traced) {
        buses_.push_back(std::make_unique<TracingBus>(bus));
        bus = buses_.back().get();
      }
    }
    auto manager = std::make_unique<core::CacheManager>(
        static_cast<core::NodeId>(i), n, manager_options(options, i, fs_ops_.get()),
        swala::RealClock::instance(), bus);
    if (auto st = manager->storage_status(); !st.is_ok()) {
      throw std::runtime_error("cache dir unusable: " + st.to_string());
    }
    if (n > 1) groups_[i]->attach(manager.get());
    managers_.push_back(std::move(manager));
  }

  for (std::size_t i = 0; i < n; ++i) {
    auto srv = std::make_unique<server::SwalaServer>(
        server_options(options), registry, managers_[i].get());
    if (n > 1) srv->set_group(groups_[i].get());
    if (auto st = srv->start(); !st.is_ok()) {
      throw std::runtime_error("server start: " + st.to_string());
    }
    servers_.push_back(std::move(srv));
  }
}

NodeSet::~NodeSet() { stop(); }

void NodeSet::stop() {
  for (auto& srv : servers_) srv->stop();
  for (auto& group : groups_) group->stop();
}

std::vector<std::uint16_t> NodeSet::ports() const {
  std::vector<std::uint16_t> out;
  for (const auto& srv : servers_) out.push_back(srv->port());
  return out;
}

Counters NodeSet::counters() const {
  Counters c;
  for (const auto& srv : servers_) {
    const server::ServerStats s = srv->stats();
    c.server.errors += s.errors;
    c.server.requests_shed += s.requests_shed;
    c.server.deadline_exceeded += s.deadline_exceeded;
    const swala::LatencyHistogram h = srv->latency();
    c.handle_seconds += h.mean() * static_cast<double>(h.count());
    c.handle_count += h.count();
  }
  for (const auto& m : managers_) {
    const core::ManagerStats s = m->stats();
    c.manager.local_hits += s.local_hits;
    c.manager.remote_hits += s.remote_hits;
    c.manager.misses += s.misses;
    c.manager.coalesced_misses += s.coalesced_misses;
    c.manager.inserts += s.inserts;
    c.manager.false_hits += s.false_hits;
    c.manager.false_misses += s.false_misses;
    c.manager.fallback_executions += s.fallback_executions;
    c.manager.invalidations += s.invalidations;
    c.manager.evictions_broadcast += s.evictions_broadcast;
    c.manager.remote_dir_lookups += s.remote_dir_lookups;
    c.manager.remote_dir_hits += s.remote_dir_hits;
    const core::StoreStats st = m->store().stats();
    c.store.evictions += st.evictions;
    c.store.hot_hits += st.hot_hits;
    c.store.hot_misses += st.hot_misses;
  }
  for (const auto& g : groups_) {
    const cluster::GroupStats s = g->stats();
    c.group.broadcasts_sent += s.broadcasts_sent;
    c.group.frames_sent += s.frames_sent;
    c.group.batched_broadcasts += s.batched_broadcasts;
    c.group.updates_received += s.updates_received;
    c.group.fetches_served += s.fetches_served;
    c.group.remote_fetches += s.remote_fetches;
    c.group.send_failures += s.send_failures;
    c.group.owner_updates_sent += s.owner_updates_sent;
    c.group.queries_sent += s.queries_sent;
    c.group.digest_repairs += s.digest_repairs;
  }
  return c;
}

swala::LatencyHistogram NodeSet::handle_latency() const {
  swala::LatencyHistogram merged;
  for (const auto& srv : servers_) merged.merge(srv->latency());
  return merged;
}

bool NodeSet::quiesce(double timeout_seconds) {
  // LocalCluster::quiesce over our own groups.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
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
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (backlog() == 0) return true;
  }
  return backlog() == 0;
}

core::ClusterConsistencyReport NodeSet::check_consistency() const {
  std::vector<const core::CacheManager*> managers;
  for (const auto& m : managers_) managers.push_back(m.get());
  return core::check_cluster_consistency(managers);
}

}  // namespace perfbench
