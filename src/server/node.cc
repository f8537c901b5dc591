#include "server/node.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <string_view>
#include <unistd.h>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace swala::server {

namespace {

// ---- signal-save plumbing ----
//
// A SIGTERM/SIGINT handler may only do async-signal-safe work, so the
// handler writes one byte to a self-pipe; a watcher thread does the actual
// manifest save and then re-raises the signal with the default disposition
// so the process still terminates. Only the first node with a state file
// registers (multi-node-per-process setups are test-only; their harnesses
// stop() nodes explicitly). If the embedding program installed its own
// handler (like swalad does after start()), that handler simply wins —
// its orderly stop() saves the manifest anyway.

int g_save_pipe[2] = {-1, -1};
std::atomic<SwalaNode*> g_signal_node{nullptr};
std::atomic<int> g_signal_received{0};

void on_save_signal(int signo) {
  g_signal_received.store(signo, std::memory_order_relaxed);
  const char byte = 1;
  ssize_t rc = ::write(g_save_pipe[1], &byte, 1);
  (void)rc;
}

// ---- config schema ----
//
// Every key the daemon reads, by section (server.cgi_dir is read by swalad
// itself). A key outside this list is almost always a typo — e.g.
// `directory_mod = partitioned` — that would otherwise run silently on the
// default, so from_config rejects it by name.
constexpr std::pair<std::string_view, std::string_view> kKnownKeys[] = {
    {"server",
     "host port threads io_model timer_resolution_ms docroot cgi_dir admin "
     "access_log listen_backlog max_connections shed_resume_percent "
     "retry_after request_timeout_ms max_concurrent_cgi drain_timeout_ms"},
    {"cache",
     "enabled max_entries max_bytes hot_bytes policy disk_dir store "
     "volume_bytes segment_bytes write_buffer_bytes flush_interval_ms "
     "purge_interval state_file checkpoint_interval disk_failure_threshold "
     "negative_ttl save_on_signal"},
    {"cacheability", "rule default"},
    {"cluster",
     "node_id member directory_mode ring_vnodes ring_seed batch_max_messages "
     "batch_max_bytes batch_linger_ms query_timeout_ms "
     "anti_entropy_interval_ms inv_log_entries join_on_start join_timeout_ms "
     "handoff_batch_bytes initial_active"},
};

Status check_known_keys(const Config& config) {
  for (const auto& section : config.sections()) {
    std::vector<std::string> known;
    for (const auto& [name, keys] : kKnownKeys) {
      if (name == section) known = split_trimmed(keys, ' ');
    }
    for (const auto& entry : config.entries(section)) {
      if (std::find(known.begin(), known.end(), entry.first) == known.end()) {
        return Status(StatusCode::kInvalidArgument,
                      "unknown config key [" + section + "] " + entry.first);
      }
    }
  }
  return Status::ok();
}

}  // namespace

Result<std::unique_ptr<SwalaNode>> SwalaNode::from_config(
    const Config& config, std::shared_ptr<cgi::HandlerRegistry> registry) {
  if (auto st = check_known_keys(config); !st.is_ok()) return st;
  auto node = std::unique_ptr<SwalaNode>(new SwalaNode());

  // ---- cluster membership ----
  std::vector<cluster::MemberAddress> members;
  for (const auto& line : config.get_all("cluster", "member")) {
    const auto tokens = split_trimmed(line, ' ');
    if (tokens.size() != 4) {
      return Status(StatusCode::kInvalidArgument,
                    "member needs 'id host info_port data_port': " + line);
    }
    std::uint64_t id = 0, info_port = 0, data_port = 0;
    if (!parse_u64(tokens[0], &id) || !parse_u64(tokens[2], &info_port) ||
        !parse_u64(tokens[3], &data_port) || info_port > 65535 ||
        data_port > 65535) {
      return Status(StatusCode::kInvalidArgument, "bad member line: " + line);
    }
    cluster::MemberAddress m;
    m.id = static_cast<core::NodeId>(id);
    m.info_addr = {tokens[1], static_cast<std::uint16_t>(info_port)};
    m.data_addr = {tokens[1], static_cast<std::uint16_t>(data_port)};
    members.push_back(std::move(m));
  }
  const auto node_id =
      static_cast<core::NodeId>(config.get_int("cluster", "node_id", 0));
  const std::size_t group_size = members.empty() ? 1 : members.size();

  // Fail fast on membership misconfiguration: a duplicate id silently
  // shadows a peer, a sparse id indexes past the directory tables, and a
  // node_id outside the list binds no listeners yet broadcasts to everyone.
  if (!members.empty()) {
    std::vector<bool> seen(members.size(), false);
    bool self_listed = false;
    for (const auto& m : members) {
      if (m.id >= members.size()) {
        return Status(StatusCode::kInvalidArgument,
                      "cluster.member id " + std::to_string(m.id) +
                          " outside [0, " + std::to_string(members.size()) +
                          "): ids must be dense");
      }
      if (seen[m.id]) {
        return Status(StatusCode::kInvalidArgument,
                      "duplicate cluster.member id " + std::to_string(m.id));
      }
      seen[m.id] = true;
      if (m.id == node_id) self_listed = true;
    }
    if (!self_listed) {
      return Status(StatusCode::kInvalidArgument,
                    "cluster.node_id " + std::to_string(node_id) +
                        " is not in the member list");
    }
  }

  // ---- cache manager ----
  const bool cache_enabled = config.get_bool("cache", "enabled", true);
  if (cache_enabled) {
    core::ManagerOptions mo;
    mo.limits.max_entries =
        static_cast<std::uint64_t>(config.get_int("cache", "max_entries", 2000));
    mo.limits.max_bytes =
        static_cast<std::uint64_t>(config.get_int("cache", "max_bytes", 0));
    // Hot-blob cache on by default for deployments: a disk-backed store
    // otherwise pays a file read + CRC on every hit (0 disables).
    mo.limits.hot_bytes = static_cast<std::uint64_t>(
        config.get_int("cache", "hot_bytes", 64 * 1024 * 1024));
    auto policy =
        core::policy_from_name(config.get_string("cache", "policy", "lru"));
    if (!policy) return policy.status();
    mo.policy = policy.value();
    const std::string disk_dir = config.get_string("cache", "disk_dir", "");
    mo.disk_dir = disk_dir;

    // ---- store backend (files | volume) ----
    const std::string store_name = config.get_string("cache", "store", "files");
    if (store_name == "files") {
      mo.store = core::StoreBackendKind::kFiles;
    } else if (store_name == "volume") {
      mo.store = core::StoreBackendKind::kVolume;
    } else {
      return Status(StatusCode::kInvalidArgument,
                    "cache.store must be files or volume: " + store_name);
    }
    const std::int64_t volume_bytes =
        config.get_int("cache", "volume_bytes", 0);
    const std::int64_t segment_bytes =
        config.get_int("cache", "segment_bytes", 4 * 1024 * 1024);
    const std::int64_t write_buffer_bytes =
        config.get_int("cache", "write_buffer_bytes", 256 * 1024);
    const std::int64_t flush_interval_ms =
        config.get_int("cache", "flush_interval_ms", 100);
    if (mo.store == core::StoreBackendKind::kVolume) {
      if (disk_dir.empty()) {
        return Status(StatusCode::kInvalidArgument,
                      "cache.store = volume requires cache.disk_dir");
      }
      if (volume_bytes <= 0) {
        return Status(StatusCode::kInvalidArgument,
                      "cache.store = volume requires cache.volume_bytes > 0");
      }
      if (segment_bytes <= 0 ||
          static_cast<std::uint64_t>(segment_bytes) <=
              core::kVolumeSegmentHeaderSize + core::kVolumeRecordHeaderSize) {
        return Status(StatusCode::kInvalidArgument,
                      "cache.segment_bytes too small: " +
                          std::to_string(segment_bytes));
      }
      if (volume_bytes < 2 * segment_bytes) {
        return Status(StatusCode::kInvalidArgument,
                      "cache.volume_bytes must hold at least two segments "
                      "of cache.segment_bytes");
      }
      if (write_buffer_bytes <= 0) {
        return Status(StatusCode::kInvalidArgument,
                      "cache.write_buffer_bytes must be > 0: " +
                          std::to_string(write_buffer_bytes));
      }
      if (flush_interval_ms < 0) {
        return Status(StatusCode::kInvalidArgument,
                      "cache.flush_interval_ms must be >= 0: " +
                          std::to_string(flush_interval_ms));
      }
      mo.volume.volume_bytes = static_cast<std::uint64_t>(volume_bytes);
      mo.volume.segment_bytes = static_cast<std::uint64_t>(segment_bytes);
      mo.volume.write_buffer_bytes =
          static_cast<std::uint64_t>(write_buffer_bytes);
      mo.volume.flush_interval_ms =
          static_cast<std::uint64_t>(flush_interval_ms);
    }

    auto rules = core::CacheabilityRules::from_config(config);
    if (!rules) return rules.status();
    mo.rules = std::move(rules.value());

    // ---- cooperation scheme ----
    const std::string mode_name =
        config.get_string("cluster", "directory_mode", "replicated");
    const auto mode = core::directory_mode_from_name(mode_name);
    if (!mode) {
      return Status(StatusCode::kInvalidArgument,
                    "cluster.directory_mode must be replicated or "
                    "partitioned: " +
                        mode_name);
    }
    mo.directory_mode = *mode;
    mo.ring_vnodes = static_cast<std::size_t>(config.get_int(
        "cluster", "ring_vnodes",
        static_cast<std::int64_t>(HashRing::kDefaultVnodes)));
    mo.ring_seed = static_cast<std::uint64_t>(config.get_int(
        "cluster", "ring_seed",
        static_cast<std::int64_t>(HashRing::kDefaultSeed)));

    if (!members.empty()) {
      // Every [cluster] key defaults to its GroupOptions value.
      cluster::GroupOptions go;
      go.purge_interval_seconds = config.get_double(
          "cache", "purge_interval", go.purge_interval_seconds);
      go.batch_max_messages = static_cast<std::size_t>(config.get_int(
          "cluster", "batch_max_messages",
          static_cast<std::int64_t>(go.batch_max_messages)));
      go.batch_max_bytes = static_cast<std::size_t>(config.get_int(
          "cluster", "batch_max_bytes",
          static_cast<std::int64_t>(go.batch_max_bytes)));
      go.batch_linger_ms = static_cast<int>(
          config.get_int("cluster", "batch_linger_ms", go.batch_linger_ms));
      go.query_timeout_ms = static_cast<int>(
          config.get_int("cluster", "query_timeout_ms", go.query_timeout_ms));
      // Anti-entropy digest cadence; 0 disables the repair layer (gaps then
      // heal only via greeting-HELLO epoch exchange on reconnects).
      go.anti_entropy_interval_ms = static_cast<int>(config.get_int(
          "cluster", "anti_entropy_interval_ms", go.anti_entropy_interval_ms));
      // ---- dynamic membership ----
      go.join_timeout_ms = static_cast<int>(
          config.get_int("cluster", "join_timeout_ms", go.join_timeout_ms));
      go.handoff_batch_bytes = static_cast<std::size_t>(config.get_int(
          "cluster", "handoff_batch_bytes",
          static_cast<std::int64_t>(go.handoff_batch_bytes)));
      for (const auto& tok : split_trimmed(
               config.get_string("cluster", "initial_active", ""), ' ')) {
        if (tok.empty()) continue;
        std::uint64_t id = 0;
        if (!parse_u64(tok, &id) || id >= members.size()) {
          return Status(StatusCode::kInvalidArgument,
                        "bad cluster.initial_active id: " + tok);
        }
        go.initial_active.push_back(static_cast<core::NodeId>(id));
      }
      mo.initial_members = go.initial_active;
      node->join_on_start_ =
          config.get_bool("cluster", "join_on_start", false);
      node->group_ =
          std::make_unique<cluster::NodeGroup>(node_id, members, go);
    }
    const std::string state_file = config.get_string("cache", "state_file", "");
    if (!state_file.empty() && disk_dir.empty()) {
      return Status(StatusCode::kInvalidArgument,
                    "cache.state_file requires cache.disk_dir");
    }
    mo.state_file = state_file;
    mo.checkpoint_interval_seconds =
        config.get_double("cache", "checkpoint_interval", 10.0);
    mo.disk_failure_threshold =
        static_cast<int>(config.get_int("cache", "disk_failure_threshold", 5));
    // A persistently failing CGI answers from memory for a second instead
    // of forking a retry storm.
    mo.negative_ttl_seconds = config.get_double("cache", "negative_ttl",
                                                mo.negative_ttl_seconds);
    // Bounded invalidation replay log (per-origin); peers that fall further
    // behind than this resync with a conservative full purge.
    mo.inv_log_entries = static_cast<std::size_t>(
        config.get_int("cluster", "inv_log_entries", 4096));

    node->manager_ = std::make_unique<core::CacheManager>(
        node_id, group_size, std::move(mo), RealClock::instance(),
        node->group_.get());
    if (node->group_ != nullptr) node->group_->attach(node->manager_.get());

    // A cache directory that cannot be created is a deployment error worth
    // failing fast on, not a per-request surprise later.
    if (auto st = node->manager_->storage_status(); !st.is_ok()) {
      return Status(st.code(), "cache.disk_dir unusable: " + st.message());
    }

    node->state_file_ = state_file;
    node->save_on_signal_ = config.get_bool("cache", "save_on_signal", true);
    node->purge_interval_seconds_ =
        config.get_double("cache", "purge_interval", 2.0);
  }

  // ---- HTTP server ----
  SwalaServerOptions so;
  so.listen.host = config.get_string("server", "host", "127.0.0.1");
  so.listen.port =
      static_cast<std::uint16_t>(config.get_int("server", "port", 0));
  so.request_threads =
      static_cast<std::size_t>(config.get_int("server", "threads", 16));
  // threads: thread-per-connection (§4.1); epoll: event-driven reactor,
  // where `threads` sizes the handler worker pool instead.
  const std::string io_model =
      config.get_string("server", "io_model", "threads");
  if (io_model == "threads") {
    so.io_model = IoModel::kThreads;
  } else if (io_model == "epoll") {
    so.io_model = IoModel::kEpoll;
  } else {
    return Status(StatusCode::kInvalidArgument,
                  "server.io_model must be 'threads' or 'epoll', got '" +
                      io_model + "'");
  }
  so.timer_resolution_ms = static_cast<int>(
      config.get_int("server", "timer_resolution_ms", 50));
  so.docroot = config.get_string("server", "docroot", "");
  so.enable_admin = config.get_bool("server", "admin", false);
  so.access_log_path = config.get_string("server", "access_log", "");
  so.listen_backlog =
      static_cast<int>(config.get_int("server", "listen_backlog", 128));
  // ---- overload protection ----
  so.max_connections = static_cast<std::size_t>(
      config.get_int("server", "max_connections", 0));
  so.shed_resume_percent =
      static_cast<int>(config.get_int("server", "shed_resume_percent", 75));
  so.retry_after_seconds =
      static_cast<int>(config.get_int("server", "retry_after", 1));
  // Per-request budget defaults to 30s for deployments (the classic CGI
  // timeout); 0 disables. Covers parse → lookup → fetch → CGI → write.
  so.request_timeout_ms =
      static_cast<int>(config.get_int("server", "request_timeout_ms", 30000));
  so.max_concurrent_cgi = static_cast<std::size_t>(
      config.get_int("server", "max_concurrent_cgi", 0));
  so.drain_timeout_ms =
      static_cast<int>(config.get_int("server", "drain_timeout_ms", 5000));
  node->server_ = std::make_unique<SwalaServer>(
      std::move(so), std::move(registry), node->manager_.get());
  node->server_->set_group(node->group_.get());
  if (node->group_ != nullptr && node->manager_ != nullptr) {
    node->server_->set_decommission_hook([raw = node.get()] {
      const auto handed = raw->decommission();
      return "{\n  \"handoff_records\": " + std::to_string(handed.records) +
             ",\n  \"handoff_entries\": " + std::to_string(handed.entries) +
             "\n}\n";
    });
  }

  return node;
}

SwalaNode::~SwalaNode() { stop(); }

Status SwalaNode::start() {
  if (group_ != nullptr) {
    if (auto st = group_->start(); !st.is_ok()) return st;
    if (join_on_start_) {
      // Join before serving traffic so the first cached entries already
      // land under the post-join ring. A failed join is not fatal: the
      // node serves standalone and the operator can retry.
      if (auto st = group_->join_cluster(); !st.is_ok()) {
        SWALA_LOG(Warn) << "join_cluster failed: " << st.to_string();
      }
    }
  }
  if (auto st = server_->start(); !st.is_ok()) return st;
  // Warm restart after the group is up, so the restored entries broadcast.
  if (manager_ != nullptr && !state_file_.empty()) {
    auto restored = manager_->restore_state(state_file_);
    if (restored) {
      const auto scrub = manager_->last_scrub();
      SWALA_LOG(Info) << "warm restart: restored " << restored.value()
                      << " cached entries (" << scrub.quarantined
                      << " quarantined, " << scrub.orphans_removed
                      << " orphans removed)";
    } else if (restored.status().code() != StatusCode::kNotFound) {
      // An unreadable or newer-format manifest is an operator problem:
      // refuse to run rather than serve cold and eventually overwrite the
      // manifest (and with it the evidence, or a newer deployment's state).
      return Status(restored.status().code(),
                    "state restore failed: " + restored.status().message());
    }  // a missing manifest is normal on first boot
  }
  // Stand-alone nodes have no cluster purger; run our own so expiry and
  // manifest checkpointing still happen.
  if (group_ == nullptr && manager_ != nullptr) {
    {
      std::lock_guard<std::mutex> lock(housekeeping_mutex_);
      housekeeping_stop_ = false;
    }
    housekeeping_thread_ = std::thread([this] { housekeeping_loop(); });
  }
  if (manager_ != nullptr && !state_file_.empty() && save_on_signal_) {
    register_signal_save();
  }
  started_ = true;
  return Status::ok();
}

void SwalaNode::housekeeping_loop() {
  const auto interval = std::chrono::duration<double>(
      purge_interval_seconds_ > 0 ? purge_interval_seconds_ : 2.0);
  std::unique_lock<std::mutex> lock(housekeeping_mutex_);
  while (!housekeeping_stop_) {
    if (housekeeping_cv_.wait_for(lock, interval,
                                  [this] { return housekeeping_stop_; })) {
      break;
    }
    lock.unlock();
    manager_->purge_expired();  // also checkpoints (manager cadence)
    lock.lock();
  }
}

void SwalaNode::register_signal_save() {
  SwalaNode* expected = nullptr;
  if (!g_signal_node.compare_exchange_strong(expected, this)) return;
  if (g_save_pipe[0] < 0 && ::pipe(g_save_pipe) != 0) {
    g_signal_node.store(nullptr);
    return;
  }
  // Leave foreign handlers (e.g. swalad's, installed later; or a custom one
  // installed before us) in charge — they own shutdown and call stop().
  for (const int signo : {SIGTERM, SIGINT}) {
    const auto prev = std::signal(signo, on_save_signal);
    if (prev != SIG_DFL && prev != SIG_IGN && prev != on_save_signal) {
      (void)std::signal(signo, prev);
    }
  }
  static bool watcher_started = false;
  if (watcher_started) return;
  watcher_started = true;
  std::thread([] {
    char byte;
    while (::read(g_save_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    if (SwalaNode* node = g_signal_node.load()) {
      // Drain first: stop accepting, let in-flight requests complete, so
      // the manifest saved below includes their cache insertions.
      (void)node->drain();
      if (node->manager_ != nullptr && !node->state_file_.empty()) {
        if (auto st = node->manager_->save_state(node->state_file_);
            !st.is_ok()) {
          SWALA_LOG(Warn) << "signal-save failed: " << st.to_string();
        } else {
          SWALA_LOG(Info) << "manifest saved on signal";
        }
      }
    }
    const int signo = g_signal_received.load(std::memory_order_relaxed);
    (void)std::signal(signo != 0 ? signo : SIGTERM, SIG_DFL);
    (void)::raise(signo != 0 ? signo : SIGTERM);
  }).detach();
}

bool SwalaNode::drain() {
  return server_ != nullptr ? server_->drain() : true;
}

core::CacheManager::HandoffStats SwalaNode::decommission() {
  // A stand-alone node has no successor to hand state to.
  if (group_ == nullptr) return {};
  return group_->decommission();
}

void SwalaNode::stop() {
  {
    std::lock_guard<std::mutex> lock(housekeeping_mutex_);
    housekeeping_stop_ = true;
  }
  housekeeping_cv_.notify_all();
  if (housekeeping_thread_.joinable()) housekeeping_thread_.join();
  SwalaNode* expected = this;
  g_signal_node.compare_exchange_strong(expected, nullptr);
  // Only a node that actually started owns the manifest. A node that
  // refused to start (e.g. restore rejected a newer-format manifest) must
  // not overwrite it with its empty store on the way out.
  if (started_ && manager_ != nullptr && !state_file_.empty()) {
    if (auto st = manager_->save_state(state_file_); !st.is_ok()) {
      SWALA_LOG(Warn) << "state save failed: " << st.to_string();
    }
  }
  if (server_ != nullptr) server_->stop();
  if (group_ != nullptr) group_->stop();
}

}  // namespace swala::server
