// SwalaNode: assembles one complete node — HTTP server + cache manager +
// cluster group — from a configuration file. This is the public entry point
// a deployment would use; the examples build on it.
//
// Configuration format (INI; see common/config.h):
//
//   [server]
//   host = 127.0.0.1
//   port = 8080            ; 0 = ephemeral
//   threads = 16
//   io_model = threads     ; threads = one thread per connection (§4.1);
//                          ; epoll = event-driven reactor ('threads' then
//                          ; sizes the handler worker pool)
//   timer_resolution_ms = 50  ; reactor timer-wheel tick (epoll only)
//   docroot = ./www
//   cgi_dir = ./cgi-bin    ; read by swalad: executables mounted at /cgi-bin/
//   admin = false          ; enables the /swala-admin endpoints
//   access_log =           ; request log path (empty = off)
//   listen_backlog = 128   ; listen(2) queue depth
//   ; ---- overload protection ----
//   max_connections = 0    ; shed (503) above this many active conns; 0 = off
//   shed_resume_percent = 75  ; stop shedding below this % of the cap
//   retry_after = 1        ; Retry-After seconds on 503 sheds
//   request_timeout_ms = 30000  ; per-request budget; 0 = unlimited
//   max_concurrent_cgi = 0 ; cap concurrent CGI forks; 0 = unlimited
//   drain_timeout_ms = 5000     ; SIGTERM drain grace period
//
//   [cache]
//   enabled = true
//   max_entries = 2000
//   max_bytes = 0          ; 0 = unlimited
//   hot_bytes = 67108864   ; hot-blob cache budget (0 = disabled); copies
//                          ; bodies over a disk store, shares the heap store's
//   policy = lru           ; lru | lfu | fifo | size | gds
//   disk_dir =             ; empty = in-memory store
//   store = files          ; files = one file per entry (the paper's design)
//                          ; volume = log-structured single preallocated file
//   volume_bytes = 0       ; volume: total preallocated size (required, >0)
//   segment_bytes = 4194304    ; volume: compaction granularity
//   write_buffer_bytes = 262144  ; volume: flush-group target size
//   flush_interval_ms = 100      ; volume: max buffering delay (0 = per put)
//   state_file =           ; warm-restart manifest (needs disk_dir)
//   purge_interval = 2.0
//   checkpoint_interval = 10.0  ; manifest checkpoint cadence (needs state_file)
//   disk_failure_threshold = 5  ; insert I/O failures before caching pauses
//   save_on_signal = true  ; persist the manifest on SIGTERM/SIGINT
//   negative_ttl = 1.0     ; seconds a failed CGI is remembered (0 = off)
//
//   [cacheability]
//   rule = /cgi-bin/* cache ttl=3600 min_exec=0.05
//   default = nocache
//
//   [cluster]
//   node_id = 0
//   member = 0 127.0.0.1 9000 9001   ; id host info_port data_port
//   member = 1 127.0.0.1 9010 9011
//   batch_max_messages = 64          ; directory updates per frame (1 = off)
//   batch_max_bytes = 262144         ; flush a batch at this encoded size
//   batch_linger_ms = 2              ; max wait for more updates to coalesce
//   directory_mode = replicated      ; replicated | partitioned
//   ring_vnodes = 64                 ; partitioned: virtual nodes per member
//   ring_seed = 1380535879           ; partitioned: placement seed ("RING")
//   query_timeout_ms = 300           ; partitioned: per-probe cap
//   anti_entropy_interval_ms = 1000  ; digest-round cadence (0 = off)
//   inv_log_entries = 4096           ; invalidation replay log per origin
//   ; ---- dynamic membership ----
//   initial_active =                 ; ids active at start (empty = all);
//                                    ; a node absent from its own list must
//                                    ; join before cooperating
//   join_on_start = false            ; run the kJoin protocol after start()
//   join_timeout_ms = 3000           ; per-peer kJoin/kJoinAck ceiling
//   handoff_batch_bytes = 262144     ; decommission: max entry body shipped
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "cluster/group.h"
#include "common/config.h"
#include "core/manager.h"
#include "server/swala_server.h"

namespace swala::server {

class SwalaNode {
 public:
  /// Builds (but does not start) a node from configuration. The registry
  /// carries the CGI programs this node can run. A key outside the schema
  /// above (a typo such as `directory_mod`) is rejected by name rather
  /// than silently leaving its setting at the default.
  static Result<std::unique_ptr<SwalaNode>> from_config(
      const Config& config, std::shared_ptr<cgi::HandlerRegistry> registry);

  ~SwalaNode();

  /// Starts group daemons (if clustered) and the HTTP server.
  Status start();
  void stop();

  /// Graceful drain: stop accepting, let in-flight requests finish (up to
  /// server.drain_timeout_ms). The SIGTERM path runs this before the
  /// manifest save, so the saved state reflects every completed request.
  /// Returns true when all connections finished in time.
  bool drain();

  /// Graceful decommission of a clustered node (idempotent; a stand-alone
  /// node has nothing to hand off): stop admitting new cache entries, hand
  /// every cached entry — and, in partitioned mode, this node's directory
  /// partition — to its ring successors, then broadcast kDecommission so
  /// peers deactivate this node without quarantining it
  /// (NodeGroup::decommission). Does NOT drain or stop; callers sequence
  /// that (swalad's SIGUSR2 path runs decommission() → drain() → stop()).
  core::CacheManager::HandoffStats decommission();

  SwalaServer& http() { return *server_; }
  core::CacheManager* cache() { return manager_.get(); }
  cluster::NodeGroup* group() { return group_.get(); }

 private:
  SwalaNode() = default;

  /// Stand-alone nodes have no cluster purge daemon; this housekeeping
  /// thread drives purge_expired (and thereby manifest checkpointing) so a
  /// single-node deployment still expires entries and survives crashes.
  void housekeeping_loop();

  /// Registers this node so SIGTERM/SIGINT persist the manifest even when
  /// the embedding program installed no handlers of its own (saving happens
  /// on a watcher thread via a self-pipe; handlers stay async-signal-safe).
  void register_signal_save();

  std::unique_ptr<cluster::NodeGroup> group_;   // may be null (stand-alone)
  std::unique_ptr<core::CacheManager> manager_; // may be null (no caching)
  std::unique_ptr<SwalaServer> server_;
  std::string state_file_;  // warm-restart manifest; empty = disabled
  bool started_ = false;    // start() succeeded; gates the shutdown save
  bool save_on_signal_ = true;
  double purge_interval_seconds_ = 2.0;
  bool join_on_start_ = false;  // run join_cluster() right after start()

  std::mutex housekeeping_mutex_;
  std::condition_variable housekeeping_cv_;
  bool housekeeping_stop_ = false;  // guarded by housekeeping_mutex_
  std::thread housekeeping_thread_;
};

}  // namespace swala::server
