// SwalaServer: the paper's HTTP module. A pool of request threads "take
// turns listening on the main port for incoming connections" (§4.1); each
// thread owns its connection from parse to completion, running the cache
// flow of Figure 2 for dynamic requests.
#pragma once

#include <atomic>
#include <thread>
#include <vector>

#include "common/queue.h"
#include "server/context.h"

namespace swala::server {

class EpollReactor;

/// How connections reach the request threads (§4.1 design choice).
enum class AcceptModel {
  /// The paper's model: request threads take turns in accept() under a
  /// mutex; the accepting thread then owns the connection end-to-end.
  kTakeTurns,
  /// The alternative: a dedicated acceptor thread pushes connections onto
  /// a bounded queue the request threads pop from.
  kAcceptorQueue,
};

/// Connection-path I/O model (`server.io_model` in swala.conf).
enum class IoModel {
  /// The paper's model: one (pooled) thread owns each connection from
  /// accept to close. Portable, simple, caps out at ~request_threads
  /// concurrent keep-alive connections before admission control sheds.
  kThreads,
  /// Non-blocking epoll reactor (see server/reactor.h): one event loop owns
  /// every connection fd, a worker pool runs the request handlers, and tens
  /// of thousands of idle keep-alive connections cost one fd each.
  kEpoll,
};

struct SwalaServerOptions {
  net::InetAddress listen{"127.0.0.1", 0};
  std::size_t request_threads = 16;
  AcceptModel accept_model = AcceptModel::kTakeTurns;
  /// threads: one thread per connection (the paper's §4.1 model).
  /// epoll: event-driven reactor; request_threads sizes the worker pool
  /// that runs handlers (CGI, cache, disk), not the connection count.
  IoModel io_model = IoModel::kThreads;
  /// Reactor timer-wheel granularity (epoll only); deadlines and idle
  /// timeouts fire up to one tick late.
  int timer_resolution_ms = 50;
  std::string docroot;
  bool allow_keep_alive = true;
  /// Exposes /swala-status and /swala-admin/invalidate.
  bool enable_admin = false;
  /// Path of the access log (empty = no logging); see access_log.h.
  std::string access_log_path;
  int recv_timeout_ms = 15000;
  /// listen(2) backlog. Bursty benchmark loads overflow the historical
  /// default of 128 and show up as client connect failures, not server
  /// errors — raise this before raising request_threads.
  int listen_backlog = 128;

  // ---- overload protection ----
  /// Admission control: above this many concurrently active connections,
  /// new arrivals are shed with a fast 503 + Retry-After instead of being
  /// queued behind saturated request threads. 0 = unlimited.
  std::size_t max_connections = 0;
  /// Hysteresis: once shedding starts it continues until active
  /// connections fall to this percentage of max_connections, so the server
  /// does not flap at the boundary under a sustained burst.
  int shed_resume_percent = 75;
  /// Retry-After (seconds) on overload responses.
  int retry_after_seconds = 1;
  /// Per-request deadline covering parse through response write; 0 = none.
  int request_timeout_ms = 0;
  /// Capacity of the acceptor→worker queue (kAcceptorQueue model). A full
  /// queue sheds, it never blocks the acceptor.
  std::size_t dispatch_queue_depth = 1024;
  /// Caps concurrent CGI executions; 0 = unlimited. Queue-wait counts
  /// against the request deadline.
  std::size_t max_concurrent_cgi = 0;
  /// How long drain() waits for in-flight connections before giving up.
  int drain_timeout_ms = 5000;
};

class SwalaServer {
 public:
  /// `registry` supplies the CGI programs; `cache` may be null (caching
  /// disabled — the paper's "Swala no-cache" configuration).
  SwalaServer(SwalaServerOptions options,
              std::shared_ptr<cgi::HandlerRegistry> registry,
              core::CacheManager* cache = nullptr,
              const Clock* clock = RealClock::instance());
  ~SwalaServer();

  SwalaServer(const SwalaServer&) = delete;
  SwalaServer& operator=(const SwalaServer&) = delete;

  /// Binds the port and launches the request-thread pool.
  Status start();

  /// Stops accepting, joins all request threads. Idempotent.
  void stop();

  /// Graceful drain: stop accepting, mark responses "Connection: close",
  /// and wait up to `options.drain_timeout_ms` for in-flight connections
  /// to finish. Returns true when the server drained fully in time.
  /// Call before stop(); stop() afterwards only reaps threads.
  bool drain();

  /// True once drain() has started (reported by /swala-status).
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  /// Bound port (after start()).
  std::uint16_t port() const { return listener_.local_port(); }
  net::InetAddress address() const { return {"127.0.0.1", port()}; }

  ServerStats stats() const { return counters_; }
  core::CacheManager* cache() const { return ctx_.cache; }

  /// Wires the cluster group so /swala-status reports per-peer health.
  /// Call before start() (the request threads read ctx_ unsynchronized).
  void set_group(cluster::NodeGroup* group) { ctx_.group = group; }

  /// Wires the cluster-wide consistency oracle behind
  /// /swala-admin/check-consistency?cluster=1. The callable must be safe to
  /// run from a request thread. Call before start().
  void set_cluster_check(
      std::function<core::ClusterConsistencyReport()> check) {
    ctx_.cluster_check = std::move(check);
  }

  /// Wires the graceful-decommission hook behind
  /// POST/GET /swala-admin/decommission (see ServeContext::decommission).
  /// Call before start().
  void set_decommission_hook(std::function<std::string()> hook) {
    ctx_.decommission = std::move(hook);
  }

  /// Response-time distribution (request handling, excluding socket I/O).
  LatencyHistogram latency() const { return latency_.snapshot(); }

 private:
  void request_thread_loop();
  void acceptor_loop();
  void queue_worker_loop();
  void shed_loop();

  /// Admission decision with hysteresis (see shed_resume_percent).
  bool should_shed();

  /// Writes a 503 + Retry-After + Connection: close and closes the stream.
  void shed_connection(net::TcpStream stream);

  SwalaServerOptions options_;
  std::shared_ptr<cgi::HandlerRegistry> registry_;
  ServeContext ctx_;
  ServerStats counters_;
  AccessLog access_log_;
  LatencyRecorder latency_;
  std::unique_ptr<cgi::ExecGate> cgi_gate_;

  net::TcpListener listener_;
  std::mutex accept_mutex_;  ///< request threads take turns accepting
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> shedding_{false};  ///< hysteresis state
  std::vector<std::thread> threads_;
  std::thread acceptor_;  ///< kAcceptorQueue only
  /// kTakeTurns only: when every request thread is tied up in a long
  /// keep-alive connection, nobody sits in accept() and overflow arrivals
  /// would wait out the backlog in silence. This thread accepts and sheds
  /// them with a fast 503 while the admission gate is closed.
  std::thread shedder_;
  std::unique_ptr<BoundedQueue<net::TcpStream>> conn_queue_;
  /// io_model = epoll: the event-driven connection path. Owns the loop and
  /// worker threads; threads_/shedder_/acceptor_ stay empty.
  std::unique_ptr<EpollReactor> reactor_;
};

}  // namespace swala::server
