// Request-handling core shared by every server flavour in this repo:
//   SwalaServer   — thread pool, cooperative cache (the paper's server)
//   MiniServer    — thread-per-connection, no cache (Enterprise stand-in)
//   ForkingServer — process-per-connection, no cache (NCSA HTTPd stand-in)
// The flavours differ only in concurrency architecture; the HTTP handling
// below is identical, which keeps the baseline comparisons honest.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "cgi/gate.h"
#include "cgi/registry.h"
#include "common/deadline.h"
#include "common/stats.h"
#include "core/manager.h"
#include "net/socket.h"
#include "server/access_log.h"

namespace swala::cluster {
class NodeGroup;
}

namespace swala::server {

/// Thread-safe response-time recorder (LatencyHistogram is not itself
/// thread-safe; request threads share this).
class LatencyRecorder {
 public:
  void add(double seconds) {
    std::lock_guard<std::mutex> lock(mutex_);
    histogram_.add(seconds);
  }

  LatencyHistogram snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return histogram_;
  }

 private:
  mutable std::mutex mutex_;
  LatencyHistogram histogram_;
};

/// Live counters exported by all server flavours. Each server owns one and
/// its request paths bump it in place through ServeContext::counters;
/// stats() returns a copy.
struct ServerStats {
  Counter connections;
  Counter requests;
  Counter static_requests;
  Counter dynamic_requests;
  Counter errors;
  Counter bytes_sent;
  // ---- overload protection ----
  /// Requests/connections refused with a fast 503 (admission control at
  /// accept, full dispatch queue, or CGI gate timeout).
  Counter requests_shed;
  /// Requests cut because their deadline expired (slow-loris 408, stalled
  /// response write, budget exhausted before execution).
  Counter deadline_exceeded;
  /// Connections currently inside handle_connection (gauge, not monotonic).
  Counter active_connections;
};

/// Everything a connection handler needs. Owned by the server object;
/// handlers borrow it.
struct ServeContext {
  std::string docroot;                         ///< empty = no static serving
  std::shared_ptr<cgi::HandlerRegistry> registry;  ///< may be null
  core::CacheManager* cache = nullptr;         ///< null = caching disabled
  /// When clustered, the node's group; /swala-status then reports per-peer
  /// health (circuit-breaker state, failures, probes) and cluster counters.
  cluster::NodeGroup* group = nullptr;
  /// Cluster-wide consistency oracle (see core/consistency.h). When set,
  /// GET /swala-admin/check-consistency?cluster=1 runs it and reports
  /// per-node drift; unset, ?cluster=1 is a 404 and only the local
  /// store↔directory check is available.
  std::function<core::ClusterConsistencyReport()> cluster_check;
  /// Graceful-decommission hook (wired by SwalaNode when clustered): stops
  /// new cache admissions, hands cached state + directory partition to ring
  /// successors and broadcasts kDecommission; returns a JSON summary.
  /// POST/GET /swala-admin/decommission runs it. Draining and process exit
  /// stay with the operator (SIGTERM, or SIGUSR2 in swalad).
  std::function<std::string()> decommission;
  const Clock* clock = nullptr;                ///< for CGI timing
  bool allow_keep_alive = true;
  /// Enables the built-in endpoints: GET /swala-status (JSON statistics),
  /// POST/GET /swala-admin/invalidate?pattern=<glob> (cluster-wide
  /// application-driven invalidation), and GET
  /// /swala-admin/check-consistency (store↔directory mirror cross-check;
  /// 200 consistent / 500 divergent; ?cluster=1 runs the cluster-wide
  /// oracle when cluster_check is wired).
  bool enable_admin = false;
  int recv_timeout_ms = 15000;
  std::size_t max_keep_alive_requests = 1000;
  ServerStats* counters = nullptr;  ///< null = uncounted
  /// When set, handlers abandon idle keep-alive connections as soon as the
  /// flag goes false, so server shutdown never waits out recv_timeout_ms.
  const std::atomic<bool>* running = nullptr;
  /// Optional access log (see access_log.h); null = no logging.
  AccessLog* access_log = nullptr;
  /// Optional response-time recorder (reported by /swala-status).
  LatencyRecorder* latency = nullptr;

  // ---- overload protection ----
  /// Per-request budget in milliseconds, armed at the first byte of each
  /// request and covering parse, cache lookup, remote fetch, CGI queue
  /// wait, execution, and the response write. 0 = no deadline.
  int request_timeout_ms = 0;
  /// Caps concurrent CGI executions (fork storms); null = unlimited.
  /// Queue-wait counts against the request deadline.
  cgi::ExecGate* cgi_gate = nullptr;
  /// When set and true, the server is draining: responses carry
  /// "Connection: close" so in-flight keep-alive connections wind down.
  const std::atomic<bool>* draining = nullptr;
  /// Retry-After value (seconds) on 503 overload responses.
  int retry_after_seconds = 1;
  /// Connection-path model serving this context ("threads" | "epoll"),
  /// reported by /swala-status so operators can tell which io_model a node
  /// actually runs.
  const char* io_model = "threads";
};

/// Serves requests on `stream` until close / keep-alive exhaustion / error.
void handle_connection(net::TcpStream stream, const ServeContext& ctx);

/// Handles one parsed request; exposed for unit tests. Threads the caller's
/// per-request budget (`Deadline()` = unlimited) through the cache lookup,
/// single-flight wait, remote fetch, CGI gate and execution.
http::Response handle_request(const http::Request& request,
                              const ServeContext& ctx,
                              const Deadline& deadline);

/// Builds a fast-fail overload response: `status` (usually 503) with
/// Retry-After and Connection: close, so clients back off and stop
/// pipelining into a suspect connection.
http::Response overload_response(int status, std::string_view reason,
                                 int retry_after_seconds);

/// Applies the per-exchange response hygiene shared by the threaded
/// connection handler and the epoll reactor's workers: response version,
/// Server header, the keep-alive decision (client intent, handler-forced
/// close, drain in progress, keep-alive budget with `served` exchanges
/// already done), and HEAD body suppression. Returns whether the connection
/// should be kept open afterwards.
bool finalize_response(const http::Request& request, const ServeContext& ctx,
                       std::size_t served, http::Response* resp);

/// Records one completed exchange in the latency histogram and access log
/// (both optional in `ctx`). `handle_start` is the clock reading taken just
/// before handle_request.
void record_exchange(const ServeContext& ctx, const http::Request& request,
                     const http::Response& resp, TimeNs handle_start,
                     const Clock* clock);

}  // namespace swala::server
