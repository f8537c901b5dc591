// Baseline servers for the paper's comparisons (§5.1).
//
// The original experiments compared Swala against NCSA HTTPd 1.5.2 and
// Netscape Enterprise. Neither can be run here, so we substitute servers
// with the same *cost structure* (see DESIGN.md):
//
//   ForkingServer — forks a process per connection, reproducing the process
//                   model the paper blames for HTTPd's low performance.
//   MiniServer    — a lean pre-threaded server without caching, standing in
//                   for the tuned commercial threaded server (Enterprise).
//
// Both reuse the exact request-handling core in context.h, so measured
// differences come from the concurrency architecture only.
#pragma once

#include <atomic>
#include <thread>
#include <vector>

#include "server/context.h"

namespace swala::server {

struct BaselineOptions {
  net::InetAddress listen{"127.0.0.1", 0};
  std::string docroot;
  std::size_t threads = 16;  ///< MiniServer only
  bool allow_keep_alive = true;
  int recv_timeout_ms = 15000;
};

/// Thread-per-connection server, no cache (Enterprise stand-in).
class MiniServer {
 public:
  MiniServer(BaselineOptions options,
             std::shared_ptr<cgi::HandlerRegistry> registry);
  ~MiniServer();

  Status start();
  void stop();

  std::uint16_t port() const { return listener_.local_port(); }
  net::InetAddress address() const { return {"127.0.0.1", port()}; }
  ServerStats stats() const { return counters_; }

 private:
  void accept_loop();

  BaselineOptions options_;
  std::shared_ptr<cgi::HandlerRegistry> registry_;
  ServeContext ctx_;
  ServerStats counters_;
  net::TcpListener listener_;
  std::atomic<bool> running_{false};
  std::thread acceptor_;
  std::mutex workers_mutex_;
  std::vector<std::thread> workers_;
};

/// Process-per-connection server (NCSA HTTPd stand-in). The parent forks a
/// child per accepted connection; the child serves it and _exits. SIGCHLD
/// is set to SIG_IGN so children are auto-reaped.
///
/// NOTE: fork() in a multi-threaded bench process is safe here because the
/// child only touches the connection handler (no locks are held at fork
/// time in this server's own thread) and exits immediately after.
class ForkingServer {
 public:
  ForkingServer(BaselineOptions options,
                std::shared_ptr<cgi::HandlerRegistry> registry);
  ~ForkingServer();

  Status start();
  void stop();

  std::uint16_t port() const { return listener_.local_port(); }
  net::InetAddress address() const { return {"127.0.0.1", port()}; }

  /// Connections accepted by the parent (children keep their own counts).
  std::uint64_t connections_accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }

 private:
  void accept_loop();

  BaselineOptions options_;
  std::shared_ptr<cgi::HandlerRegistry> registry_;
  ServeContext ctx_;
  ServerStats counters_;
  net::TcpListener listener_;
  std::atomic<bool> running_{false};
  std::thread acceptor_;
  std::atomic<std::uint64_t> accepted_{0};
};

}  // namespace swala::server
