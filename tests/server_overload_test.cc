// End-to-end overload protection on SwalaServer: slow-loris and stalled
// clients cut at the request deadline, the CGI concurrency gate, admission
// control with hysteresis, graceful drain, error-response connection
// hygiene, ProcessCgi under a deadline, and server-level single-flight.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "cgi/process.h"
#include "cgi/scripted.h"
#include "http/client.h"
#include "server/swala_server.h"

namespace swala::server {
namespace {

std::shared_ptr<cgi::HandlerRegistry> registry_with(
    std::shared_ptr<cgi::CgiHandler> handler) {
  auto registry = std::make_shared<cgi::HandlerRegistry>();
  registry->mount("/cgi-bin/", std::move(handler));
  return registry;
}

std::string make_docroot(const std::string& name) {
  const std::string dir = "/tmp/swala_overload_test_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/index.html") << "<html>home</html>";
  return dir;
}

core::ManagerOptions cache_options() {
  core::ManagerOptions mo;
  mo.limits = {100, 0};
  core::RuleDecision d;
  d.cacheable = true;
  mo.rules.add_rule("/cgi-bin/*", d);
  return mo;
}

/// Reads until EOF or `timeout_ms` of silence; returns what arrived.
std::string read_to_eof(net::TcpStream& stream, int timeout_ms) {
  (void)stream.set_recv_timeout(timeout_ms);
  std::string out;
  char buf[4096];
  for (;;) {
    auto n = stream.read_some(buf, sizeof(buf));
    if (!n || n.value() == 0) break;
    out.append(buf, n.value());
  }
  return out;
}

/// Every scenario runs under both connection-path models: the paper's
/// thread-per-connection pool and the epoll reactor. Overload semantics
/// (shed, 408, drain, deadline cut, coalescing) must be identical.
class OverloadTest : public ::testing::TestWithParam<IoModel> {
 protected:
  SwalaServerOptions base_options() const {
    SwalaServerOptions opts;
    opts.io_model = GetParam();
    return opts;
  }
};

INSTANTIATE_TEST_SUITE_P(
    IoModels, OverloadTest,
    ::testing::Values(IoModel::kThreads, IoModel::kEpoll),
    [](const ::testing::TestParamInfo<IoModel>& param_info) {
      return param_info.param == IoModel::kEpoll ? std::string("epoll")
                                           : std::string("threads");
    });

TEST_P(OverloadTest, SlowLorisRequestIsCutAt408) {
  SwalaServerOptions opts = base_options();
  opts.request_threads = 2;
  opts.request_timeout_ms = 300;
  opts.recv_timeout_ms = 5000;  // idle timeout is generous; the budget cuts
  SwalaServer server(opts, nullptr);
  ASSERT_TRUE(server.start().is_ok());

  auto conn = net::TcpStream::connect(server.address(), 2000);
  ASSERT_TRUE(conn.is_ok());
  net::TcpStream& stream = conn.value();
  ASSERT_TRUE(stream.write_all("GET / HTTP/1.1\r\nHost: ").is_ok());
  // Dribble one header byte per 60 ms: every byte resets the *idle* timer,
  // but the per-request deadline armed at the first byte keeps running.
  // Stop as soon as the server responds (writing further would race its
  // close and can turn the pending 408 into a connection reset).
  for (int i = 0; i < 30 && !net::wait_readable(stream.raw_fd(), 0); ++i) {
    (void)stream.write_all("x");
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
  const std::string response = read_to_eof(stream, 2000);
  EXPECT_NE(response.find(" 408 "), std::string::npos) << response;
  EXPECT_GE(server.stats().deadline_exceeded, 1u);
  server.stop();
}

TEST_P(OverloadTest, StalledResponseWriteIsCutAtDeadline) {
  cgi::ScriptedOptions sopts;
  sopts.output_bytes = 16 * 1024 * 1024;  // larger than both socket buffers
  auto scripted = std::make_shared<cgi::ScriptedCgi>(sopts);
  SwalaServerOptions opts = base_options();
  opts.request_threads = 2;
  opts.request_timeout_ms = 400;
  opts.recv_timeout_ms = 10000;  // without the budget the stall holds 10 s
  SwalaServer server(opts, registry_with(scripted));
  ASSERT_TRUE(server.start().is_ok());

  auto conn = net::TcpStream::connect(server.address(), 2000);
  ASSERT_TRUE(conn.is_ok());
  net::TcpStream& stream = conn.value();
  // Shrink the receive buffer (also freezes its autotuning) so the server's
  // 16 MB response cannot fit in kernel buffers and the write stalls.
  const int tiny = 4096;
  (void)::setsockopt(stream.raw_fd(), SOL_SOCKET, SO_RCVBUF, &tiny,
                     sizeof(tiny));
  ASSERT_TRUE(
      stream.write_all("GET /cgi-bin/big HTTP/1.1\r\nHost: t\r\n\r\n").is_ok());
  // ... then never read. The request thread must be freed at the deadline.
  ServerStats stats;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  do {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stats = server.stats();
  } while (stats.deadline_exceeded == 0 &&
           std::chrono::steady_clock::now() < give_up);
  EXPECT_GE(stats.deadline_exceeded, 1u);

  // The freed thread serves a well-behaved client promptly (admin is off,
  // so a 404 is expected — any completed response proves liveness).
  http::HttpClient probe(server.address(), 5000);
  ASSERT_TRUE(probe.get("/").is_ok());
  server.stop();
}

TEST_P(OverloadTest, CgiGateTimeoutShedsWith503) {
  cgi::ScriptedOptions sopts;
  sopts.mode = cgi::ComputeMode::kSleep;
  sopts.service_seconds = 1.2;
  auto scripted = std::make_shared<cgi::ScriptedCgi>(sopts);
  SwalaServerOptions opts = base_options();
  opts.request_threads = 4;
  opts.request_timeout_ms = 400;
  opts.max_concurrent_cgi = 1;
  opts.enable_admin = true;
  SwalaServer server(opts, registry_with(scripted));
  ASSERT_TRUE(server.start().is_ok());

  std::thread first([&] {
    http::HttpClient c(server.address(), 10000);
    const auto r = c.get("/cgi-bin/slow?a=1");
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value().status, 200);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  // The gate slot is held for 1.2 s; this request's 400 ms budget expires
  // while queued, so it is shed instead of piling onto the overloaded box.
  http::HttpClient second(server.address(), 10000);
  const auto r2 = second.get("/cgi-bin/slow?b=2");
  first.join();
  ASSERT_TRUE(r2.is_ok());
  EXPECT_EQ(r2.value().status, 503);
  EXPECT_TRUE(r2.value().headers.get("Retry-After").has_value());
  EXPECT_EQ(r2.value().headers.get("Connection"), "close");
  EXPECT_GE(server.stats().requests_shed, 1u);

  http::HttpClient admin(server.address(), 2000);
  const auto status = admin.get("/swala-status");
  ASSERT_TRUE(status.is_ok());
  EXPECT_NE(status.value().body.find("\"cgi_gate_capacity\": 1"),
            std::string::npos);
  EXPECT_NE(status.value().body.find("\"cgi_queue_timeouts\": 1"),
            std::string::npos);
  server.stop();
}

TEST_P(OverloadTest, AdmissionControlShedsAndRecovers) {
  SwalaServerOptions opts = base_options();
  opts.request_threads = 2;
  opts.max_connections = 2;
  opts.shed_resume_percent = 50;
  opts.retry_after_seconds = 7;
  opts.docroot = make_docroot("admission");
  SwalaServer server(opts, nullptr);
  ASSERT_TRUE(server.start().is_ok());

  // Two keep-alive clients pin both request threads and hold the active
  // gauge at the cap; nobody is left in accept().
  http::HttpClient a(server.address(), 5000);
  http::HttpClient b(server.address(), 5000);
  auto ra = a.get("/index.html");
  ASSERT_TRUE(ra.is_ok());
  EXPECT_EQ(ra.value().status, 200);
  auto rb = b.get("/index.html");
  ASSERT_TRUE(rb.is_ok());
  EXPECT_EQ(rb.value().status, 200);

  // The dedicated shedder must refuse the third arrival with a fast 503 —
  // no request bytes needed, the connection itself is over the limit.
  auto conn = net::TcpStream::connect(server.address(), 2000);
  ASSERT_TRUE(conn.is_ok());
  const std::string shed = read_to_eof(conn.value(), 3000);
  EXPECT_NE(shed.find(" 503 "), std::string::npos) << shed;
  EXPECT_NE(shed.find("Retry-After: 7"), std::string::npos) << shed;
  EXPECT_NE(shed.find("Connection: close"), std::string::npos) << shed;
  EXPECT_GE(server.stats().requests_shed, 1u);

  // Hysteresis: dropping below resume (50% of 2 = 1) reopens the gate.
  a.disconnect();
  b.disconnect();
  int status = 0;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < give_up) {
    http::HttpClient probe(server.address(), 2000);
    const auto r = probe.get("/index.html");
    if (r.is_ok()) status = r.value().status;
    if (status == 200) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(status, 200);
  server.stop();
}

TEST_P(OverloadTest, DrainCompletesInFlightAndRefusesNew) {
  cgi::ScriptedOptions sopts;
  sopts.mode = cgi::ComputeMode::kSleep;
  sopts.service_seconds = 0.4;
  auto scripted = std::make_shared<cgi::ScriptedCgi>(sopts);
  SwalaServerOptions opts = base_options();
  opts.request_threads = 2;
  SwalaServer server(opts, registry_with(scripted));
  ASSERT_TRUE(server.start().is_ok());
  const auto addr = server.address();

  std::atomic<int> status{0};
  std::atomic<bool> closed{false};
  std::thread client([&] {
    http::HttpClient c(addr, 10000);
    const auto r = c.get("/cgi-bin/slow");
    if (r.is_ok()) {
      status.store(r.value().status);
      const auto conn = r.value().headers.get("Connection");
      closed.store(conn.has_value() && *conn == "close");
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  // The CGI is mid-sleep: drain must wait for it, then report success.
  EXPECT_TRUE(server.drain());
  EXPECT_TRUE(server.draining());
  client.join();
  EXPECT_EQ(status.load(), 200);
  // In-flight keep-alive connections are wound down, not cut.
  EXPECT_TRUE(closed.load());
  // The listener is closed: new connections are refused.
  EXPECT_FALSE(net::TcpStream::connect(addr, 500).is_ok());
  server.stop();
}

TEST_P(OverloadTest, MalformedRequestGets400AndConnectionClose) {
  SwalaServerOptions opts = base_options();
  opts.request_threads = 1;
  SwalaServer server(opts, nullptr);
  ASSERT_TRUE(server.start().is_ok());

  auto conn = net::TcpStream::connect(server.address(), 2000);
  ASSERT_TRUE(conn.is_ok());
  ASSERT_TRUE(conn.value().write_all("BOGUS\r\n\r\n").is_ok());
  const std::string response = read_to_eof(conn.value(), 2000);
  // Error responses must carry Connection: close and the server must
  // actually close (read_to_eof returning proves the EOF arrived). The
  // version is HTTP/1.0: the request never parsed far enough to learn it.
  EXPECT_NE(response.find(" 400 "), std::string::npos) << response;
  EXPECT_NE(response.find("Connection: close"), std::string::npos) << response;
  server.stop();
}

TEST(ProcessCgiOverloadTest, ProcessCgiIsKilledAtRequestDeadline) {
  const std::string script = "/tmp/swala_overload_sleep.sh";
  {
    std::ofstream f(script);
    f << "#!/bin/sh\nsleep 5\necho 'Content-Type: text/plain'\necho\n"
         "echo done\n";
  }
  ASSERT_EQ(::chmod(script.c_str(), 0755), 0);

  cgi::ProcessCgi cgi(script);  // configured timeout stays the 30 s default
  http::Request req;
  req.method = http::Method::kGet;
  ASSERT_TRUE(http::parse_uri("/cgi-bin/sleep", &req.uri));
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = Deadline::after_ms(RealClock::instance(), 300);
  const auto result = cgi.run(req, deadline);
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  ASSERT_TRUE(result.is_ok());
  EXPECT_FALSE(result.value().success);
  EXPECT_EQ(result.value().http_status, 504);
  // SIGKILLed at the ~300 ms budget, nowhere near the 5 s sleep.
  EXPECT_LT(elapsed_ms, 3000);
}

TEST_P(OverloadTest, ConcurrentMissesCoalesceToOneExecution) {
  cgi::ScriptedOptions sopts;
  sopts.mode = cgi::ComputeMode::kSleep;
  sopts.service_seconds = 0.3;
  auto scripted = std::make_shared<cgi::ScriptedCgi>(sopts);
  core::CacheManager cache(0, 1, cache_options(), RealClock::instance());
  SwalaServerOptions opts = base_options();
  opts.request_threads = 8;
  opts.request_timeout_ms = 10000;
  SwalaServer server(opts, registry_with(scripted), &cache);
  ASSERT_TRUE(server.start().is_ok());

  constexpr int kClients = 6;
  std::atomic<int> ok200{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      http::HttpClient c(server.address(), 10000);
      const auto r = c.get("/cgi-bin/hot?q=1");
      if (r.is_ok() && r.value().status == 200) ok200.fetch_add(1);
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(ok200.load(), kClients);
  // The miss stampede collapsed onto a single CGI execution; everyone else
  // rode it (coalesced) or hit the freshly inserted entry.
  EXPECT_EQ(scripted->execution_count(), 1u);
  const auto cs = cache.stats();
  EXPECT_EQ(cs.coalesced_misses + cs.local_hits,
            static_cast<std::uint64_t>(kClients - 1));
  server.stop();
}

}  // namespace
}  // namespace swala::server
