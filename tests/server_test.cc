// Tests for the server layer: request handling (static + dynamic + errors),
// the SwalaServer over real sockets, keep-alive, cache integration, the two
// baseline servers, and SwalaNode config assembly.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "cgi/scripted.h"
#include "http/client.h"
#include "server/baselines.h"
#include "server/node.h"
#include "server/swala_server.h"

namespace swala::server {
namespace {

std::shared_ptr<cgi::HandlerRegistry> make_registry() {
  auto registry = std::make_shared<cgi::HandlerRegistry>();
  cgi::ScriptedOptions opts;
  opts.output_bytes = 128;
  registry->mount("/cgi-bin/", std::make_shared<cgi::ScriptedCgi>(opts));
  return registry;
}

std::string make_docroot(const std::string& name) {
  const std::string dir = "/tmp/swala_server_test_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/sub");
  std::ofstream(dir + "/index.html") << "<html>home</html>";
  std::ofstream(dir + "/sub/page.txt") << "plain text content";
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

// ---- handle_request unit-level ----

TEST(HandleRequestTest, StaticFileServed) {
  ServeContext ctx;
  ctx.docroot = make_docroot("hr1");
  http::Request req;
  req.method = http::Method::kGet;
  ASSERT_TRUE(http::parse_uri("/sub/page.txt", &req.uri));
  const auto resp = handle_request(req, ctx, Deadline());
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, "plain text content");
  EXPECT_EQ(resp.headers.get("Content-Type"), "text/plain");
  EXPECT_TRUE(resp.headers.contains("Last-Modified"));
}

TEST(HandleRequestTest, DirectoryServesIndexHtml) {
  ServeContext ctx;
  ctx.docroot = make_docroot("hr2");
  http::Request req;
  ASSERT_TRUE(http::parse_uri("/", &req.uri));
  const auto resp = handle_request(req, ctx, Deadline());
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, "<html>home</html>");
}

TEST(HandleRequestTest, MissingFileIs404) {
  ServeContext ctx;
  ctx.docroot = make_docroot("hr3");
  http::Request req;
  ASSERT_TRUE(http::parse_uri("/nope.html", &req.uri));
  EXPECT_EQ(handle_request(req, ctx, Deadline()).status, 404);
}

TEST(HandleRequestTest, ConditionalGetReturns304) {
  ServeContext ctx;
  ctx.docroot = make_docroot("hr304");
  http::Request req;
  ASSERT_TRUE(http::parse_uri("/index.html", &req.uri));

  const auto fresh = handle_request(req, ctx, Deadline());
  ASSERT_EQ(fresh.status, 200);
  const auto last_modified = fresh.headers.get("Last-Modified");
  ASSERT_TRUE(last_modified.has_value());

  req.headers.set("If-Modified-Since", *last_modified);
  const auto conditional = handle_request(req, ctx, Deadline());
  EXPECT_EQ(conditional.status, 304);
  EXPECT_TRUE(conditional.body.empty());

  // A stale validator gets fresh content.
  req.headers.set("If-Modified-Since", "Sun, 06 Nov 1994 08:49:37 GMT");
  EXPECT_EQ(handle_request(req, ctx, Deadline()).status, 200);

  // A malformed validator is ignored (fresh content, not an error).
  req.headers.set("If-Modified-Since", "yesterday-ish");
  EXPECT_EQ(handle_request(req, ctx, Deadline()).status, 200);
}

TEST(HandleRequestTest, UnsupportedMethodIs405) {
  ServeContext ctx;
  http::Request req;
  req.method = http::Method::kDelete;
  ASSERT_TRUE(http::parse_uri("/x", &req.uri));
  EXPECT_EQ(handle_request(req, ctx, Deadline()).status, 405);
}

TEST(HandleRequestTest, DynamicDispatchedToRegistry) {
  ServeContext ctx;
  ctx.registry = make_registry();
  http::Request req;
  ASSERT_TRUE(http::parse_uri("/cgi-bin/q?x=1", &req.uri));
  const auto resp = handle_request(req, ctx, Deadline());
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.headers.get("X-Swala-Cache"), "miss");
}

TEST(HandleRequestTest, HeadHasNoBodyButLength) {
  ServeContext ctx;
  ctx.docroot = make_docroot("hr4");
  http::Request req;
  req.method = http::Method::kHead;
  ASSERT_TRUE(http::parse_uri("/index.html", &req.uri));
  const auto resp = handle_request(req, ctx, Deadline());
  EXPECT_EQ(resp.status, 200);
  EXPECT_TRUE(resp.body.empty());
  EXPECT_EQ(resp.headers.get("Content-Length"), "17");
}

// ---- SwalaServer over sockets ----

class SwalaServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    docroot_ = make_docroot("srv");
    manager_ = std::make_unique<core::CacheManager>(
        0, 1, cache_options(), RealClock::instance());
    server_ = make_server(IoModel::kThreads);
    ASSERT_TRUE(server_->start().is_ok());
  }

  std::unique_ptr<SwalaServer> make_server(IoModel io_model) {
    SwalaServerOptions opts;
    opts.request_threads = 4;
    opts.io_model = io_model;
    opts.docroot = docroot_;
    return std::make_unique<SwalaServer>(opts, make_registry(),
                                         manager_.get());
  }

  std::string docroot_;
  std::unique_ptr<core::CacheManager> manager_;
  std::unique_ptr<SwalaServer> server_;
};

TEST_F(SwalaServerTest, ServesStaticFile) {
  http::HttpClient client(server_->address());
  auto resp = client.get("/index.html");
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(resp.value().status, 200);
  EXPECT_EQ(resp.value().body, "<html>home</html>");
  EXPECT_EQ(resp.value().headers.get("Server"), "Swala/1.0");
}

TEST_F(SwalaServerTest, CgiMissThenLocalHit) {
  http::HttpClient client(server_->address());
  auto first = client.get("/cgi-bin/q?id=9");
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(first.value().headers.get("X-Swala-Cache"), "miss");

  auto second = client.get("/cgi-bin/q?id=9");
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second.value().headers.get("X-Swala-Cache"), "hit-local");
  EXPECT_EQ(second.value().body, first.value().body);

  const auto stats = server_->stats();
  EXPECT_EQ(stats.dynamic_requests, 2u);
  EXPECT_EQ(manager_->stats().local_hits, 1u);
}

TEST_F(SwalaServerTest, HeadRequestOverClient) {
  // HEAD responses carry Content-Length but no body; the client must not
  // wait for bytes that will never come.
  http::HttpClient client(server_->address());
  http::Request req;
  req.method = http::Method::kHead;
  req.target = "/index.html";
  req.version = http::Version::kHttp11;
  req.headers.set("Host", "test");
  auto resp = client.send(req);
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(resp.value().status, 200);
  EXPECT_TRUE(resp.value().body.empty());
  EXPECT_EQ(resp.value().headers.get("Content-Length"), "17");

  // The connection remains usable for a normal GET afterwards.
  auto follow_up = client.get("/index.html");
  ASSERT_TRUE(follow_up.is_ok());
  EXPECT_EQ(follow_up.value().body, "<html>home</html>");
  EXPECT_EQ(server_->stats().connections, 1u) << "keep-alive must survive HEAD";
}

TEST_F(SwalaServerTest, KeepAliveServesMultipleRequests) {
  http::HttpClient client(server_->address());
  for (int i = 0; i < 5; ++i) {
    auto resp = client.get("/index.html");
    ASSERT_TRUE(resp.is_ok()) << "request " << i;
    EXPECT_EQ(resp.value().status, 200);
  }
  // All five went over one connection.
  EXPECT_EQ(server_->stats().connections, 1u);
  EXPECT_EQ(server_->stats().requests, 5u);
}

TEST_F(SwalaServerTest, ParallelClients) {
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      http::HttpClient client(server_->address());
      for (int i = 0; i < 10; ++i) {
        auto resp = client.get("/cgi-bin/p?i=" + std::to_string(i));
        if (resp.is_ok() && resp.value().status == 200) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients * 10);
}

TEST_F(SwalaServerTest, UnknownMethodGets501) {
  auto stream = net::TcpStream::connect(server_->address(), 2000);
  ASSERT_TRUE(stream.is_ok());
  ASSERT_TRUE(stream.value().write_all("GARBAGE REQUEST LINE\r\n\r\n").is_ok());
  char buf[1024];
  auto n = stream.value().read_some(buf, sizeof(buf));
  ASSERT_TRUE(n.is_ok());
  const std::string head(buf, n.value());
  EXPECT_NE(head.find("501"), std::string::npos);  // unknown method
}

TEST_F(SwalaServerTest, StaticEdgeSizesAreByteIdentical) {
  // An empty file, and one larger than a single read, in both io models.
  std::ofstream(docroot_ + "/empty.txt").close();
  std::string big(1024 * 1024 + 7, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>((i * 131 + 7) % 251);
  }
  std::ofstream(docroot_ + "/big.bin", std::ios::binary) << big;

  for (const IoModel io_model : {IoModel::kThreads, IoModel::kEpoll}) {
    SCOPED_TRACE(io_model == IoModel::kThreads ? "threads" : "epoll");
    auto server = make_server(io_model);
    ASSERT_TRUE(server->start().is_ok());
    http::HttpClient client(server->address());

    auto empty = client.get("/empty.txt");
    ASSERT_TRUE(empty.is_ok()) << empty.status().to_string();
    EXPECT_EQ(empty.value().status, 200);
    EXPECT_EQ(empty.value().headers.get("Content-Length"), "0");
    EXPECT_TRUE(empty.value().body.empty());

    auto large = client.get("/big.bin");
    ASSERT_TRUE(large.is_ok()) << large.status().to_string();
    EXPECT_EQ(large.value().status, 200);
    EXPECT_EQ(large.value().headers.get("Content-Length"),
              std::to_string(big.size()));
    EXPECT_TRUE(large.value().body == big) << "large body differs";

    http::Request head;
    head.method = http::Method::kHead;
    head.target = "/big.bin";
    head.version = http::Version::kHttp11;
    head.headers.set("Host", "test");
    auto head_resp = client.send(head);
    ASSERT_TRUE(head_resp.is_ok()) << head_resp.status().to_string();
    EXPECT_EQ(head_resp.value().status, 200);
    EXPECT_EQ(head_resp.value().headers.get("Content-Length"),
              std::to_string(big.size()));
    EXPECT_TRUE(head_resp.value().body.empty());
    server->stop();
  }
}

TEST_F(SwalaServerTest, FifoInDocrootIs404WithoutBlocking) {
  // Opening a FIFO for reading blocks until a writer appears; a request for
  // one must be refused at once, not park a request thread forever.
  const std::string fifo = docroot_ + "/pipe";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  http::HttpClient client(server_->address(), /*timeout_ms=*/1000);
  auto resp = client.get("/pipe");
  if (!resp.is_ok()) {
    // Release a request thread stuck in open() so the server can stop.
    const int writer = ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK);
    if (writer >= 0) ::close(writer);
  }
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(resp.value().status, 404);
}

TEST_F(SwalaServerTest, ContentLengthMatchesBodyWhileFileChanges) {
  // A writer alternately truncates and regrows one file while clients GET
  // it. Every response must parse with Content-Length equal to the body it
  // carries, and a truncation mid-read must not crash the server.
  const std::string path = docroot_ + "/churn.bin";
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  constexpr off_t kMaxSize = 1024 * 1024;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    // Growing with ftruncate is instant, so the file spends much of its
    // time short; a reader that sized its copy from fstat sees it shrink.
    for (off_t i = 0; !stop.load(); ++i) {
      if (::ftruncate(fd, 0) != 0) break;
      if (::ftruncate(fd, kMaxSize / (1 + i % 4)) != 0) break;
    }
  });

  // Clients run for a fixed wall time so they overlap many writer cycles.
  constexpr int kClients = 4;
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(500);
  std::atomic<int> served{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      http::HttpClient client(server_->address(), /*timeout_ms=*/5000);
      while (std::chrono::steady_clock::now() < until) {
        auto resp = client.get("/churn.bin");
        if (!resp.is_ok()) {
          ADD_FAILURE() << resp.status().to_string();
          return;
        }
        EXPECT_EQ(resp.value().status, 200);
        EXPECT_EQ(resp.value().headers.get("Content-Length"),
                  std::to_string(resp.value().body.size()));
        EXPECT_LE(resp.value().body.size(), static_cast<std::size_t>(kMaxSize));
        served.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true);
  writer.join();
  ::close(fd);
  EXPECT_GT(served.load(), 0);
  http::HttpClient after(server_->address());
  auto alive = after.get("/index.html");
  ASSERT_TRUE(alive.is_ok()) << alive.status().to_string();
  EXPECT_EQ(alive.value().status, 200);
}

TEST_F(SwalaServerTest, StopIsIdempotent) {
  server_->stop();
  server_->stop();
}

// ---- baselines ----

TEST(AcceptModelTest, AcceptorQueueServesRequests) {
  SwalaServerOptions options;
  options.request_threads = 4;
  options.accept_model = AcceptModel::kAcceptorQueue;
  options.docroot = make_docroot("aq");
  core::CacheManager manager(0, 1, cache_options(), RealClock::instance());
  SwalaServer server(options, make_registry(), &manager);
  ASSERT_TRUE(server.start().is_ok());
  {
    std::vector<std::thread> clients;
    std::atomic<int> ok{0};
    for (int c = 0; c < 4; ++c) {
      clients.emplace_back([&] {
        http::HttpClient client(server.address());
        for (int i = 0; i < 8; ++i) {
          auto resp = client.get("/cgi-bin/q?i=" + std::to_string(i));
          if (resp.is_ok() && resp.value().status == 200) ok.fetch_add(1);
        }
      });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(ok.load(), 32);
    // Cache flow works identically under this model.
    http::HttpClient client(server.address());
    auto hit = client.get("/cgi-bin/q?i=0");
    ASSERT_TRUE(hit.is_ok());
    EXPECT_EQ(hit.value().headers.get("X-Swala-Cache"), "hit-local");
  }
  server.stop();
  server.stop();  // idempotent under this model too
}

TEST(MiniServerTest, ServesRequests) {
  BaselineOptions opts;
  opts.docroot = make_docroot("mini");
  MiniServer server(opts, make_registry());
  ASSERT_TRUE(server.start().is_ok());

  http::HttpClient client(server.address());
  auto file = client.get("/index.html");
  ASSERT_TRUE(file.is_ok());
  EXPECT_EQ(file.value().status, 200);
  auto dyn = client.get("/cgi-bin/x");
  ASSERT_TRUE(dyn.is_ok());
  EXPECT_EQ(dyn.value().status, 200);
  EXPECT_EQ(server.stats().requests, 2u);
}

TEST(ForkingServerTest, ServesRequests) {
  BaselineOptions opts;
  opts.docroot = make_docroot("fork");
  ForkingServer server(opts, make_registry());
  ASSERT_TRUE(server.start().is_ok());

  for (int i = 0; i < 3; ++i) {
    http::HttpClient client(server.address());
    auto resp = client.get("/index.html");
    ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
    EXPECT_EQ(resp.value().status, 200);
    EXPECT_EQ(resp.value().body, "<html>home</html>");
  }
  EXPECT_GE(server.connections_accepted(), 3u);
}

// ---- SwalaNode from config ----

TEST(SwalaNodeTest, StandaloneFromConfig) {
  auto cfg = Config::parse(
      "[server]\n"
      "port = 0\n"
      "threads = 4\n"
      "[cache]\n"
      "enabled = true\n"
      "max_entries = 50\n"
      "policy = gds\n"
      "[cacheability]\n"
      "rule = /cgi-bin/* cache ttl=60\n"
      "default = nocache\n");
  ASSERT_TRUE(cfg.is_ok());
  auto node = SwalaNode::from_config(cfg.value(), make_registry());
  ASSERT_TRUE(node.is_ok()) << node.status().to_string();
  ASSERT_TRUE(node.value()->start().is_ok());

  http::HttpClient client(node.value()->http().address());
  auto first = client.get("/cgi-bin/c?x=1");
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(first.value().headers.get("X-Swala-Cache"), "miss");
  auto second = client.get("/cgi-bin/c?x=1");
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second.value().headers.get("X-Swala-Cache"), "hit-local");
  EXPECT_EQ(node.value()->cache()->store().policy(),
            core::PolicyKind::kGreedyDualSize);
}

TEST(SwalaNodeTest, CachingDisabled) {
  auto cfg = Config::parse("[server]\nport = 0\n[cache]\nenabled = false\n");
  ASSERT_TRUE(cfg.is_ok());
  auto node = SwalaNode::from_config(cfg.value(), make_registry());
  ASSERT_TRUE(node.is_ok());
  ASSERT_TRUE(node.value()->start().is_ok());
  EXPECT_EQ(node.value()->cache(), nullptr);

  http::HttpClient client(node.value()->http().address());
  auto a = client.get("/cgi-bin/n?x=1");
  auto b = client.get("/cgi-bin/n?x=1");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a.value().headers.get("X-Swala-Cache"), "miss");
  EXPECT_EQ(b.value().headers.get("X-Swala-Cache"), "miss");
}

TEST(SwalaNodeTest, WarmRestartKeepsCacheAcrossRestarts) {
  const std::string dir = "/tmp/swala_node_warm";
  std::filesystem::remove_all(dir);
  const std::string conf =
      "[server]\nport = 0\nthreads = 2\n"
      "[cache]\nenabled = true\nmax_entries = 50\ndisk_dir = " + dir +
      "\nstate_file = " + dir + "/state.manifest\n"
      "[cacheability]\nrule = /cgi-bin/* cache\ndefault = nocache\n";
  auto cfg = Config::parse(conf);
  ASSERT_TRUE(cfg.is_ok());

  std::string warm_body;
  {
    auto node = SwalaNode::from_config(cfg.value(), make_registry());
    ASSERT_TRUE(node.is_ok()) << node.status().to_string();
    ASSERT_TRUE(node.value()->start().is_ok());
    http::HttpClient client(node.value()->http().address());
    auto miss = client.get("/cgi-bin/warm?q=1");
    ASSERT_TRUE(miss.is_ok());
    EXPECT_EQ(miss.value().headers.get("X-Swala-Cache"), "miss");
    warm_body = miss.value().body;
    node.value()->stop();  // saves the manifest
  }

  {
    auto node = SwalaNode::from_config(cfg.value(), make_registry());
    ASSERT_TRUE(node.is_ok());
    ASSERT_TRUE(node.value()->start().is_ok());  // restores
    http::HttpClient client(node.value()->http().address());
    auto hit = client.get("/cgi-bin/warm?q=1");
    ASSERT_TRUE(hit.is_ok());
    EXPECT_EQ(hit.value().headers.get("X-Swala-Cache"), "hit-local")
        << "entry must survive the restart";
    EXPECT_EQ(hit.value().body, warm_body);
  }
  std::filesystem::remove_all(dir);
}

TEST(SwalaNodeTest, StateFileWithoutDiskDirRejected) {
  auto cfg = Config::parse("[cache]\nstate_file = /tmp/x.manifest\n");
  ASSERT_TRUE(cfg.is_ok());
  EXPECT_FALSE(SwalaNode::from_config(cfg.value(), make_registry()).is_ok());
}

TEST(SwalaNodeTest, BadConfigRejected) {
  auto cfg = Config::parse("[cache]\npolicy = quantum\n");
  ASSERT_TRUE(cfg.is_ok());
  EXPECT_FALSE(SwalaNode::from_config(cfg.value(), make_registry()).is_ok());

  auto cfg2 = Config::parse("[cluster]\nmember = broken line\n");
  ASSERT_TRUE(cfg2.is_ok());
  EXPECT_FALSE(SwalaNode::from_config(cfg2.value(), make_registry()).is_ok());
}

TEST(SwalaNodeTest, UnknownKeyRejectedByName) {
  const std::pair<std::string, std::string> cases[] = {
      // A typo must not silently run on the default (here: replicated mode).
      {"[cluster]\ndirectory_mod = partitioned\n", "[cluster] directory_mod"},
      // Not a swalad key: it sizes the acceptor queue swalad never builds.
      {"[server]\ndispatch_queue_depth = 1024\n",
       "[server] dispatch_queue_depth"},
  };
  for (const auto& [text, name] : cases) {
    auto cfg = Config::parse("[server]\nport = 0\n" + text);
    ASSERT_TRUE(cfg.is_ok());
    auto node = SwalaNode::from_config(cfg.value(), make_registry());
    ASSERT_FALSE(node.is_ok()) << name;
    EXPECT_EQ(node.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(node.status().message().find(name), std::string::npos)
        << node.status().to_string();
  }
}

// Query mode was deleted: a config that still asks for it must fail at
// startup, naming the value and the two modes that remain.
TEST(SwalaNodeTest, QueryDirectoryModeRejectedWithTheValidModes) {
  auto cfg = Config::parse("[server]\nport = 0\n[cluster]\n"
                           "directory_mode = query\n");
  ASSERT_TRUE(cfg.is_ok());
  auto node = SwalaNode::from_config(cfg.value(), make_registry());
  ASSERT_FALSE(node.is_ok());
  EXPECT_EQ(node.status().code(), StatusCode::kInvalidArgument);
  const std::string& message = node.status().message();
  for (const char* word : {"replicated", "partitioned", "query"}) {
    EXPECT_NE(message.find(word), std::string::npos)
        << word << " missing from: " << message;
  }
}

TEST(SwalaNodeTest, ExampleConfigLoads) {
  auto cfg = Config::load(SWALA_EXAMPLE_CONF);
  ASSERT_TRUE(cfg.is_ok()) << cfg.status().to_string();
  auto node = SwalaNode::from_config(cfg.value(), make_registry());
  EXPECT_TRUE(node.is_ok()) << node.status().to_string();
}

TEST(SwalaNodeTest, BadMembershipConfigRejected) {
  const auto rejected = [](const std::string& cluster_section) {
    auto cfg = Config::parse("[cluster]\n" + cluster_section);
    EXPECT_TRUE(cfg.is_ok());
    return !SwalaNode::from_config(cfg.value(), make_registry()).is_ok();
  };
  // Duplicate member id: the second line would silently shadow the first.
  EXPECT_TRUE(rejected(
      "node_id = 0\n"
      "member = 0 127.0.0.1 9000 9001\n"
      "member = 0 127.0.0.1 9010 9011\n"));
  // Sparse id: indexes past the directory tables.
  EXPECT_TRUE(rejected(
      "node_id = 0\n"
      "member = 0 127.0.0.1 9000 9001\n"
      "member = 5 127.0.0.1 9010 9011\n"));
  // node_id absent from the list: binds no listeners, broadcasts anyway.
  EXPECT_TRUE(rejected(
      "node_id = 2\n"
      "member = 0 127.0.0.1 9000 9001\n"
      "member = 1 127.0.0.1 9010 9011\n"));
  // A dense, self-including list builds fine.
  auto cfg = Config::parse(
      "[server]\nport = 0\n[cluster]\n"
      "node_id = 1\n"
      "member = 0 127.0.0.1 0 0\n"
      "member = 1 127.0.0.1 0 0\n");
  ASSERT_TRUE(cfg.is_ok());
  auto node = SwalaNode::from_config(cfg.value(), make_registry());
  EXPECT_TRUE(node.is_ok()) << node.status().to_string();
}

TEST(SwalaNodeTest, BadStoreConfigRejected) {
  const auto rejected = [](const std::string& cache_section) {
    auto cfg = Config::parse("[cache]\nenabled = true\n" + cache_section);
    EXPECT_TRUE(cfg.is_ok());
    return !SwalaNode::from_config(cfg.value(), make_registry()).is_ok();
  };
  // Unknown backend name.
  EXPECT_TRUE(rejected("disk_dir = /tmp/swala_store_cfg\nstore = cyclone\n"));
  // volume without a disk directory to put the volume file in.
  EXPECT_TRUE(rejected("store = volume\nvolume_bytes = 1048576\n"));
  // volume without a preallocation size (the sizing decision is explicit).
  EXPECT_TRUE(rejected("disk_dir = /tmp/swala_store_cfg\nstore = volume\n"));
  EXPECT_TRUE(rejected("disk_dir = /tmp/swala_store_cfg\nstore = volume\n"
                       "volume_bytes = 0\n"));
  // Segment too small to hold even one record header.
  EXPECT_TRUE(rejected("disk_dir = /tmp/swala_store_cfg\nstore = volume\n"
                       "volume_bytes = 1048576\nsegment_bytes = 64\n"));
  // Volume smaller than two segments: compaction would have nowhere to go.
  EXPECT_TRUE(rejected("disk_dir = /tmp/swala_store_cfg\nstore = volume\n"
                       "volume_bytes = 262144\nsegment_bytes = 262144\n"));
  EXPECT_TRUE(rejected("disk_dir = /tmp/swala_store_cfg\nstore = volume\n"
                       "volume_bytes = 1048576\nwrite_buffer_bytes = 0\n"));

  // And the smallest valid volume config builds.
  auto cfg = Config::parse(
      "[server]\nport = 0\n"
      "[cache]\nenabled = true\ndisk_dir = /tmp/swala_store_cfg\n"
      "store = volume\nvolume_bytes = 1048576\nsegment_bytes = 524288\n");
  ASSERT_TRUE(cfg.is_ok());
  auto node = SwalaNode::from_config(cfg.value(), make_registry());
  EXPECT_TRUE(node.is_ok()) << node.status().to_string();
  std::filesystem::remove_all("/tmp/swala_store_cfg");
}

TEST(SwalaNodeTest, VolumeWarmRestartKeepsCacheAcrossRestarts) {
  const std::string dir = "/tmp/swala_node_warm_volume";
  std::filesystem::remove_all(dir);
  const std::string conf =
      "[server]\nport = 0\nthreads = 2\n"
      "[cache]\nenabled = true\nmax_entries = 50\ndisk_dir = " + dir +
      "\nstore = volume\nvolume_bytes = 2097152\nsegment_bytes = 262144\n"
      "state_file = " + dir + "/state.manifest\n"
      "[cacheability]\nrule = /cgi-bin/* cache\ndefault = nocache\n";
  auto cfg = Config::parse(conf);
  ASSERT_TRUE(cfg.is_ok());

  std::string warm_body;
  {
    auto node = SwalaNode::from_config(cfg.value(), make_registry());
    ASSERT_TRUE(node.is_ok()) << node.status().to_string();
    ASSERT_TRUE(node.value()->start().is_ok());
    http::HttpClient client(node.value()->http().address());
    auto miss = client.get("/cgi-bin/warm?q=volume");
    ASSERT_TRUE(miss.is_ok());
    EXPECT_EQ(miss.value().headers.get("X-Swala-Cache"), "miss");
    warm_body = miss.value().body;
    node.value()->stop();  // syncs the volume and saves the manifest
  }

  {
    auto node = SwalaNode::from_config(cfg.value(), make_registry());
    ASSERT_TRUE(node.is_ok());
    ASSERT_TRUE(node.value()->start().is_ok());  // recovery walk + restore
    http::HttpClient client(node.value()->http().address());
    auto hit = client.get("/cgi-bin/warm?q=volume");
    ASSERT_TRUE(hit.is_ok());
    EXPECT_EQ(hit.value().headers.get("X-Swala-Cache"), "hit-local")
        << "entry must survive the restart";
    EXPECT_EQ(hit.value().body, warm_body);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace swala::server
