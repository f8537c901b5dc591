// Cluster demo: a three-node Swala group on loopback, each node running a
// real HTTP server, cooperating through the replicated cache directory.
//
// Shows the paper's two headline mechanisms in action:
//   * insert broadcast — node 0 executes a CGI, nodes 1 and 2 learn of it
//   * remote fetch     — node 1 serves the same request from node 0's cache
// and the weak-consistency artefact:
//   * false hit        — node 1 asks for an entry node 0 already dropped
// then a client spreads requests round-robin over the nodes' own ports.
#include <cstdio>
#include <thread>

#include "cgi/registry.h"
#include "cgi/scripted.h"
#include "cluster/local_cluster.h"
#include "http/client.h"
#include "server/swala_server.h"

using namespace swala;

namespace {

core::ManagerOptions node_options(core::NodeId) {
  core::ManagerOptions options;
  options.limits = {500, 0};
  core::RuleDecision rule;
  rule.cacheable = true;
  options.rules.add_rule("/cgi-bin/*", rule);
  return options;
}

void wait_for_broadcast() {
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
}

}  // namespace

int main() {
  constexpr std::size_t kNodes = 3;
  cluster::LocalCluster cluster(kNodes, node_options);

  std::vector<std::unique_ptr<server::SwalaServer>> servers;
  for (std::size_t i = 0; i < kNodes; ++i) {
    auto registry = std::make_shared<cgi::HandlerRegistry>();
    cgi::ScriptedOptions cgi_options;
    cgi_options.mode = cgi::ComputeMode::kSleep;
    cgi_options.service_seconds = 0.08;  // a "spatial database query"
    cgi_options.output_bytes = 2048;
    registry->mount("/cgi-bin/", std::make_shared<cgi::ScriptedCgi>(cgi_options));

    server::SwalaServerOptions options;
    options.request_threads = 4;
    servers.push_back(std::make_unique<server::SwalaServer>(
        options, std::move(registry), &cluster.manager(i)));
    if (auto st = servers.back()->start(); !st.is_ok()) {
      std::fprintf(stderr, "node %zu failed: %s\n", i, st.to_string().c_str());
      return 1;
    }
    std::printf("node %zu: http=127.0.0.1:%u info=%u data=%u\n", i,
                servers.back()->port(), cluster.group(i).info_port(),
                cluster.group(i).data_port());
  }

  const RealClock& clock = *RealClock::instance();
  auto timed_get = [&](std::size_t node, const std::string& target) {
    http::HttpClient client(servers[node]->address());
    const TimeNs start = clock.now();
    auto resp = client.get(target);
    const double ms = to_seconds(clock.now() - start) * 1e3;
    const auto state = resp ? resp.value().headers.get("X-Swala-Cache")
                            : std::nullopt;
    std::printf("  node %zu GET %-28s -> %-10s %6.1f ms\n", node,
                target.c_str(), state ? std::string(*state).c_str() : "error",
                ms);
  };

  std::printf("\n-- insert broadcast + remote fetch --\n");
  timed_get(0, "/cgi-bin/map?tile=42");  // miss: node 0 executes + broadcasts
  wait_for_broadcast();
  timed_get(1, "/cgi-bin/map?tile=42");  // hit-remote: fetched from node 0
  timed_get(2, "/cgi-bin/map?tile=42");  // hit-remote
  timed_get(0, "/cgi-bin/map?tile=42");  // hit-local

  std::printf("\n-- false hit (weak consistency §4.2) --\n");
  timed_get(0, "/cgi-bin/map?tile=7");
  wait_for_broadcast();
  // Drop the entry from node 0's store without broadcasting, simulating the
  // window between deletion and the erase broadcast arriving at peers.
  const_cast<core::CacheStore&>(cluster.manager(0).store())
      .erase("GET /cgi-bin/map?tile=7");
  timed_get(1, "/cgi-bin/map?tile=7");  // false hit -> re-executes locally

  std::printf("\n-- client round-robin over the nodes --\n");
  // No front end: the client spreads its requests over the node ports
  // itself, and every node answers from the shared cooperative cache.
  for (std::size_t i = 0; i < 2 * kNodes; ++i) {
    timed_get(i % kNodes, "/cgi-bin/map?tile=42");  // cached everywhere
  }

  std::printf("\n-- per-node statistics --\n");
  for (std::size_t i = 0; i < kNodes; ++i) {
    const auto s = cluster.manager(i).stats();
    const auto g = cluster.group(i).stats();
    std::printf(
        "  node %zu: local_hits=%llu remote_hits=%llu misses=%llu "
        "false_hits=%llu broadcasts=%llu fetches_served=%llu\n",
        i, static_cast<unsigned long long>(s.local_hits),
        static_cast<unsigned long long>(s.remote_hits),
        static_cast<unsigned long long>(s.misses),
        static_cast<unsigned long long>(s.false_hits),
        static_cast<unsigned long long>(g.broadcasts_sent),
        static_cast<unsigned long long>(g.fetches_served));
  }

  for (auto& server : servers) server->stop();
  cluster.stop();
  return 0;
}
