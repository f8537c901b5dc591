// Table 3 — "Response time overhead of insertion and information broadcast."
//
// The paper sends 180 unique cacheable requests (each ~1 s of CPU) to one
// node of a 2..8-node group and compares the mean response time with
// caching off vs cooperative caching on: every request is then a miss +
// insert + broadcast, so the difference isolates that overhead. The paper
// finds it insignificant and independent of group size.
//
// This is the real substrate (loopback TCP cluster). Service times are
// scaled from 1 s to 20 ms so the whole sweep stays within bench budget;
// the *absolute* overhead per request is what matters and is unscaled.
#include "bench/bench_util.h"
#include "cgi/registry.h"
#include "cgi/scripted.h"
#include "cluster/local_cluster.h"
#include "http/client.h"
#include "server/swala_server.h"

using namespace swala;

namespace {

constexpr int kRequests = 60;
constexpr double kServiceSeconds = 0.020;  // scaled from the paper's 1 s

std::shared_ptr<cgi::HandlerRegistry> make_registry() {
  auto registry = std::make_shared<cgi::HandlerRegistry>();
  cgi::ScriptedOptions options;
  options.mode = cgi::ComputeMode::kSleep;
  options.service_seconds = kServiceSeconds;
  options.output_bytes = 2048;
  registry->mount("/cgi-bin/", std::make_shared<cgi::ScriptedCgi>(options));
  return registry;
}

core::ManagerOptions cache_all(core::NodeId) {
  core::ManagerOptions options;
  options.limits = {100000, 0};
  core::RuleDecision rule;
  rule.cacheable = true;
  options.rules.add_rule("/cgi-bin/*", rule);
  return options;
}

/// Mean response of `kRequests` unique requests against node 0 of an
/// `nodes`-wide group. `cache` toggles the cooperative cache.
double run_one(std::size_t nodes, bool cache, int salt) {
  // The paper's broadcast: one update per frame, no repair rounds.
  cluster::GroupOptions go;
  go.batch_max_messages = 1;
  go.anti_entropy_interval_ms = 0;
  cluster::LocalCluster cluster(nodes, cache_all, RealClock::instance(), go);
  server::SwalaServerOptions options;
  options.request_threads = 4;
  server::SwalaServer server(options, make_registry(),
                             cache ? &cluster.manager(0) : nullptr);
  if (!server.start().is_ok()) return -1;

  const RealClock& clock = *RealClock::instance();
  OnlineStats stats;
  {
    // Scoped so the connection closes before server.stop(); otherwise the
    // request thread sits in its recv timeout waiting for the next
    // keep-alive request.
    http::HttpClient client(server.address());
    for (int i = 0; i < kRequests; ++i) {
      const std::string target = "/cgi-bin/unique?salt=" +
                                 std::to_string(salt) +
                                 "&i=" + std::to_string(i);
      const TimeNs start = clock.now();
      auto resp = client.get(target);
      if (resp && resp.value().status == 200) {
        stats.add(to_seconds(clock.now() - start));
      }
    }
  }
  server.stop();
  cluster.stop();
  return stats.mean();
}

}  // namespace

int main() {
  bench::banner("Table 3", "insert + broadcast overhead vs group size");
  bench::note("real loopback cluster; service time scaled 1 s -> 20 ms");

  TablePrinter table({"# nodes", "no cache (s)", "coop cache (s)",
                      "increase (s)"});
  int salt = 0;
  for (const std::size_t nodes : {2, 3, 4, 5, 6, 7, 8}) {
    const double without = run_one(nodes, false, ++salt);
    const double with_cache = run_one(nodes, true, ++salt);
    table.add_row({std::to_string(nodes), fmt_double(without, 5),
                   fmt_double(with_cache, 5),
                   fmt_double(with_cache - without, 5)});
    std::printf("  measured %zu node(s)...\n", nodes);
  }

  std::printf("\n%s\n", table.render().c_str());
  std::printf(
      "Paper's shape: the increase column is negligible relative to the\n"
      "request service time and does not grow with the number of nodes\n"
      "(the broadcast is asynchronous; the request thread only enqueues).\n");
  return 0;
}
