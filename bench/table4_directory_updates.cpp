// Table 4 — "Response time overhead of replicated directory maintenance."
//
// The paper simulates a full 8-node group with one real node plus a
// pseudo-server program that streams directory-update messages at a
// configurable rate (UPS = updates per second), while the node serves 180
// uncacheable ~1 s requests. The question: does applying remote directory
// updates slow down request handling? (Paper's answer: no.)
//
// Real substrate: a genuine Swala node (8-member group, 7 inert peers) and
// a pseudo-server pumping INSERT messages into its info port over TCP.
// Request service time is scaled 1 s -> 20 ms, and UPS rates are scaled up
// correspondingly so the pressure per request matches and exceeds the
// paper's.
#include <atomic>
#include <thread>

#include "bench/bench_util.h"
#include "cgi/registry.h"
#include "cgi/scripted.h"
#include "cluster/framing.h"
#include "cluster/group.h"
#include "http/client.h"
#include "server/swala_server.h"

using namespace swala;

namespace {

constexpr int kRequests = 60;
constexpr double kServiceSeconds = 0.020;

std::shared_ptr<cgi::HandlerRegistry> make_registry() {
  auto registry = std::make_shared<cgi::HandlerRegistry>();
  cgi::ScriptedOptions options;
  options.mode = cgi::ComputeMode::kSleep;
  options.service_seconds = kServiceSeconds;
  registry->mount("/cgi-bin/", std::make_shared<cgi::ScriptedCgi>(options));
  return registry;
}

/// The pseudo-server: pumps INSERT updates into `info_addr` at `ups`
/// updates/second until `stop` is set. Returns the number sent.
std::uint64_t run_update_pump(const net::InetAddress& info_addr, double ups,
                              const std::atomic<bool>& stop) {
  auto conn = net::TcpStream::connect(info_addr, 2000);
  if (!conn) return 0;
  net::TcpStream stream = std::move(conn.value());
  (void)stream.set_no_delay(true);
  const auto hello = cluster::Message::hello(1, {}, 0);
  if (!cluster::write_message(stream, hello).is_ok()) {
    return 0;
  }

  std::uint64_t sent = 0;
  const auto start = std::chrono::steady_clock::now();
  while (!stop.load(std::memory_order_relaxed)) {
    const auto elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const auto due = static_cast<std::uint64_t>(elapsed * ups);
    if (sent >= due) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    core::EntryMeta meta;
    meta.key = "GET /cgi-bin/pseudo?u=" + std::to_string(sent);
    meta.owner = static_cast<core::NodeId>(1 + sent % 7);
    meta.size_bytes = 2048;
    meta.cost_seconds = 1.0;
    meta.version = 1;
    if (!cluster::write_message(stream,
                                cluster::Message::insert(meta.owner, meta))
             .is_ok()) {
      break;
    }
    ++sent;
  }
  return sent;
}

}  // namespace

int main() {
  bench::banner("Table 4", "replicated-directory update overhead (UPS sweep)");
  bench::note("real substrate: pseudo-server pumps updates over TCP");

  TablePrinter table({"UPS", "mean response (s)", "increase (s)",
                      "updates applied"});
  double base = 0.0;
  for (const double ups : {0.0, 100.0, 500.0, 2000.0, 10000.0}) {
    // One real node in an 8-member group; the 7 peers never initiate.
    auto members = cluster::loopback_members(8);
    // The paper's broadcast: one update per frame, no repair rounds.
    cluster::GroupOptions go;
    go.batch_max_messages = 1;
    go.anti_entropy_interval_ms = 0;
    cluster::NodeGroup group(0, members, go);
    if (!group.start().is_ok()) return 1;
    core::ManagerOptions mo;
    mo.limits = {1000000, 0};
    core::RuleDecision rule;
    rule.cacheable = true;
    mo.rules.add_rule("/cgi-bin/cached/*", rule);  // test requests are NOT under this
    core::CacheManager manager(0, 8, std::move(mo), RealClock::instance(),
                               &group);
    group.attach(&manager);

    server::SwalaServerOptions so;
    so.request_threads = 4;
    server::SwalaServer server(so, make_registry(), &manager);
    if (!server.start().is_ok()) return 1;

    std::atomic<bool> stop{false};
    std::uint64_t sent = 0;
    std::thread pump;
    if (ups > 0) {
      pump = std::thread([&] {
        sent = run_update_pump({"127.0.0.1", group.info_port()}, ups, stop);
      });
    }

    const RealClock& clock = *RealClock::instance();
    OnlineStats stats;
    {
      // Scoped so the connection closes before server.stop().
      http::HttpClient client(server.address());
      for (int i = 0; i < kRequests; ++i) {
        const TimeNs start = clock.now();
        auto resp = client.get("/cgi-bin/work?i=" + std::to_string(i));
        if (resp && resp.value().status == 200) {
          stats.add(to_seconds(clock.now() - start));
        }
      }
    }

    stop = true;
    if (pump.joinable()) pump.join();
    const auto applied = group.stats().updates_received;
    server.stop();
    group.stop();

    if (ups == 0.0) base = stats.mean();
    table.add_row({fmt_double(ups, 0), fmt_double(stats.mean(), 5),
                   fmt_double(stats.mean() - base, 5), std::to_string(applied)});
    std::printf("  measured UPS=%.0f...\n", ups);
  }

  std::printf("\n%s\n", table.render().c_str());
  std::printf(
      "Paper's shape: the increase column stays insignificant even at high\n"
      "update rates — applying remote directory updates touches only the\n"
      "sender's table under a per-table write lock and never blocks the\n"
      "request threads' lookups for long.\n");
  return 0;
}
