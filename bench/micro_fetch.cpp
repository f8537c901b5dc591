// Micro-measurement — remote-fetch latency, pooled vs per-fetch connections.
//
// The 1998 Swala opened a TCP connection per remote cache fetch; this
// implementation adds a per-peer connection pool (GroupOptions::
// fetch_pool_size, 0 = original behaviour). This bench quantifies what the
// pool buys on the data channel that Figure 3's remote-fetch overhead
// travels through.
#include "bench/bench_util.h"
#include "cluster/local_cluster.h"
#include "common/stats.h"

using namespace swala;

namespace {

core::ManagerOptions cache_all(core::NodeId) {
  core::ManagerOptions mo;
  mo.limits = {100, 0};
  core::RuleDecision rule;
  rule.cacheable = true;
  mo.rules.add_rule("/cgi-bin/*", rule);
  return mo;
}

double measure(std::size_t pool_size, std::size_t fetches) {
  cluster::GroupOptions go;
  go.fetch_pool_size = pool_size;
  cluster::LocalCluster cluster(2, cache_all, RealClock::instance(), go);

  // Seed one entry at node 0.
  http::Uri uri;
  if (!http::parse_uri("/cgi-bin/payload", &uri)) return -1;
  auto lookup = cluster.manager(0).lookup(http::Method::kGet, uri, Deadline());
  cgi::CgiOutput out;
  out.success = true;
  out.body = std::string(4096, 'd');
  cluster.manager(0).complete(http::Method::kGet, uri, lookup.rule, out, 1.0);

  const RealClock& clock = *RealClock::instance();
  OnlineStats stats;
  for (std::size_t i = 0; i < fetches; ++i) {
    const TimeNs start = clock.now();
    auto fetched = cluster.group(1).fetch_remote(0, "GET /cgi-bin/payload");
    if (!fetched) return -1;
    stats.add(to_seconds(clock.now() - start));
  }
  return stats.mean();
}

}  // namespace

int main() {
  bench::banner("Micro", "remote fetch: pooled vs per-fetch connections");
  constexpr std::size_t kFetches = 2000;

  const double unpooled = measure(/*pool_size=*/0, kFetches);
  const double pooled = measure(/*pool_size=*/4, kFetches);
  if (unpooled < 0 || pooled < 0) {
    std::fprintf(stderr, "measurement failed\n");
    return 1;
  }

  TablePrinter table({"mode", "mean fetch (us)", "speedup"});
  table.add_row({"connection per fetch (paper)",
                 fmt_double(unpooled * 1e6, 1), "1.0x"});
  table.add_row({"pooled connections", fmt_double(pooled * 1e6, 1),
                 fmt_double(unpooled / pooled, 1) + "x"});
  std::printf("\n%s\n", table.render().c_str());
  std::printf(
      "4 KiB payload over loopback, %zu fetches per mode. The pool removes\n"
      "the TCP handshake from every fetch; on a real LAN (where the paper's\n"
      "remote-fetch premium lived) the absolute saving is larger still.\n",
      kFetches);
  return 0;
}
