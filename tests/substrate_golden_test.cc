// Golden pins for the two virtual-time substrates: the simulated cluster
// (run_cluster_sim) and the chaos harness (run_sim_chaos). Both run the
// server's cooperation protocol (cluster::Protocol) over sim::VirtualBus,
// so any change to the protocol or to the bus's fan-out, fault handling,
// delivery scheduling or traffic accounting shows up here as a moved
// number. Each scenario renders its outputs as one summary line. The lines
// were recorded before the two simulator buses were merged and must not
// move; the exceptions were re-recorded on purpose:
//  * the one line with a `co=` field (same-node misses coalesced by
//    single-flight), when the simulator moved onto the server's lookup path;
//  * the two churn lines and both chaos lines, when the simulator moved
//    onto the server's protocol: peers now learn of a decommission from its
//    kDecommission frame, one propagation delay after the handoff
//    (ChaosSimTest.PeersLearnOfADecommissionFromItsAnnouncement), and a
//    crash is found by the breaker and healed by a probe
//    (ChaosSimTest.CrashIsFoundByTheBreakerAndRejoinWaitsForAProbe).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "chaos/chaos.h"
#include "chaos_schedules.h"
#include "common/hash.h"
#include "sim/cluster_sim.h"
#include "workload/adl_synth.h"

namespace swala {
namespace {

using core::DirectoryMode;

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string summarize(const sim::SimReport& r) {
  std::uint64_t keys = kFnvOffsetBasis;
  for (const auto& node : r.node_keys) {
    for (const auto& key : node) {
      keys = fnv1a64_continue(keys, key);
      keys = fnv1a64_continue(keys, "\n");
    }
    keys = fnv1a64_continue(keys, "|");
  }
  const core::ManagerStats& c = r.cache;
  char time[32];
  std::snprintf(time, sizeof(time), "%.17g", r.sim_seconds);
  auto n = [](std::uint64_t v) { return std::to_string(v); };
  return "upd=" + n(r.dir_update_frames) + "/" + n(r.dir_update_bytes) +
         " qry=" + n(r.dir_query_frames) + "/" + n(r.dir_query_bytes) +
         " trans=" + n(r.transition_frames) + "/" + n(r.transition_bytes) +
         " hand=" + n(r.handoff_frames) + "/" + n(r.handoff_bytes) + "/" +
         n(r.handoffs_adopted) + " look=" + n(c.lookups) +
         " lh=" + n(c.local_hits) + " rh=" + n(c.remote_hits) +
         " miss=" + n(c.misses) + " ins=" + n(c.inserts) +
         " fh=" + n(c.false_hits) + " fm=" + n(c.false_misses) +
         " fb=" + n(c.fallback_executions) + " rdl=" + n(c.remote_dir_lookups) +
         " rdh=" + n(c.remote_dir_hits) + " pq=" + n(c.peer_queries) +
         " pqh=" + n(c.peer_query_hits) +
         (c.coalesced_misses > 0 ? " co=" + n(c.coalesced_misses) : "") +
         " keys=" + hex64(keys) + " t=" + time;
}

std::string summarize(const chaos::ChaosVerdict& v) {
  auto n = [](std::uint64_t x) { return std::to_string(x); };
  return "log=" + hex64(fnv1a64(v.log_text())) + " repair=" +
         n(v.repair_frames) + "/" + n(v.repair_bytes) + " hand=" +
         n(v.handoff_frames) + "/" + n(v.handoff_bytes) + "/" +
         n(v.handoffs_adopted) + " gaps=" + n(v.gaps_repaired) +
         (v.passed ? " pass" : " fail");
}

// ---- simulated cluster ----

enum class Variant { kClean, kDrop, kChurn };

const workload::Trace& adl_trace() {
  static const workload::Trace trace = [] {
    workload::AdlOptions opts;
    opts.total_requests = 1500;
    opts.hot_fraction = 0.5;
    opts.hot_queries = 60;
    return workload::synthesize_adl_trace(opts);
  }();
  return trace;
}

std::string run_sim(DirectoryMode mode, Variant variant) {
  sim::SimConfig config;
  config.nodes = 4;
  config.client_streams = 8;
  config.directory_mode = mode;
  config.limits = {40, 0};  // small enough to force eviction erases
  cluster::FaultInjector faults(/*seed=*/17);
  if (variant == Variant::kDrop) {
    cluster::FaultRule rule;  // any peer, any message type
    rule.kind = cluster::FaultKind::kDrop;
    rule.probability = 0.2;
    faults.add_rule(rule);
    config.faults = &faults;
  }
  if (variant == Variant::kChurn) {
    config.join_node = 3;
    config.join_after_fraction = 0.3;
    config.decommission_node = 0;
    config.decommission_after_fraction = 0.6;
  }
  return summarize(sim::run_cluster_sim(adl_trace(), config));
}

struct SimGolden {
  DirectoryMode mode;
  Variant variant;
  const char* expected;
};

const SimGolden kSimGoldens[] = {
    {DirectoryMode::kReplicated, Variant::kClean,
     "upd=1860/202875 qry=0/0 trans=0/0 hand=0/0/0"
     " look=617 lh=82 rh=145 miss=390 ins=390"
     " fh=0 fm=8 fb=0 rdl=0 rdh=0 pq=0 pqh=0"
     " keys=891b4ffb8595d014 t=382.42201106218465"},
    {DirectoryMode::kReplicated, Variant::kDrop,
     "upd=2070/223698 qry=0/0 trans=0/0 hand=0/0/0"
     " look=617 lh=118 rh=74 miss=425 ins=425"
     " fh=4 fm=47 fb=27 rdl=0 rdh=0 pq=0 pqh=0"
     " keys=94ffe5d6c21818be t=425.0908015729994"},
    {DirectoryMode::kReplicated, Variant::kChurn,
     "upd=1591/168321 qry=0/0 trans=206/27696 hand=40/453070/39"
     " look=617 lh=104 rh=111 miss=402 ins=439"
     " fh=0 fm=66 fb=0 rdl=0 rdh=0 pq=0 pqh=0"
     " keys=194324d1ca189604 t=388.23608897076491"},
    {DirectoryMode::kPartitioned, Variant::kClean,
     "upd=498/55346 qry=816/39668 trans=0/0 hand=0/0/0"
     " look=617 lh=82 rh=144 miss=391 ins=391"
     " fh=0 fm=0 fb=0 rdl=408 rdh=98 pq=0 pqh=0"
     " keys=2267cabfdbf3982e t=377.77939010812349"},
    {DirectoryMode::kPartitioned, Variant::kDrop,
     "upd=558/61283 qry=690/32998 trans=0/0 hand=0/0/0"
     " look=617 lh=121 rh=61 miss=435 ins=432"
     " fh=2 fm=12 fb=104 rdl=385 rdh=61 pq=0 pqh=0 co=3"
     " keys=18cacb6bc6e41437 t=417.18663758654458"},
    {DirectoryMode::kPartitioned, Variant::kChurn,
     "upd=454/49306 qry=770/35901 trans=104/14085 hand=40/470477/40"
     " look=617 lh=91 rh=128 miss=398 ins=437"
     " fh=1 fm=11 fb=0 rdl=385 rdh=80 pq=0 pqh=0"
     " keys=86f95ba2768b9831 t=397.29828558866973"},
    {DirectoryMode::kQuery, Variant::kClean,
     "upd=0/0 qry=2840/113771 trans=0/0 hand=0/0/0"
     " look=617 lh=80 rh=145 miss=392 ins=392"
     " fh=0 fm=0 fb=0 rdl=0 rdh=0 pq=537 pqh=145"
     " keys=1033462bf6bf54e3 t=382.21411296140792"},
    {DirectoryMode::kQuery, Variant::kDrop,
     "upd=0/0 qry=2446/100894 trans=0/0 hand=0/0/0"
     " look=617 lh=120 rh=75 miss=422 ins=422"
     " fh=0 fm=0 fb=17 rdl=0 rdh=0 pq=497 pqh=92"
     " keys=46cd9191f9b7d278 t=406.33129549240562"},
    {DirectoryMode::kQuery, Variant::kChurn,
     "upd=0/0 qry=2298/93513 trans=0/0 hand=40/470477/40"
     " look=617 lh=92 rh=129 miss=396 ins=435"
     " fh=0 fm=0 fb=0 rdl=0 rdh=0 pq=525 pqh=129"
     " keys=cfbe9f403ff8ab6b t=394.21732355870745"},
};

TEST(SubstrateGoldenTest, ClusterSimOutputsArePinned) {
  const char* variant_names[] = {"clean", "drop", "churn"};
  for (const auto& g : kSimGoldens) {
    SCOPED_TRACE(std::string(core::directory_mode_name(g.mode)) + "/" +
                 variant_names[static_cast<int>(g.variant)]);
    EXPECT_EQ(run_sim(g.mode, g.variant), g.expected);
  }
}

// ---- chaos harness ----

TEST(SubstrateGoldenTest, ChaosRandomScheduleIsPinned) {
  EXPECT_EQ(summarize(chaos::run_sim_chaos(
                chaos::make_random_schedule(42, 3, 6.0))),
            "log=921953c7d434bcb5 repair=55/2152 hand=0/0/0 gaps=2 pass");
}

TEST(SubstrateGoldenTest, ChaosChurnScheduleIsPinned) {
  EXPECT_EQ(summarize(chaos::run_sim_chaos(chaos::churn_schedule())),
            "log=02595cb732fcfa6c repair=54/1764 hand=1/137/1 gaps=0 pass");
}

// ---- semantics the shared bus takes from the TCP transport ----
// Not pins: these check behaviour one of the two former buses lacked.

TEST(SubstrateGoldenTest, SimFetchDelayChargesTheRequester) {
  // One request at a time, so the delay cannot reorder anything: every
  // remote hit just takes 200 ms longer.
  workload::Trace trace = adl_trace();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].arrival_seconds = 200.0 * static_cast<double>(i);
  }
  sim::SimConfig config;
  config.nodes = 4;
  config.open_loop = true;
  const auto clean = sim::run_cluster_sim(trace, config);
  cluster::FaultInjector faults(/*seed=*/3);
  cluster::FaultRule rule;
  rule.type = cluster::MsgType::kFetchReq;
  rule.kind = cluster::FaultKind::kDelay;
  rule.delay_ms = 200;
  faults.add_rule(rule);
  config.faults = &faults;
  const auto slow = sim::run_cluster_sim(trace, config);
  ASSERT_GT(clean.cache.remote_hits, 0u);
  EXPECT_EQ(slow.cache.remote_hits, clean.cache.remote_hits);
  const double requests = static_cast<double>(trace.size());
  EXPECT_NEAR((slow.mean_response() - clean.mean_response()) * requests,
              0.2 * static_cast<double>(clean.cache.remote_hits), 1e-6);
}

TEST(SubstrateGoldenTest, ChaosQueryModeSweepsLivePeers) {
  using chaos::ActionKind;
  using chaos::at;
  chaos::ChaosSchedule s;
  s.nodes = 3;
  s.seed = 5;
  s.duration_seconds = 2.0;
  s.directory_mode = DirectoryMode::kQuery;
  s.actions.push_back(at(0.1, ActionKind::kInsert, 1, "/cgi-bin/q/a"));
  s.actions.push_back(at(0.5, ActionKind::kInsert, 0, "/cgi-bin/q/a"));
  // Node 0's miss sweeps the peers and finds node 1's copy.
  const auto found = chaos::run_sim_chaos(s);
  EXPECT_TRUE(found.passed) << found.log_text();
  EXPECT_NE(found.log_text().find(
                "node 0: insert \"/cgi-bin/q/a\" skipped (already cached)"),
            std::string::npos)
      << found.log_text();

  // With node 1 down its probe goes unanswered: node 0 executes itself.
  s.actions.insert(s.actions.begin() + 1, at(0.3, ActionKind::kCrash, 1));
  const auto lost = chaos::run_sim_chaos(s);
  EXPECT_TRUE(lost.passed) << lost.log_text();
  EXPECT_NE(lost.log_text().find("node 0: insert \"/cgi-bin/q/a\"\n"),
            std::string::npos)
      << lost.log_text();
}

}  // namespace
}  // namespace swala
