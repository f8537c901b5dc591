// Tests for the discrete-event simulator: engine ordering, the FCFS
// resource, and cluster-model behaviours the experiments depend on
// (hit accounting vs the theoretical bound, cooperative > stand-alone,
// caching reduces response time, determinism).
#include <gtest/gtest.h>

#include <unordered_map>

#include "sim/cluster_sim.h"
#include "workload/adl_synth.h"
#include "workload/analyzer.h"

namespace swala::sim {
namespace {

// ---- engine ----

TEST(SimEngineTest, FiresInTimeOrder) {
  SimEngine engine;
  std::vector<int> order;
  engine.schedule_at(3.0, [&] { order.push_back(3); });
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(2.0, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(SimEngineTest, FifoWithinSameTimestamp) {
  SimEngine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimEngineTest, EventsMayScheduleEvents) {
  SimEngine engine;
  int fired = 0;
  engine.schedule_at(1.0, [&] {
    ++fired;
    engine.schedule_in(0.5, [&] { ++fired; });
  });
  engine.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(engine.now(), 1.5);
}

TEST(SimEngineTest, ClockMirrorsVirtualTime) {
  SimEngine engine;
  TimeNs seen = 0;
  engine.schedule_at(2.5, [&] { seen = engine.clock()->now(); });
  engine.run();
  EXPECT_EQ(seen, from_seconds(2.5));
}

TEST(SimEngineTest, RunUntilStopsEarly) {
  SimEngine engine;
  int fired = 0;
  engine.schedule_at(1.0, [&] { ++fired; });
  engine.schedule_at(5.0, [&] { ++fired; });
  engine.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  EXPECT_EQ(engine.pending(), 1u);
}

TEST(SimEngineTest, PastEventsClampToNow) {
  SimEngine engine;
  double fired_at = -1.0;
  engine.schedule_at(2.0, [&] {
    engine.schedule_at(0.5, [&] { fired_at = engine.now(); });  // in the past
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 2.0);
}

// ---- FCFS resource ----

TEST(FcfsResourceTest, SerializesJobs) {
  SimEngine engine;
  FcfsResource cpu(&engine);
  std::vector<double> completions;
  engine.schedule_at(0.0, [&] {
    cpu.submit(1.0, [&] { completions.push_back(engine.now()); });
    cpu.submit(2.0, [&] { completions.push_back(engine.now()); });
  });
  engine.schedule_at(0.5, [&] {
    cpu.submit(1.0, [&] { completions.push_back(engine.now()); });
  });
  engine.run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_DOUBLE_EQ(completions[0], 1.0);
  EXPECT_DOUBLE_EQ(completions[1], 3.0);
  EXPECT_DOUBLE_EQ(completions[2], 4.0);  // queued behind the first two
  EXPECT_DOUBLE_EQ(cpu.busy_seconds(), 4.0);
  EXPECT_EQ(cpu.jobs(), 3u);
}

TEST(FcfsResourceTest, IdleGapNotCounted) {
  SimEngine engine;
  FcfsResource cpu(&engine);
  engine.schedule_at(0.0, [&] { cpu.submit(1.0, [] {}); });
  engine.schedule_at(10.0, [&] { cpu.submit(1.0, [] {}); });
  engine.run();
  EXPECT_DOUBLE_EQ(cpu.busy_seconds(), 2.0);
  EXPECT_NEAR(cpu.utilization(engine.now()), 2.0 / 11.0, 1e-9);
}

// ---- cluster model ----

workload::Trace mix_trace(std::size_t total = 1600, std::size_t unique = 1122) {
  return workload::synthesize_request_mix(total, unique, 1.0, 77);
}

TEST(ClusterSimTest, AllRequestsComplete) {
  SimConfig config;
  config.nodes = 2;
  config.client_streams = 8;
  const auto report = run_cluster_sim(mix_trace(400, 200), config);
  EXPECT_EQ(report.requests_completed, 400u);
  EXPECT_GT(report.sim_seconds, 0.0);
}

TEST(ClusterSimTest, SingleNodeInfiniteCacheReachesUpperBound) {
  // With one node, one stream, and an infinite cache there are no races:
  // hits must equal the theoretical upper bound exactly.
  const auto trace = mix_trace();
  SimConfig config;
  config.nodes = 1;
  config.client_streams = 1;
  config.limits = {0, 0};  // unlimited
  const auto report = run_cluster_sim(trace, config);
  EXPECT_EQ(report.cache.hits(), workload::hit_upper_bound(trace));
  EXPECT_EQ(report.cache.false_hits, 0u);
  EXPECT_EQ(report.cache.false_misses, 0u);
}

TEST(ClusterSimTest, CachingReducesResponseTime) {
  const auto trace = mix_trace();
  SimConfig cached;
  cached.nodes = 4;
  cached.client_streams = 16;
  SimConfig uncached = cached;
  uncached.caching = false;

  const auto with_cache = run_cluster_sim(trace, cached);
  const auto without = run_cluster_sim(trace, uncached);
  EXPECT_LT(with_cache.mean_response(), without.mean_response());
  EXPECT_LT(with_cache.sim_seconds, without.sim_seconds);
}

TEST(ClusterSimTest, CooperativeBeatsStandaloneOnSmallCaches) {
  const auto trace = mix_trace();
  SimConfig coop;
  coop.nodes = 8;
  coop.client_streams = 16;
  coop.limits = {20, 0};  // the paper's Table-6 cache size
  SimConfig standalone = coop;
  standalone.cooperative = false;

  const auto coop_report = run_cluster_sim(trace, coop);
  const auto stand_report = run_cluster_sim(trace, standalone);
  EXPECT_GT(coop_report.cache.hits(), stand_report.cache.hits());
}

TEST(ClusterSimTest, StandaloneNeverRemoteHits) {
  SimConfig config;
  config.nodes = 4;
  config.cooperative = false;
  const auto report = run_cluster_sim(mix_trace(400, 200), config);
  EXPECT_EQ(report.cache.remote_hits, 0u);
}

TEST(ClusterSimTest, CooperativeUsesRemoteHits) {
  SimConfig config;
  config.nodes = 4;
  config.client_streams = 8;
  const auto report = run_cluster_sim(mix_trace(), config);
  EXPECT_GT(report.cache.remote_hits, 0u);
}

// ---- fault injection under virtual time ----

TEST(ClusterSimTest, DroppedBroadcastsCauseFalseMissesInSim) {
  const auto trace = mix_trace();
  SimConfig clean;
  clean.nodes = 4;
  clean.client_streams = 8;

  SimConfig lossy = clean;
  cluster::FaultInjector faults(/*seed=*/11);
  cluster::FaultRule rule;
  rule.type = cluster::MsgType::kInsert;
  rule.kind = cluster::FaultKind::kDrop;
  rule.probability = 0.5;
  faults.add_rule(rule);
  lossy.faults = &faults;

  const auto clean_report = run_cluster_sim(trace, clean);
  const auto lossy_report = run_cluster_sim(trace, lossy);
  EXPECT_GT(faults.faults_injected(), 0u);
  // Lost directory updates mean peers re-execute work they would have
  // shared: strictly more false misses (duplicate caching) than a clean run.
  EXPECT_GT(lossy_report.cache.false_misses, clean_report.cache.false_misses);
  EXPECT_EQ(lossy_report.requests_completed, clean_report.requests_completed);
}

TEST(ClusterSimTest, BlackholedFetchesFallBackInSim) {
  const auto trace = mix_trace();
  SimConfig config;
  config.nodes = 4;
  config.client_streams = 8;
  cluster::FaultInjector faults(/*seed=*/23);
  cluster::FaultRule rule;
  rule.type = cluster::MsgType::kFetchReq;
  rule.kind = cluster::FaultKind::kBlackhole;
  faults.add_rule(rule);
  config.faults = &faults;

  const auto report = run_cluster_sim(trace, config);
  // Every remote fetch times out and falls back to local execution: no
  // remote hits, fallbacks counted, and every request still completes.
  EXPECT_EQ(report.cache.remote_hits, 0u);
  EXPECT_GT(report.cache.fallback_executions, 0u);
  EXPECT_EQ(report.requests_completed, trace.size());
}

TEST(ClusterSimTest, FaultRunsAreDeterministic) {
  const auto trace = mix_trace(800, 500);
  SimConfig config;
  config.nodes = 4;
  config.client_streams = 8;

  auto run_with_faults = [&](unsigned seed) {
    cluster::FaultInjector faults(seed);
    cluster::FaultRule rule;
    rule.type = cluster::MsgType::kInsert;
    rule.kind = cluster::FaultKind::kDrop;
    rule.probability = 0.3;
    faults.add_rule(rule);
    SimConfig c = config;
    c.faults = &faults;
    return run_cluster_sim(trace, c);
  };

  const auto a = run_with_faults(99);
  const auto b = run_with_faults(99);
  EXPECT_DOUBLE_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.cache.hits(), b.cache.hits());
  EXPECT_EQ(a.cache.false_misses, b.cache.false_misses);
  EXPECT_EQ(a.cache.fallback_executions, b.cache.fallback_executions);
}

TEST(ClusterSimTest, Deterministic) {
  const auto trace = mix_trace(800, 500);
  SimConfig config;
  config.nodes = 4;
  config.client_streams = 8;
  const auto a = run_cluster_sim(trace, config);
  const auto b = run_cluster_sim(trace, config);
  EXPECT_DOUBLE_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.cache.hits(), b.cache.hits());
  EXPECT_EQ(a.cache.false_misses, b.cache.false_misses);
  EXPECT_DOUBLE_EQ(a.mean_response(), b.mean_response());
}

TEST(ClusterSimTest, MoreNodesLowerResponseUnderLoad) {
  // The Figure-4 scaling property: with a fixed client population, adding
  // nodes reduces mean response time.
  workload::AdlOptions opts;
  opts.total_requests = 3000;
  const auto trace = workload::synthesize_adl_trace(opts);
  SimConfig config;
  config.client_streams = 16;
  config.min_exec_seconds = 0.5;

  double prev = 1e18;
  for (const std::size_t nodes : {1u, 2u, 4u, 8u}) {
    config.nodes = nodes;
    const auto report = run_cluster_sim(trace, config);
    EXPECT_LT(report.mean_response(), prev)
        << nodes << " nodes should beat " << nodes / 2;
    prev = report.mean_response();
  }
}

TEST(ClusterSimTest, ThresholdControlsInserts) {
  const auto trace = mix_trace(400, 200);
  SimConfig low;
  low.nodes = 1;
  low.client_streams = 1;
  low.min_exec_seconds = 0.0;
  SimConfig high = low;
  high.min_exec_seconds = 10.0;  // nothing qualifies (service is 1 s)

  EXPECT_GT(run_cluster_sim(trace, low).cache.inserts, 0u);
  EXPECT_EQ(run_cluster_sim(trace, high).cache.inserts, 0u);
}

TEST(ClusterSimTest, MemoryModelProducesSuperlinearSpeedup) {
  // The optional working-set memory model (ablation_memory bench): with
  // per-node memory below the single-node working set, splitting the load
  // over nodes removes thrashing and the speedup exceeds the node count.
  workload::AdlOptions opts;
  opts.total_requests = 4000;
  const auto trace = workload::synthesize_adl_trace(opts);

  std::uint64_t working_set = 0;
  {
    std::unordered_map<std::string, std::uint64_t> distinct;
    for (const auto& r : trace) distinct.emplace(r.target, r.response_bytes);
    for (const auto& [t, b] : distinct) working_set += b;
  }

  SimConfig config;
  config.client_streams = 16;
  config.min_exec_seconds = 1.0;
  config.costs.node_memory_bytes = working_set / 2;
  config.costs.thrash_slope = 1.0;

  config.nodes = 1;
  const double one = run_cluster_sim(trace, config).mean_response();
  config.nodes = 4;
  const double four = run_cluster_sim(trace, config).mean_response();
  EXPECT_GT(one / four, 4.0) << "expected superlinear speedup under memory "
                                "pressure; got " << one / four;

  // With the model disabled the same setup is at most linear.
  config.costs.node_memory_bytes = 0;
  config.nodes = 1;
  const double flat_one = run_cluster_sim(trace, config).mean_response();
  config.nodes = 4;
  const double flat_four = run_cluster_sim(trace, config).mean_response();
  EXPECT_LE(flat_one / flat_four, 4.0 + 0.1);
}

TEST(ClusterSimTest, OpenLoopFollowsArrivalTimes) {
  // Two requests 100 s apart on an idle node: responses must not queue.
  workload::Trace trace;
  trace.push_back({0.0, "/cgi-bin/a", true, 1.0, 100});
  trace.push_back({100.0, "/cgi-bin/b", true, 1.0, 100});
  SimConfig config;
  config.nodes = 1;
  config.open_loop = true;
  const auto report = run_cluster_sim(trace, config);
  EXPECT_EQ(report.requests_completed, 2u);
  // Makespan is dominated by the second arrival, not by queueing.
  EXPECT_GT(report.sim_seconds, 100.0);
  EXPECT_LT(report.sim_seconds, 103.0);
  // Each response ~ its own service time (no queueing delay).
  EXPECT_LT(report.response_times.max(), 1.5);
}

TEST(ClusterSimTest, OpenLoopBurstQueues) {
  // The same two requests arriving together must queue on one CPU.
  workload::Trace trace;
  trace.push_back({0.0, "/cgi-bin/a", true, 1.0, 100});
  trace.push_back({0.0, "/cgi-bin/b", true, 1.0, 100});
  SimConfig config;
  config.nodes = 1;
  config.open_loop = true;
  const auto report = run_cluster_sim(trace, config);
  EXPECT_GT(report.response_times.max(), 1.8) << "second request queues";
}

TEST(ClusterSimTest, OpenLoopSharesCacheAcrossNodes) {
  workload::Trace trace;
  trace.push_back({0.0, "/cgi-bin/x", true, 1.0, 100});
  trace.push_back({10.0, "/cgi-bin/x", true, 1.0, 100});  // lands on node 1
  SimConfig config;
  config.nodes = 2;
  config.open_loop = true;
  const auto report = run_cluster_sim(trace, config);
  EXPECT_EQ(report.cache.remote_hits, 1u);
}

TEST(ClusterSimTest, ConcurrentIdenticalMissesOnOneNodeExecuteOnce) {
  // Two streams on one node ask for the same CGI at once. As on the server,
  // the second lookup finds the first execution in flight and rides it
  // (single-flight) instead of running the CGI again.
  workload::Trace trace;
  trace.push_back({0.0, "/cgi-bin/same", true, 1.0, 100});
  trace.push_back({0.0, "/cgi-bin/same", true, 1.0, 100});
  SimConfig config;
  config.nodes = 1;
  config.client_streams = 2;
  const auto report = run_cluster_sim(trace, config);
  EXPECT_EQ(report.requests_completed, 2u);
  EXPECT_EQ(report.cache.coalesced_misses, 1u);
  EXPECT_EQ(report.cache.inserts, 1u);
  // The rider pays a local hit once the leader finishes, not a second run.
  EXPECT_LT(report.sim_seconds, 2.0);
}

TEST(ClusterSimTest, UtilizationReportedPerNode) {
  SimConfig config;
  config.nodes = 3;
  const auto report = run_cluster_sim(mix_trace(300, 150), config);
  ASSERT_EQ(report.cpu_utilization.size(), 3u);
  for (const double u : report.cpu_utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-9);
  }
}

}  // namespace
}  // namespace swala::sim
