#include "sim/cluster_sim.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "http/uri.h"
#include "sim/virtual_bus.h"

namespace swala::sim {
namespace {

/// Per-node working-set tracker for the optional memory model.
struct NodeMemory {
  std::unordered_set<std::string> touched;
  std::uint64_t working_set_bytes = 0;

  void touch(const std::string& target, std::uint64_t bytes) {
    if (touched.insert(target).second) working_set_bytes += bytes;
  }

  /// Service multiplier given the node's memory size (1.0 = no pressure).
  double pressure(std::uint64_t memory_bytes, double slope) const {
    if (memory_bytes == 0 || working_set_bytes <= memory_bytes) return 1.0;
    const double ratio = static_cast<double>(working_set_bytes) /
                         static_cast<double>(memory_bytes);
    return 1.0 + slope * (ratio - 1.0);
  }
};

struct SimState {
  SimEngine engine;
  VirtualTraffic traffic;
  BusList buses;  ///< cooperative mode only
  ManagerList managers;
  std::vector<std::unique_ptr<FcfsResource>> cpus;
  std::vector<NodeMemory> memory;

  // Client streams: each owns a slice of the trace.
  struct Stream {
    std::vector<const workload::TraceRecord*> requests;
    std::size_t next = 0;
    std::size_t node = 0;
  };
  std::vector<Stream> streams;

  LatencyHistogram response_times;
  std::uint64_t completed = 0;
  const SimConfig* config = nullptr;

  /// Per node: cache key → resumptions of the requests whose lookup found
  /// another stream executing that key there (single-flight kPending).
  /// They run right after the leader's complete().
  std::vector<std::unordered_map<std::string,
                                 std::vector<std::function<void()>>>>
      parked;

  // ---- membership churn (see SimConfig::join_node et al.) ----
  static constexpr std::size_t kNever = static_cast<std::size_t>(-1);
  std::vector<char> member;  ///< harness view of the active set
  std::size_t join_threshold = kNever;          ///< completed-count trigger
  std::size_t decommission_threshold = kNever;  ///< completed-count trigger
  std::uint64_t membership_transitions = 0;
  std::vector<std::string> decommissioned_keys;
};

/// Issues stream `s`'s next request; reschedules itself on completion.
void issue_next(SimState* st, std::size_t s);

/// Closes every member's dual-read window once a transition's migration
/// traffic has settled.
void close_transition_windows(SimState* st) {
  for (std::size_t i = 0; i < st->managers.size(); ++i) {
    if (st->member[i]) st->managers[i]->finish_ring_transition();
  }
}

/// Join under load: the joiner runs the kJoin protocol (every member
/// admits it; partitioned mode forwards only the remapped directory slice,
/// replicated mode seeds the joiner with a full push; then the joiner adopts
/// the cluster view). Everything it sends counts as transition traffic.
void do_join(SimState* st) {
  const core::NodeId j = st->config->join_node;
  st->traffic.in_transition = true;
  (void)st->buses[j]->join_cluster();
  st->traffic.in_transition = false;
  st->member[j] = 1;
  st->membership_transitions += 1;
  st->engine.schedule_in(0.5, [st] { close_transition_windows(st); });
}

/// Graceful decommission under load: the leaver runs the decommission
/// protocol (stop admitting, hand cached state to the ring successors,
/// announce), and its client streams repin to the next active member (the
/// load balancer stops routing to it).
void do_decommission(SimState* st) {
  const core::NodeId d = st->config->decommission_node;
  for (const auto& meta : st->managers[d]->store().resident_metas()) {
    st->decommissioned_keys.push_back(meta.key);
  }
  std::sort(st->decommissioned_keys.begin(), st->decommissioned_keys.end());
  st->traffic.in_transition = true;
  (void)st->buses[d]->decommission();
  st->traffic.in_transition = false;
  st->member[d] = 0;
  st->membership_transitions += 1;
  std::size_t next = d;
  for (std::size_t step = 1; step <= st->managers.size(); ++step) {
    const std::size_t cand = (d + step) % st->managers.size();
    if (st->member[cand]) {
      next = cand;
      break;
    }
  }
  if (next != d) {
    for (auto& stream : st->streams) {
      if (stream.node == d) stream.node = next;
    }
  }
  st->engine.schedule_in(0.5, [st] { close_transition_windows(st); });
}

void maybe_churn(SimState* st) {
  if (st->completed >= st->join_threshold) {
    st->join_threshold = SimState::kNever;
    do_join(st);
  }
  if (st->completed >= st->decommission_threshold) {
    st->decommission_threshold = SimState::kNever;
    do_decommission(st);
  }
}

void finish_request(SimState* st, std::size_t s, double issued_at) {
  st->response_times.add(st->engine.now() - issued_at);
  ++st->completed;
  st->streams[s].next++;
  maybe_churn(st);
  issue_next(st, s);
}

/// Queues `service` seconds of CPU work on `node` once `delay` seconds of
/// virtual latency (a directory probe round trip) have passed. The CPU
/// stays free for other streams meanwhile.
void submit_after(SimState* st, std::size_t node, double delay,
                  double service, std::function<void()> done) {
  FcfsResource* queue = st->cpus[node].get();
  if (delay > 0.0) {
    st->engine.schedule_in(delay,
                           [queue, service, done = std::move(done)]() mutable {
                             queue->submit(service, std::move(done));
                           });
  } else {
    queue->submit(service, std::move(done));
  }
}

/// The leader for `key` on `node` just published: resume every request
/// parked on it.
void resume_parked(SimState* st, std::size_t node, const std::string& key) {
  const auto it = st->parked[node].find(key);
  if (it == st->parked[node].end()) return;
  const auto waiters = std::move(it->second);
  st->parked[node].erase(it);
  for (const auto& resume : waiters) resume();
}

void issue_next(SimState* st, std::size_t s) {
  auto& stream = st->streams[s];
  if (stream.next >= stream.requests.size()) return;  // stream drained

  const workload::TraceRecord& r = *stream.requests[stream.next];
  const std::size_t node = stream.node;
  core::CacheManager* manager = st->managers.empty()
                                    ? nullptr
                                    : st->managers[node].get();
  FcfsResource& cpu = *st->cpus[node];
  const SimCosts& costs = st->config->costs;
  const double issued_at = st->engine.now();

  // Optional memory model: track this node's working set and derive the
  // thrash multiplier applied to its CPU-bound work.
  NodeMemory& mem = st->memory[node];
  mem.touch(r.target, r.response_bytes);
  const double pressure =
      mem.pressure(costs.node_memory_bytes, costs.thrash_slope);

  http::Uri uri;
  if (!http::parse_uri(r.target, &uri)) {
    // Malformed trace entry: consume a minimal parse cost and move on.
    cpu.submit(costs.per_request_overhead,
               [st, s, issued_at] { finish_request(st, s, issued_at); });
    return;
  }

  if (!r.is_cgi || manager == nullptr) {
    // Static file or caching disabled entirely: plain execution.
    const double service =
        pressure * (costs.per_request_overhead + r.service_seconds +
                    (r.is_cgi ? costs.cgi_startup : 0.0));
    cpu.submit(service,
               [st, s, issued_at] { finish_request(st, s, issued_at); });
    return;
  }

  // Figure-2 flow on the server's lookup path. The lookup (and any remote
  // data transfer) happens now; time costs are charged via the CPU queue /
  // latency events.
  auto lookup = manager->lookup(http::Method::kGet, uri, Deadline());

  // Directory probes (partitioned owner lookups, query-mode sweeps) run
  // synchronously inside lookup() but their round trips are virtual-time
  // latency: delay this request's CPU work by the accrued amount.
  const double probe_lat =
      st->buses.empty() ? 0.0 : st->buses[node]->take_pending_latency();
  auto submit = [st, node, probe_lat](double service,
                                      std::function<void()> done) {
    submit_after(st, node, probe_lat, service, std::move(done));
  };

  switch (lookup.outcome) {
    case core::LookupOutcome::kPending: {
      // Single-flight: another stream is executing this key on this node.
      // Once it publishes, `await` returns the shared result at once; serve
      // it like a local hit, but not before this request's own probe ends.
      const std::string key =
          core::CacheManager::key_for(http::Method::kGet, uri).text;
      const double service =
          pressure * (costs.per_request_overhead + costs.local_fetch_cpu);
      st->parked[node][key].push_back(
          [st, node, s, issued_at, service, probe_end = issued_at + probe_lat,
           lookup = std::move(lookup)]() mutable {
            (void)st->managers[node]->await(std::move(lookup), Deadline());
            submit_after(st, node, probe_end - st->engine.now(), service,
                         [st, s, issued_at] {
                           finish_request(st, s, issued_at);
                         });
          });
      return;
    }

    case core::LookupOutcome::kFailedFast:
      // Unreached: simulated executions never fail, so the negative cache
      // stays empty, and no request waits under a finite deadline. Answer
      // like a rejected request.
      submit(pressure * costs.per_request_overhead,
             [st, s, issued_at] { finish_request(st, s, issued_at); });
      return;

    case core::LookupOutcome::kHit:
      if (lookup.remote) {
        // Requester-side CPU, then the network round trip to the owner.
        submit(pressure * (costs.per_request_overhead + costs.remote_fetch_cpu),
               [st, s, issued_at, &costs] {
                 st->engine.schedule_in(
                     costs.remote_fetch_latency,
                     [st, s, issued_at] { finish_request(st, s, issued_at); });
               });
      } else {
        submit(pressure * (costs.per_request_overhead + costs.local_fetch_cpu),
               [st, s, issued_at] { finish_request(st, s, issued_at); });
      }
      return;

    case core::LookupOutcome::kUncacheable:
    case core::LookupOutcome::kMissMustExecute: {
      const bool cacheable = lookup.outcome == core::LookupOutcome::kMissMustExecute;
      const double service =
          pressure * (costs.per_request_overhead + costs.cgi_startup +
                      r.service_seconds + (cacheable ? costs.insert_cpu : 0.0));
      const core::RuleDecision rule = lookup.rule;
      const double exec_seconds = r.service_seconds;
      const workload::TraceRecord* record = &r;
      submit(service, [st, s, node, issued_at, manager, rule, exec_seconds,
                       record, uri] {
        if (rule.cacheable) {
          // Execution finished *now*: insert and broadcast at this moment,
          // which is what opens the false-miss window for concurrent
          // identical requests on other nodes. Same-node duplicates were
          // parked on this execution and resume now.
          cgi::CgiOutput output;
          output.success = true;
          output.http_status = 200;
          output.body.resize(record->response_bytes, 'x');
          manager->complete(http::Method::kGet, uri, rule, output, exec_seconds);
          resume_parked(
              st, node,
              core::CacheManager::key_for(http::Method::kGet, uri).text);
        }
        finish_request(st, s, issued_at);
      });
      return;
    }
  }
}

}  // namespace

SimReport run_cluster_sim(const workload::Trace& trace, const SimConfig& config) {
  SimState st;
  st.config = &config;

  const std::size_t n = std::max<std::size_t>(1, config.nodes);

  // Membership churn setup: stage the joiner outside the active set and
  // convert the trigger fractions into completed-request thresholds.
  st.member.assign(n, 1);
  const bool churn_capable = config.caching && config.cooperative && n > 1;
  const auto trigger_at = [&trace](double fraction) {
    const auto at =
        static_cast<std::size_t>(fraction * static_cast<double>(trace.size()));
    return std::max<std::size_t>(1, at);
  };
  if (churn_capable && config.join_node != core::kInvalidNode &&
      config.join_node < n) {
    st.member[config.join_node] = 0;
    st.join_threshold = trigger_at(config.join_after_fraction);
  }
  if (churn_capable && config.decommission_node != core::kInvalidNode &&
      config.decommission_node < n &&
      config.decommission_node != config.join_node) {
    st.decommission_threshold = trigger_at(config.decommission_after_fraction);
  }
  std::vector<core::NodeId> initial_members;
  if (st.join_threshold != SimState::kNever) {
    for (std::size_t i = 0; i < n; ++i) {
      if (st.member[i]) initial_members.push_back(static_cast<core::NodeId>(i));
    }
  }

  // Build the cost-model-aware cooperation fabric over real managers.
  if (config.caching) {
    const std::size_t dir_nodes = config.cooperative ? n : 1;
    // No anti-entropy and no probes: nothing here ticks the protocols, and
    // with every node up no breaker opens.
    cluster::GroupOptions go;
    go.anti_entropy_interval_ms = 0;
    go.initial_active = initial_members;
    go.handoff_batch_bytes = config.handoff_batch_bytes;
    for (std::size_t i = 0; config.cooperative && i < n; ++i) {
      st.buses.push_back(std::make_unique<VirtualBus>(
          &st.engine, &st.buses, n, static_cast<core::NodeId>(i),
          config.costs.directory_update_delay, config.costs.query_latency,
          config.faults, /*alive=*/nullptr, &st.traffic, go));
    }
    for (std::size_t i = 0; i < n; ++i) {
      core::ManagerOptions mo;
      mo.limits = config.limits;
      mo.policy = config.policy;
      mo.directory_mode = config.cooperative ? config.directory_mode
                                             : core::DirectoryMode::kReplicated;
      mo.ring_seed = config.ring_seed;
      mo.ring_vnodes = config.ring_vnodes;
      mo.initial_members = initial_members;
      core::RuleDecision decision;
      decision.cacheable = true;
      decision.ttl_seconds = config.ttl_seconds;
      decision.min_exec_seconds = config.min_exec_seconds;
      mo.rules.add_rule("/cgi-bin/*", decision);
      st.managers.push_back(std::make_unique<core::CacheManager>(
          static_cast<core::NodeId>(config.cooperative ? i : 0), dir_nodes,
          std::move(mo), st.engine.clock(),
          config.cooperative ? st.buses[i].get() : nullptr));
      if (config.cooperative) st.buses[i]->attach(st.managers[i].get());
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    st.cpus.push_back(std::make_unique<FcfsResource>(&st.engine));
  }
  st.memory.resize(n);
  st.parked.resize(n);

  if (config.open_loop) {
    // Open loop: one single-request "stream" per trace record, fired at the
    // record's arrival time, routed round-robin across nodes.
    st.streams.resize(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      st.streams[i].node = i % n;
      st.streams[i].requests.push_back(&trace[i]);
      st.engine.schedule_at(trace[i].arrival_seconds,
                            [&st, i] { issue_next(&st, i); });
    }
  } else {
    // Closed loop: partition the trace round-robin over the client
    // streams; pin stream s to node s % n.
    const std::size_t streams = std::max<std::size_t>(1, config.client_streams);
    st.streams.resize(streams);
    for (std::size_t s = 0; s < streams; ++s) st.streams[s].node = s % n;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      st.streams[i % streams].requests.push_back(&trace[i]);
    }
    for (std::size_t s = 0; s < streams; ++s) {
      st.engine.schedule_at(0.0, [&st, s] { issue_next(&st, s); });
    }
  }
  st.engine.run();

  SimReport report;
  report.sim_seconds = st.engine.now();
  report.response_times = st.response_times;
  report.requests_completed = st.completed;
  for (std::size_t i = 0; i < st.managers.size(); ++i) {
    const auto stats = st.managers[i]->stats();
    report.per_node.push_back(stats);
    report.cache.lookups += stats.lookups;
    report.cache.uncacheable += stats.uncacheable;
    report.cache.local_hits += stats.local_hits;
    report.cache.remote_hits += stats.remote_hits;
    report.cache.misses += stats.misses;
    report.cache.inserts += stats.inserts;
    report.cache.below_threshold += stats.below_threshold;
    report.cache.failed_exec += stats.failed_exec;
    report.cache.false_hits += stats.false_hits;
    report.cache.false_misses += stats.false_misses;
    report.cache.evictions_broadcast += stats.evictions_broadcast;
    report.cache.fallback_executions += stats.fallback_executions;
    report.cache.remote_dir_lookups += stats.remote_dir_lookups;
    report.cache.remote_dir_hits += stats.remote_dir_hits;
    report.cache.peer_queries += stats.peer_queries;
    report.cache.peer_query_hits += stats.peer_query_hits;
    report.cache.coalesced_misses += stats.coalesced_misses;
  }
  report.dir_update_frames = st.traffic.updates.frames;
  report.dir_update_bytes = st.traffic.updates.bytes;
  report.dir_query_frames = st.traffic.queries.frames;
  report.dir_query_bytes = st.traffic.queries.bytes;
  report.membership_transitions = st.membership_transitions;
  report.handoff_frames = st.traffic.handoffs.frames;
  report.handoff_bytes = st.traffic.handoffs.bytes;
  for (const auto& bus : st.buses) {
    report.handoffs_adopted += bus->protocol().stats().handoffs_adopted;
  }
  report.transition_frames = st.traffic.transitions.frames;
  report.transition_bytes = st.traffic.transitions.bytes;
  report.decommissioned_keys = std::move(st.decommissioned_keys);
  if (st.membership_transitions > 0) {
    std::vector<const core::CacheManager*> nodes;
    for (std::size_t i = 0; i < st.managers.size(); ++i) {
      nodes.push_back(st.member[i] ? st.managers[i].get() : nullptr);
    }
    const auto oracle = core::check_cluster_consistency(nodes);
    report.churn_consistent = oracle.consistent();
    if (!report.churn_consistent) report.churn_report = oracle.to_string();
  }
  for (const auto& manager : st.managers) {
    std::vector<std::string> keys;
    for (const auto& meta : manager->store().resident_metas()) {
      keys.push_back(meta.key);
    }
    std::sort(keys.begin(), keys.end());
    report.node_keys.push_back(std::move(keys));
  }
  for (std::size_t i = 0; i < st.cpus.size(); ++i) {
    report.cpu_utilization.push_back(
        st.cpus[i]->utilization(report.sim_seconds));
  }
  return report;
}

}  // namespace swala::sim
