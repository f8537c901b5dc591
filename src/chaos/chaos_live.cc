// Wall-clock chaos driver: the same schedule language executed over a real
// loopback LocalCluster, with faults injected at the TCP transport's send
// side and crash/restart mapped to NodeGroup::stop()/start() (the store
// survives — a partition-like crash, which is exactly the rejoin-staleness
// scenario the repair layer exists for). Timing is real, so verdicts are
// reproducible in outcome but the log is not byte-deterministic; keep
// durations short and slack generous.
#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "chaos/chaos.h"
#include "chaos/internal.h"
#include "cluster/local_cluster.h"
#include "http/uri.h"

namespace swala::chaos {
namespace {

using core::CacheManager;
using core::NodeId;
using detail::fmt3;
using detail::stamp;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

ChaosVerdict run_live_chaos(const ChaosSchedule& schedule,
                            const OracleOptions& oracle) {
  ChaosVerdict verdict;
  const std::size_t n = schedule.nodes;

  std::vector<std::unique_ptr<cluster::FaultInjector>> injectors;
  for (std::size_t i = 0; i < n; ++i) {
    injectors.push_back(
        std::make_unique<cluster::FaultInjector>(schedule.seed + i));
  }

  // Test-tuned group options: fast breaker, fast probes, the schedule's
  // anti-entropy cadence.
  const auto group_options = [&](NodeId id) {
    cluster::GroupOptions go;
    go.purge_interval_seconds = 0.2;
    go.failure_threshold = 2;
    go.probe_interval_ms = 100;
    go.connect_timeout_ms = 500;
    go.fetch_timeout_ms = 500;
    go.query_timeout_ms = 200;
    go.backoff_base_ms = 5;
    go.backoff_max_ms = 20;
    go.anti_entropy_interval_ms = static_cast<int>(
        schedule.anti_entropy_interval_seconds * 1000.0);
    go.fault_injector = injectors[id].get();
    go.initial_active = schedule.initial_active;
    go.handoff_batch_bytes = schedule.handoff_batch_bytes;
    return go;
  };
  const auto manager_options = [&](NodeId) {
    core::ManagerOptions mo;
    mo.limits = {100000, 0};
    core::RuleDecision d;
    d.cacheable = true;
    mo.rules.add_rule("/cgi-bin/*", d);
    mo.directory_mode = schedule.directory_mode;
    mo.initial_members = schedule.initial_active;
    return mo;
  };
  cluster::LocalCluster cluster(n, manager_options, RealClock::instance(),
                                group_options);

  detail::StalenessProbe probe;
  probe.interval = schedule.anti_entropy_interval_seconds;
  probe.slack = schedule.slack_seconds;
  probe.instant = oracle.expect_instant_consistency;
  probe.restart_at.assign(n, -1.0);

  std::vector<char> alive(n, 1);
  std::vector<char> member(n, 1);
  if (!schedule.initial_active.empty()) {
    member.assign(n, 0);
    for (const NodeId id : schedule.initial_active) {
      if (id < n) member[id] = 1;
    }
  }
  auto actions = schedule.actions;
  std::stable_sort(actions.begin(), actions.end(),
                   [](const ChaosAction& a, const ChaosAction& b) {
                     return a.at_seconds < b.at_seconds;
                   });

  const auto start = std::chrono::steady_clock::now();
  const auto log = [&](const std::string& text) {
    verdict.log.push_back(stamp(seconds_since(start), text));
  };
  log("chaos(live): " + std::to_string(n) + " nodes, seed " +
      std::to_string(schedule.seed) + ", anti-entropy interval " +
      fmt3(schedule.anti_entropy_interval_seconds) + "s, slack " +
      fmt3(schedule.slack_seconds) + "s");

  const auto nodes_for_check = [&] {
    std::vector<const CacheManager*> nodes;
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(alive[i] && member[i] ? &cluster.manager(i) : nullptr);
    }
    return nodes;
  };
  const auto poll = [&] {
    if (!oracle.check_bounded_staleness) return;
    probe.poll(seconds_since(start), nodes_for_check(), alive, &verdict);
  };

  const auto apply = [&](const ChaosAction& action) {
    const std::size_t node = action.node;
    switch (action.kind) {
      case ActionKind::kAddFault:
        log("node " + std::to_string(node) + ": add fault " +
            cluster::fault_kind_name(action.rule.kind));
        injectors[node]->add_rule(action.rule);
        break;
      case ActionKind::kClearFaults:
        log("node " + std::to_string(node) + ": clear faults");
        injectors[node]->clear();
        break;
      case ActionKind::kCrash:
        if (!alive[node]) break;
        log("node " + std::to_string(node) + ": CRASH (group stopped)");
        cluster.group(node).stop();
        alive[node] = 0;
        break;
      case ActionKind::kRestart: {
        if (alive[node]) break;
        log("node " + std::to_string(node) + ": RESTART");
        const auto st = cluster.group(node).start();
        if (!st.is_ok()) {
          verdict.violations.push_back(stamp(
              seconds_since(start),
              "HARNESS: restart of node " + std::to_string(node) +
                  " failed: " + st.to_string()));
          break;
        }
        alive[node] = 1;
        probe.restart_at[node] = seconds_since(start);
        break;
      }
      case ActionKind::kInvalidate: {
        if (!alive[node]) {
          log("node " + std::to_string(node) +
              ": invalidate skipped (node down)");
          break;
        }
        probe.invalidations.push_back(
            {action.key_or_pattern, seconds_since(start)});
        const std::size_t removed =
            cluster.manager(node).invalidate(action.key_or_pattern);
        log("node " + std::to_string(node) + ": invalidate \"" +
            action.key_or_pattern + "\" removed " + std::to_string(removed) +
            " local");
        break;
      }
      case ActionKind::kInsert: {
        if (!alive[node]) {
          log("node " + std::to_string(node) + ": insert skipped (down)");
          break;
        }
        http::Uri uri;
        if (!http::parse_uri(action.key_or_pattern, &uri)) {
          log("node " + std::to_string(node) + ": bad insert target");
          break;
        }
        auto& manager = cluster.manager(node);
        auto lookup = manager.lookup(http::Method::kGet, uri, Deadline());
        if (lookup.outcome != core::LookupOutcome::kMissMustExecute) {
          log("node " + std::to_string(node) + ": insert \"" +
              action.key_or_pattern + "\" skipped (already cached)");
          break;
        }
        auto rule = lookup.rule;
        if (action.ttl_seconds > 0) rule.ttl_seconds = action.ttl_seconds;
        cgi::CgiOutput out;
        out.success = true;
        out.body = "chaos-" + action.key_or_pattern;
        manager.complete(http::Method::kGet, uri, rule, out, 1.0);
        log("node " + std::to_string(node) + ": insert \"" +
            action.key_or_pattern + "\"");
        break;
      }
      case ActionKind::kCheck: {
        const auto report = core::check_cluster_consistency(nodes_for_check());
        log(std::string("mid-run check: ") +
            (report.consistent() ? "consistent" : "drift present") +
            " (advisory)");
        break;
      }
      case ActionKind::kJoinNode: {
        if (!alive[node]) {
          log("node " + std::to_string(node) + ": join skipped (node down)");
          break;
        }
        if (member[node]) {
          log("node " + std::to_string(node) +
              ": join skipped (already a member)");
          break;
        }
        const auto st = cluster.group(node).join_cluster();
        if (!st.is_ok()) {
          verdict.violations.push_back(
              stamp(seconds_since(start),
                    "HARNESS: join of node " + std::to_string(node) +
                        " failed: " + st.to_string()));
          break;
        }
        member[node] = 1;
        verdict.membership_transitions += 1;
        log("node " + std::to_string(node) + ": JOIN complete (epoch " +
            std::to_string(cluster.manager(node).membership_epoch()) + ")");
        break;
      }
      case ActionKind::kDecommissionNode: {
        if (!alive[node] || !member[node]) {
          log("node " + std::to_string(node) +
              ": decommission skipped (not an active member)");
          break;
        }
        auto& manager = cluster.manager(node);
        manager.begin_decommission();
        const auto handed =
            manager.handoff_state(schedule.handoff_batch_bytes);
        cluster.group(node).announce_decommission();
        member[node] = 0;
        verdict.membership_transitions += 1;
        log("node " + std::to_string(node) + ": DECOMMISSION (handed off " +
            std::to_string(handed.records) + " records, " +
            std::to_string(handed.entries) + " entries)");
        break;
      }
    }
  };

  // Single-threaded driver loop: real time, ~20 ms steps. The tail leaves
  // room for two repair rounds after the last scripted action.
  const double tail =
      2.0 * schedule.anti_entropy_interval_seconds + schedule.slack_seconds +
      1.0;
  const double t_end = schedule.duration_seconds + tail;
  std::size_t next_action = 0;
  while (true) {
    const double now = seconds_since(start);
    while (next_action < actions.size() &&
           actions[next_action].at_seconds <= now) {
      apply(actions[next_action]);
      ++next_action;
    }
    poll();
    if (now >= t_end && next_action >= actions.size()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  cluster.quiesce(5.0);
  poll();

  if (oracle.check_final_consistency) {
    const auto report = core::check_cluster_consistency(nodes_for_check());
    if (!report.consistent()) {
      verdict.violations.push_back(
          stamp(seconds_since(start),
                "FINAL: cluster inconsistent after repair rounds:\n" +
                    report.to_string()));
    }
    log(std::string("final check: ") +
        (report.consistent() ? "consistent" : "INCONSISTENT"));
  }

  for (std::size_t i = 0; i < n; ++i) {
    const auto ms = cluster.manager(i).stats();
    verdict.gaps_repaired += ms.inv_epoch_gaps_repaired;
    verdict.stale_serves_prevented += ms.stale_serves_prevented;
    verdict.overflow_purges += ms.inv_overflow_purges;
    const auto gs = cluster.group(i).stats();
    verdict.anti_entropy_rounds += gs.anti_entropy_rounds;
    verdict.repair_frames +=
        gs.digests_sent + 2 * gs.inv_syncs_pulled + gs.inv_syncs_served;
    verdict.handoff_frames += gs.handoff_frames_sent;
    verdict.handoffs_adopted += gs.handoffs_adopted;
  }
  verdict.passed = verdict.violations.empty();
  log(std::string("verdict: ") + (verdict.passed ? "PASS" : "FAIL") + " (" +
      std::to_string(verdict.violations.size()) + " violations, " +
      std::to_string(verdict.gaps_repaired) + " gaps repaired)");
  cluster.stop();
  return verdict;
}

}  // namespace swala::chaos
