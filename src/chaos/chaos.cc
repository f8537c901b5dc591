#include "chaos/chaos.h"

#include <algorithm>
#include <cstdio>

#include "chaos/internal.h"
#include "common/random.h"
#include "common/strings.h"
#include "http/uri.h"

namespace swala::chaos {

std::string ChaosVerdict::log_text() const {
  std::string out;
  for (const auto& line : log) {
    out += line;
    out += '\n';
  }
  return out;
}

ChaosSchedule make_random_schedule(std::uint64_t seed, std::size_t nodes,
                                   double duration_seconds) {
  if (nodes < 2) nodes = 2;
  if (duration_seconds < 2.0) duration_seconds = 2.0;
  ChaosSchedule s;
  s.nodes = nodes;
  s.seed = seed;
  s.duration_seconds = duration_seconds;
  Rng rng(seed ^ 0xC4A05C4A05ULL);

  const auto node_of = [&rng, nodes] {
    return static_cast<core::NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
  };
  const auto push = [&s](double t, ChaosAction a) {
    a.at_seconds = t;
    s.actions.push_back(std::move(a));
  };

  // Warmup: every node caches a few keys in its own namespace, all before
  // any invalidation fires (the staleness probe is membership-based, so a
  // pattern must never be re-populated after its invalidation).
  for (std::size_t n = 0; n < nodes; ++n) {
    const int keys = static_cast<int>(rng.uniform_int(2, 4));
    for (int k = 0; k < keys; ++k) {
      ChaosAction a;
      a.kind = ActionKind::kInsert;
      a.node = static_cast<core::NodeId>(n);
      a.key_or_pattern =
          "/cgi-bin/chaos/n" + std::to_string(n) + "/k" + std::to_string(k);
      push(rng.uniform(0.02, 0.2) * duration_seconds, a);
    }
  }

  // Fault storm: a handful of send-side rules on random nodes. Everything
  // is cleared well before the end so the tail repair rounds can converge.
  const int storms = static_cast<int>(rng.uniform_int(2, 4));
  for (int i = 0; i < storms; ++i) {
    ChaosAction a;
    a.kind = ActionKind::kAddFault;
    a.node = node_of();
    cluster::FaultRule rule;
    rule.peer = rng.bernoulli(0.5) ? node_of() : core::kInvalidNode;
    switch (rng.uniform_int(0, 3)) {
      case 0:
        rule.type = cluster::MsgType::kInvalidate;
        break;
      case 1:
        rule.type = cluster::MsgType::kInsert;
        break;
      case 2:
        rule.type = cluster::MsgType::kErase;
        break;
      default:
        rule.type.reset();  // any message type
        break;
    }
    switch (rng.uniform_int(0, 3)) {
      case 0:
        rule.kind = cluster::FaultKind::kDrop;
        break;
      case 1:
        rule.kind = cluster::FaultKind::kDelay;
        rule.delay_ms = static_cast<int>(rng.uniform_int(20, 150));
        break;
      case 2:
        rule.kind = cluster::FaultKind::kDuplicate;
        break;
      default:
        rule.kind = cluster::FaultKind::kBlackhole;
        break;
    }
    rule.probability = rng.bernoulli(0.5) ? 1.0 : 0.6;
    a.rule = rule;
    push(rng.uniform(0.2, 0.5) * duration_seconds, a);
  }

  // One partition-like crash + rejoin (store survives, network does not).
  const core::NodeId victim = node_of();
  {
    ChaosAction a;
    a.kind = ActionKind::kCrash;
    a.node = victim;
    push(rng.uniform(0.25, 0.35) * duration_seconds, a);
    a.kind = ActionKind::kRestart;
    push(rng.uniform(0.55, 0.65) * duration_seconds, a);
  }

  // Invalidations of the warmup namespaces, after every matching insert.
  const int invals = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < invals; ++i) {
    const core::NodeId target = node_of();
    ChaosAction a;
    a.kind = ActionKind::kInvalidate;
    a.node = node_of();  // any node may originate it
    a.key_or_pattern =
        "GET /cgi-bin/chaos/n" + std::to_string(target) + "/*";
    push(rng.uniform(0.3, 0.55) * duration_seconds, a);
  }

  // Clear every injector, then snapshot mid-run state.
  for (std::size_t n = 0; n < nodes; ++n) {
    ChaosAction a;
    a.kind = ActionKind::kClearFaults;
    a.node = static_cast<core::NodeId>(n);
    push(0.7 * duration_seconds, a);
  }
  {
    ChaosAction a;
    a.kind = ActionKind::kCheck;
    push(0.75 * duration_seconds, a);
  }
  return s;
}

namespace detail {

cluster::GroupOptions chaos_group_options(const ChaosSchedule& schedule) {
  cluster::GroupOptions go;
  go.purge_interval_seconds = 0.2;
  go.failure_threshold = 2;
  go.probe_interval_ms = 100;
  go.connect_timeout_ms = 500;
  go.fetch_timeout_ms = 500;
  go.query_timeout_ms = 200;
  go.backoff_base_ms = 5;
  go.backoff_max_ms = 20;
  go.batch_max_messages = 1;
  go.anti_entropy_interval_ms =
      static_cast<int>(schedule.anti_entropy_interval_seconds * 1000.0);
  go.initial_active = schedule.initial_active;
  go.handoff_batch_bytes = schedule.handoff_batch_bytes;
  return go;
}

core::ManagerOptions chaos_manager_options(const ChaosSchedule& schedule) {
  core::ManagerOptions mo;
  mo.limits = {100000, 0};
  core::RuleDecision d;
  d.cacheable = true;
  mo.rules.add_rule("/cgi-bin/*", d);
  mo.directory_mode = schedule.directory_mode;
  mo.initial_members = schedule.initial_active;
  return mo;
}

std::vector<std::string> sorted_keys(const core::CacheManager& manager) {
  std::vector<std::string> keys = manager.store().keys();
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::string fmt3(double t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", t);
  return std::string(buf);
}

std::string stamp(double t, const std::string& text) {
  return "t=" + fmt3(t) + " " + text;
}

double StalenessProbe::deadline_for(std::size_t node, double t_inv) const {
  double base = t_inv;
  if (node < restart_at.size() && restart_at[node] > base) {
    base = restart_at[node];  // a rejoiner gets one repair exchange
  }
  if (instant) return base + 0.001;
  return base + interval + slack;
}

void StalenessProbe::poll(double now,
                          const std::vector<const core::CacheManager*>& nodes,
                          const std::vector<char>& alive,
                          ChaosVerdict* verdict) {
  for (const auto& inv : invalidations) {
    if (now <= inv.at) continue;
    for (std::size_t n = 0; n < nodes.size(); ++n) {
      if (nodes[n] == nullptr || !alive[n]) continue;
      for (const auto& key : nodes[n]->store().keys()) {
        if (!glob_match(inv.pattern, key)) continue;
        const double deadline = deadline_for(n, inv.at);
        const std::string id = std::to_string(n) + "|" + key + "|" +
                               std::to_string(inv.at);
        const bool is_violation = now > deadline;
        if (is_violation && violated_.insert(id).second) {
          StalenessWindow w;
          w.node = static_cast<core::NodeId>(n);
          w.key = key;
          w.invalidated_at = inv.at;
          w.observed_at = now;
          w.deadline = deadline;
          w.violation = true;
          verdict->staleness_windows.push_back(w);
          verdict->violations.push_back(detail::stamp(
              now, "STALE: node " + std::to_string(n) + " still holds \"" +
                       key + "\" invalidated at t=" + fmt3(inv.at) +
                       " (deadline t=" + fmt3(deadline) + ")"));
        } else if (!is_violation && seen_.insert(id).second) {
          StalenessWindow w;
          w.node = static_cast<core::NodeId>(n);
          w.key = key;
          w.invalidated_at = inv.at;
          w.observed_at = now;
          w.deadline = deadline;
          verdict->staleness_windows.push_back(w);
        }
      }
    }
  }
}

Harness::Harness(const ChaosSchedule& sched, const OracleOptions& oracle_opts)
    : schedule(sched), oracle(oracle_opts) {
  const std::size_t n = schedule.nodes;
  for (std::size_t i = 0; i < n; ++i) {
    injectors.push_back(
        std::make_unique<cluster::FaultInjector>(schedule.seed + i));
  }
  alive.assign(n, 1);
  member.assign(n, schedule.initial_active.empty() ? 1 : 0);
  for (const core::NodeId id : schedule.initial_active) {
    if (id < n) member[id] = 1;
  }
  probe.interval = schedule.anti_entropy_interval_seconds;
  probe.slack = schedule.slack_seconds;
  probe.instant = oracle.expect_instant_consistency;
  probe.restart_at.assign(n, -1.0);
}

void Harness::log(const std::string& text) {
  verdict.log.push_back(stamp(now(), text));
}

void Harness::log_header(const char* label) {
  log(std::string(label) + ": " + std::to_string(schedule.nodes) +
      " nodes, seed " + std::to_string(schedule.seed) +
      ", anti-entropy interval " +
      fmt3(schedule.anti_entropy_interval_seconds) + "s, slack " +
      fmt3(schedule.slack_seconds) + "s");
}

std::vector<const core::CacheManager*> Harness::checked_nodes() {
  std::vector<const core::CacheManager*> nodes;
  for (std::size_t i = 0; i < schedule.nodes; ++i) {
    nodes.push_back(alive[i] && member[i] ? &manager(i) : nullptr);
  }
  return nodes;
}

void Harness::poll() {
  if (oracle.check_bounded_staleness) {
    probe.poll(now(), checked_nodes(), alive, &verdict);
  }
}

void Harness::apply(const ChaosAction& action) {
  const std::size_t n = action.node;
  const std::string node = "node " + std::to_string(n) + ": ";
  switch (action.kind) {
    case ActionKind::kAddFault:
      log(node + "add fault " + cluster::fault_kind_name(action.rule.kind) +
          " peer=" +
          (action.rule.peer == core::kInvalidNode
               ? std::string("*")
               : std::to_string(action.rule.peer)));
      injectors[n]->add_rule(action.rule);
      break;
    case ActionKind::kClearFaults:
      log(node + "clear faults");
      injectors[n]->clear();
      break;
    case ActionKind::kCrash:
      if (!alive[n]) break;
      log(node + "CRASH (off the network)");
      crash(n);
      alive[n] = 0;
      break;
    case ActionKind::kRestart: {
      if (alive[n]) break;
      log(node + "RESTART (rejoin resync)");
      if (const Status st = restart(n); !st.is_ok()) {
        verdict.violations.push_back(stamp(
            now(), "HARNESS: restart of " + node + st.to_string()));
        break;
      }
      alive[n] = 1;
      probe.restart_at[n] = now();
      break;
    }
    case ActionKind::kInvalidate: {
      if (!alive[n]) {
        log(node + "invalidate skipped (node down)");
        break;
      }
      probe.invalidations.push_back({action.key_or_pattern, now()});
      const std::size_t removed = manager(n).invalidate(action.key_or_pattern);
      log(node + "invalidate \"" + action.key_or_pattern + "\" removed " +
          std::to_string(removed) + " local");
      after_invalidate();
      break;
    }
    case ActionKind::kInsert: {
      if (!alive[n]) {
        log(node + "insert skipped (node down)");
        break;
      }
      http::Uri uri;
      if (!http::parse_uri(action.key_or_pattern, &uri)) {
        log(node + "bad insert target \"" + action.key_or_pattern + "\"");
        break;
      }
      auto lookup = manager(n).lookup(http::Method::kGet, uri, Deadline());
      if (lookup.outcome != core::LookupOutcome::kMissMustExecute) {
        log(node + "insert \"" + action.key_or_pattern +
            "\" skipped (already cached)");
        break;
      }
      auto rule = lookup.rule;
      if (action.ttl_seconds > 0) rule.ttl_seconds = action.ttl_seconds;
      cgi::CgiOutput out;
      out.success = true;
      out.body = "chaos-" + action.key_or_pattern;
      manager(n).complete(http::Method::kGet, uri, rule, out, 1.0);
      log(node + "insert \"" + action.key_or_pattern + "\"");
      break;
    }
    case ActionKind::kCheck: {
      const auto report = core::check_cluster_consistency(checked_nodes());
      log(std::string("mid-run check: ") +
          (report.consistent() ? "consistent" : "drift present") +
          " (advisory)");
      break;
    }
    case ActionKind::kJoinNode: {
      if (!alive[n]) {
        log(node + "join skipped (node down)");
        break;
      }
      if (member[n]) {
        log(node + "join skipped (already a member)");
        break;
      }
      if (const Status st = join(n); !st.is_ok()) {
        verdict.violations.push_back(
            stamp(now(), "HARNESS: join of " + node + st.to_string()));
        break;
      }
      member[n] = 1;
      verdict.membership_transitions += 1;
      log(node + "JOIN complete (epoch " +
          std::to_string(manager(n).membership_epoch()) + ")");
      break;
    }
    case ActionKind::kDecommissionNode: {
      if (!alive[n] || !member[n]) {
        log(node + "decommission skipped (not an active member)");
        break;
      }
      const auto handed = decommission(n);
      member[n] = 0;
      verdict.membership_transitions += 1;
      log(node + "DECOMMISSION (handed off " + std::to_string(handed.records) +
          " records, " + std::to_string(handed.entries) + " entries)");
      break;
    }
  }
}

void Harness::finish() {
  if (oracle.check_final_consistency) {
    // Crashed nodes and non-members have no view to check.
    const auto report = core::check_cluster_consistency(checked_nodes());
    if (!report.consistent()) {
      verdict.violations.push_back(
          stamp(now(), "FINAL: cluster inconsistent after repair rounds:\n" +
                           report.to_string()));
    }
    log(std::string("final check: ") +
        (report.consistent() ? "consistent" : "INCONSISTENT"));
  }
  for (std::size_t i = 0; i < schedule.nodes; ++i) {
    const auto ms = manager(i).stats();
    verdict.gaps_repaired += ms.inv_epoch_gaps_repaired;
    verdict.stale_serves_prevented += ms.stale_serves_prevented;
    verdict.overflow_purges += ms.inv_overflow_purges;
    verdict.member_keys.push_back(alive[i] && member[i]
                                      ? sorted_keys(manager(i))
                                      : std::vector<std::string>{});
  }
  verdict.passed = verdict.violations.empty();
  log(std::string("verdict: ") + (verdict.passed ? "PASS" : "FAIL") + " (" +
      std::to_string(verdict.violations.size()) + " violations, " +
      std::to_string(verdict.gaps_repaired) + " gaps repaired, " +
      std::to_string(verdict.stale_serves_prevented) +
      " stale serves prevented)");
}

}  // namespace detail

}  // namespace swala::chaos
