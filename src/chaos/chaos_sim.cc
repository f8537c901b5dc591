// Virtual-time chaos driver: the whole scenario runs on the discrete-event
// engine over sim::VirtualBus, so every run of a given schedule is
// bit-for-bit identical — event log included. The driver mirrors the TCP
// group's repair protocol (epoch piggyback on rejoin, periodic digest
// rounds with the two-strike mismatch rule, kInvSync pulls, recovery resync
// pushes) while charging repair traffic at real encoded-frame sizes.
#include <memory>

#include "chaos/chaos.h"
#include "chaos/internal.h"
#include "cluster/message.h"
#include "http/uri.h"
#include "sim/engine.h"
#include "sim/virtual_bus.h"

namespace swala::chaos {
namespace {

using core::CacheManager;
using core::NodeId;
using detail::fmt3;
using detail::stamp;

constexpr double kDeliveryDelay = 0.01;  ///< virtual propagation latency
constexpr double kPollInterval = 0.05;   ///< staleness probe cadence

/// Everything one sim run owns. Single-threaded: only engine callbacks
/// touch it.
struct SimState {
  const ChaosSchedule* schedule = nullptr;
  const OracleOptions* oracle = nullptr;
  sim::SimEngine engine;
  std::vector<std::unique_ptr<cluster::FaultInjector>> injectors;
  sim::VirtualTraffic traffic;
  sim::FrameTally repair;  ///< kDigest + kInvSync(+Resp) + resync pushes
  std::vector<std::unique_ptr<sim::VirtualBus>> buses;
  sim::ManagerList managers;
  std::vector<char> alive;
  /// Active-membership bookkeeping (harness view): nodes outside it take no
  /// part in digest rounds and are excluded from the oracle — a joiner has
  /// not been admitted yet, a decommissioned leaver handed its state off.
  std::vector<char> member;
  ChaosVerdict verdict;
  detail::StalenessProbe probe;
  std::uint64_t digest_round = 0;

  /// Two-strike digest tracking per (receiver, sender), mirroring
  /// PeerLink::{last_peer_digest, last_local_digest, mismatch_pending}.
  struct PairTrack {
    std::uint64_t peer_digest = 0;
    std::uint64_t local_digest = 0;
    bool pending = false;
  };
  std::vector<std::vector<PairTrack>> track;

  void log(const std::string& text) {
    verdict.log.push_back(stamp(engine.now(), text));
  }
};

// ---- repair protocol (mirrors NodeGroup's anti-entropy paths) ----

/// `puller` pulls missed invalidations from `source` over the simulated
/// kInvSync exchange, with both legs subject to fault injection.
void pull_inv_sync(SimState* state, std::size_t puller, std::size_t source) {
  CacheManager* p = state->managers[puller].get();
  CacheManager* s = state->managers[source].get();
  double delay = 0.0;
  const auto req = cluster::Message::inv_sync(static_cast<NodeId>(puller),
                                              p->inv_floor_vector());
  state->repair.add(req);
  if (state->buses[puller]->copies(static_cast<NodeId>(source),
                                   cluster::MsgType::kInvSync, &delay) == 0) {
    state->log("node " + std::to_string(puller) +
               ": kInvSync pull to node " + std::to_string(source) +
               " lost (fault injection)");
    return;
  }
  bool truncated = false;
  const auto entries = s->inv_entries_after(p->inv_floor_vector(), &truncated);
  const auto resp = cluster::Message::inv_sync_resp(
      static_cast<NodeId>(source), entries, truncated);
  state->repair.add(resp);
  if (state->buses[source]->copies(static_cast<NodeId>(puller),
                                   cluster::MsgType::kInvSyncResp,
                                   &delay) == 0) {
    state->log("node " + std::to_string(puller) +
               ": kInvSyncResp from node " + std::to_string(source) +
               " lost (fault injection)");
    return;
  }
  const std::size_t applied = p->apply_inv_sync(entries, truncated);
  state->log("node " + std::to_string(puller) + ": pulled " +
             std::to_string(entries.size()) + " invalidation records from " +
             std::to_string(source) + ", applied " + std::to_string(applied) +
             (truncated ? " (log truncated: full purge)" : ""));
}

/// Epoch-gap check: if `source`'s advertised high vector proves `receiver`
/// missed an invalidation, pull.
void maybe_pull(SimState* state, std::size_t receiver, std::size_t source,
                const core::EpochVector& advertised_high) {
  if (advertised_high.empty()) return;
  if (!state->managers[receiver]->inv_behind(advertised_high)) return;
  state->log("node " + std::to_string(receiver) +
             ": epoch gap behind node " + std::to_string(source));
  pull_inv_sync(state, receiver, source);
}

/// `from` re-announces its resident entries to `to` (the kSyncReq answer /
/// recovery push), charged as repair traffic.
void push_state(SimState* state, std::size_t from, std::size_t to) {
  state->buses[from]->push_state(static_cast<NodeId>(to), &state->repair);
}

/// One periodic digest round: every live node sends every live peer a
/// tailored kDigest; receivers pull on an epoch gap and resync on a
/// two-strike digest mismatch.
void digest_round(SimState* state) {
  state->digest_round += 1;
  state->verdict.anti_entropy_rounds += 1;
  const bool has_digest =
      state->schedule->directory_mode != core::DirectoryMode::kQuery;
  for (std::size_t s = 0; s < state->managers.size(); ++s) {
    if (!state->alive[s] || !state->member[s]) continue;
    CacheManager* sender = state->managers[s].get();
    const auto high = sender->inv_high_vector();
    for (std::size_t p = 0; p < state->managers.size(); ++p) {
      if (p == s || !state->alive[p] || !state->member[p]) continue;
      std::size_t entries = 0;
      const std::uint64_t digest =
          sender->digest_for_peer(static_cast<NodeId>(p), &entries);
      const auto msg = cluster::Message::make_digest(
          static_cast<NodeId>(s), high, has_digest, digest);
      state->repair.add(msg);
      double delay = kDeliveryDelay;
      if (state->buses[s]->copies(static_cast<NodeId>(p),
                                  cluster::MsgType::kDigest, &delay) == 0) {
        continue;  // this round's frame lost; the next round retries
      }
      state->engine.schedule_in(delay, [state, s, p, high, has_digest,
                                        digest] {
        if (!state->alive[p] || !state->alive[s]) return;
        maybe_pull(state, p, s, high);
        if (!has_digest) return;
        std::size_t n = 0;
        const std::uint64_t local =
            state->managers[p]->digest_of_peer_table(static_cast<NodeId>(s),
                                                     &n);
        auto& track = state->track[p][s];
        if (local == digest) {
          track.pending = false;
          return;
        }
        if (track.pending && track.peer_digest == digest &&
            track.local_digest == local) {
          // Same mismatch two rounds running: nothing is in flight, the
          // divergence is real. Drop the table and ask for a resync.
          track.pending = false;
          state->log("node " + std::to_string(p) +
                     ": digest mismatch vs node " + std::to_string(s) +
                     " confirmed; resyncing table");
          state->managers[p]->on_peer_recovered(static_cast<NodeId>(s));
          push_state(state, s, p);
        } else {
          track.peer_digest = digest;
          track.local_digest = local;
          track.pending = true;
        }
      });
    }
  }
}

/// Rejoin after a crash: mirrors what record_success + the greeting HELLO
/// exchange do on the TCP substrate — survivors drop their quarantined
/// table of the rejoiner and re-push, the rejoiner re-pushes its surviving
/// store, and the HELLO epoch vectors expose invalidation gaps both ways.
void rejoin(SimState* state, std::size_t node) {
  state->alive[node] = 1;
  state->probe.restart_at[node] = state->engine.now();
  if (!state->member[node]) return;  // outside the cluster: nothing to resync
  for (std::size_t o = 0; o < state->managers.size(); ++o) {
    if (o == node || !state->alive[o] || !state->member[o]) continue;
    state->managers[o]->on_peer_recovered(static_cast<NodeId>(node));
    state->managers[node]->on_peer_recovered(static_cast<NodeId>(o));
    push_state(state, o, node);
    push_state(state, node, o);
    // HELLO epoch piggyback, both directions.
    maybe_pull(state, node, o, state->managers[o]->inv_high_vector());
    maybe_pull(state, o, node, state->managers[node]->inv_high_vector());
  }
}

void apply_action(SimState* state, const ChaosAction& action) {
  const std::size_t n = action.node;
  switch (action.kind) {
    case ActionKind::kAddFault:
      state->log("node " + std::to_string(n) + ": add fault " +
                 cluster::fault_kind_name(action.rule.kind) + " peer=" +
                 (action.rule.peer == core::kInvalidNode
                      ? std::string("*")
                      : std::to_string(action.rule.peer)));
      state->injectors[n]->add_rule(action.rule);
      break;
    case ActionKind::kClearFaults:
      state->log("node " + std::to_string(n) + ": clear faults");
      state->injectors[n]->clear();
      break;
    case ActionKind::kCrash:
      if (!state->alive[n]) break;
      state->log("node " + std::to_string(n) + ": CRASH (off the network)");
      state->alive[n] = 0;
      break;
    case ActionKind::kRestart:
      if (state->alive[n]) break;
      state->log("node " + std::to_string(n) + ": RESTART (rejoin resync)");
      rejoin(state, n);
      break;
    case ActionKind::kInvalidate: {
      if (!state->alive[n]) {
        state->log("node " + std::to_string(n) +
                   ": invalidate skipped (node down)");
        break;
      }
      state->probe.invalidations.push_back(
          {action.key_or_pattern, state->engine.now()});
      const std::size_t removed =
          state->managers[n]->invalidate(action.key_or_pattern);
      state->log("node " + std::to_string(n) + ": invalidate \"" +
                 action.key_or_pattern + "\" removed " +
                 std::to_string(removed) + " local");
      if (state->oracle->expect_instant_consistency) {
        // Broken-oracle self-test: probe before the broadcast can land.
        state->engine.schedule_in(kDeliveryDelay / 2, [state] {
          std::vector<const CacheManager*> nodes;
          for (std::size_t i = 0; i < state->managers.size(); ++i) {
            nodes.push_back(state->member[i] ? state->managers[i].get()
                                             : nullptr);
          }
          state->probe.poll(state->engine.now(), nodes, state->alive,
                            &state->verdict);
        });
      }
      break;
    }
    case ActionKind::kInsert: {
      if (!state->alive[n]) {
        state->log("node " + std::to_string(n) +
                   ": insert skipped (node down)");
        break;
      }
      http::Uri uri;
      if (!http::parse_uri(action.key_or_pattern, &uri)) {
        state->log("node " + std::to_string(n) + ": bad insert target \"" +
                   action.key_or_pattern + "\"");
        break;
      }
      auto lookup =
          state->managers[n]->lookup(http::Method::kGet, uri, Deadline());
      if (lookup.outcome != core::LookupOutcome::kMissMustExecute) {
        state->log("node " + std::to_string(n) + ": insert \"" +
                   action.key_or_pattern + "\" skipped (already cached)");
        break;
      }
      auto rule = lookup.rule;
      if (action.ttl_seconds > 0) rule.ttl_seconds = action.ttl_seconds;
      cgi::CgiOutput out;
      out.success = true;
      out.body = "chaos-" + action.key_or_pattern;
      state->managers[n]->complete(http::Method::kGet, uri, rule, out, 1.0);
      state->log("node " + std::to_string(n) + ": insert \"" +
                 action.key_or_pattern + "\"");
      break;
    }
    case ActionKind::kCheck: {
      std::vector<const CacheManager*> nodes;
      for (std::size_t i = 0; i < state->managers.size(); ++i) {
        nodes.push_back(state->alive[i] && state->member[i]
                            ? state->managers[i].get()
                            : nullptr);
      }
      const auto report = core::check_cluster_consistency(nodes);
      state->log(std::string("mid-run check: ") +
                 (report.consistent() ? "consistent" : "drift present") +
                 " (advisory)");
      break;
    }
    case ActionKind::kJoinNode: {
      if (!state->alive[n]) {
        state->log("node " + std::to_string(n) + ": join skipped (node down)");
        break;
      }
      if (state->member[n]) {
        state->log("node " + std::to_string(n) +
                   ": join skipped (already a member)");
        break;
      }
      // The kJoinAck responder: the first live member the kJoin fan-out
      // reaches.
      std::size_t responder = state->managers.size();
      for (std::size_t o = 0; o < state->managers.size(); ++o) {
        if (o != n && state->alive[o] && state->member[o]) {
          responder = o;
          break;
        }
      }
      if (responder == state->managers.size()) {
        state->log("node " + std::to_string(n) +
                   ": join skipped (no live member to ack)");
        break;
      }
      // Every live member admits the joiner (the per-peer kJoin serve path):
      // partitioned mode forwards the remapped directory slice, replicated
      // mode re-pushes the admitting peer's resident entries.
      const auto mode = state->managers[n]->directory_mode();
      for (std::size_t o = 0; o < state->managers.size(); ++o) {
        if (o == n || !state->alive[o] || !state->member[o]) continue;
        const auto hs =
            state->managers[o]->member_joined(static_cast<NodeId>(n));
        if (hs.records + hs.entries > 0) {
          state->log("node " + std::to_string(o) + ": remapped " +
                     std::to_string(hs.records) + " records, re-announced " +
                     std::to_string(hs.entries) + " entries for joiner " +
                     std::to_string(n));
        }
        if (mode == core::DirectoryMode::kReplicated) {
          push_state(state, o, n);
        }
      }
      // The joiner adopts the responder's post-admission view (kJoinAck).
      state->member[n] = 1;
      state->managers[n]->adopt_membership(
          state->managers[responder]->membership_epoch(),
          state->managers[responder]->active_members());
      state->verdict.membership_transitions += 1;
      state->log("node " + std::to_string(n) + ": JOIN complete (epoch " +
                 std::to_string(state->managers[n]->membership_epoch()) +
                 ")");
      break;
    }
    case ActionKind::kDecommissionNode: {
      if (!state->alive[n] || !state->member[n]) {
        state->log("node " + std::to_string(n) +
                   ": decommission skipped (not an active member)");
        break;
      }
      state->managers[n]->begin_decommission();
      const auto hs = state->managers[n]->handoff_state(
          state->schedule->handoff_batch_bytes);
      for (std::size_t o = 0; o < state->managers.size(); ++o) {
        if (o == n || !state->alive[o] || !state->member[o]) continue;
        state->managers[o]->member_left(static_cast<NodeId>(n));
      }
      state->member[n] = 0;
      state->verdict.membership_transitions += 1;
      state->log("node " + std::to_string(n) + ": DECOMMISSION (handed off " +
                 std::to_string(hs.records) + " records, " +
                 std::to_string(hs.entries) + " entries)");
      break;
    }
  }
}

}  // namespace

ChaosVerdict run_sim_chaos(const ChaosSchedule& schedule,
                           const OracleOptions& oracle) {
  SimState state;
  state.schedule = &schedule;
  state.oracle = &oracle;
  const std::size_t n = schedule.nodes;
  state.alive.assign(n, 1);
  if (schedule.initial_active.empty()) {
    state.member.assign(n, 1);
  } else {
    state.member.assign(n, 0);
    for (const NodeId id : schedule.initial_active) {
      if (id < n) state.member[id] = 1;
    }
  }
  state.track.assign(n, std::vector<SimState::PairTrack>(n));
  state.probe.interval = schedule.anti_entropy_interval_seconds;
  state.probe.slack = schedule.slack_seconds;
  state.probe.instant = oracle.expect_instant_consistency;
  state.probe.restart_at.assign(n, -1.0);

  for (std::size_t i = 0; i < n; ++i) {
    state.injectors.push_back(std::make_unique<cluster::FaultInjector>(
        schedule.seed + i));
    // No request is timed here, so probes carry no latency of their own.
    state.buses.push_back(std::make_unique<sim::VirtualBus>(
        &state.engine, &state.managers, static_cast<NodeId>(i),
        kDeliveryDelay, /*probe_latency=*/0.0, state.injectors[i].get(),
        &state.alive, &state.traffic));
  }
  for (std::size_t i = 0; i < n; ++i) {
    core::ManagerOptions mo;
    mo.limits = {100000, 0};
    core::RuleDecision d;
    d.cacheable = true;
    mo.rules.add_rule("/cgi-bin/*", d);
    mo.directory_mode = schedule.directory_mode;
    mo.initial_members = schedule.initial_active;
    state.managers.push_back(std::make_unique<CacheManager>(
        static_cast<NodeId>(i), n, std::move(mo), state.engine.clock(),
        state.buses[i].get()));
  }

  state.log("chaos: " + std::to_string(n) + " nodes, seed " +
            std::to_string(schedule.seed) + ", anti-entropy interval " +
            fmt3(schedule.anti_entropy_interval_seconds) + "s, slack " +
            fmt3(schedule.slack_seconds) + "s");

  // Tail: enough for two repair rounds after the last scripted action.
  const double tail =
      2.0 * schedule.anti_entropy_interval_seconds + schedule.slack_seconds +
      0.5;
  const double t_end = schedule.duration_seconds + tail;

  for (const auto& action : schedule.actions) {
    state.engine.schedule_at(action.at_seconds, [&state, action] {
      apply_action(&state, action);
    });
  }
  if (schedule.anti_entropy_interval_seconds > 0) {
    for (double t = schedule.anti_entropy_interval_seconds; t < t_end;
         t += schedule.anti_entropy_interval_seconds) {
      state.engine.schedule_at(t, [&state] { digest_round(&state); });
    }
  }
  if (oracle.check_bounded_staleness) {
    for (double t = kPollInterval; t < t_end; t += kPollInterval) {
      state.engine.schedule_at(t, [&state] {
        std::vector<const CacheManager*> nodes;
        for (std::size_t i = 0; i < state.managers.size(); ++i) {
          nodes.push_back(state.member[i] ? state.managers[i].get()
                                          : nullptr);
        }
        state.probe.poll(state.engine.now(), nodes, state.alive,
                         &state.verdict);
      });
    }
  }
  state.engine.run();

  // Final global oracle: crashed nodes have no view to check.
  if (oracle.check_final_consistency) {
    std::vector<const CacheManager*> nodes;
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(state.alive[i] && state.member[i]
                          ? state.managers[i].get()
                          : nullptr);
    }
    const auto report = core::check_cluster_consistency(nodes);
    if (!report.consistent()) {
      state.verdict.violations.push_back(
          stamp(state.engine.now(),
                "FINAL: cluster inconsistent after repair rounds:\n" +
                    report.to_string()));
    }
    state.log(std::string("final check: ") +
              (report.consistent() ? "consistent" : "INCONSISTENT"));
  }
  state.verdict.repair_frames = state.repair.frames;
  state.verdict.repair_bytes = state.repair.bytes;
  state.verdict.handoff_frames = state.traffic.handoffs.frames;
  state.verdict.handoff_bytes = state.traffic.handoffs.bytes;
  state.verdict.handoffs_adopted = state.traffic.handoffs_adopted;
  for (const auto& m : state.managers) {
    const auto s = m->stats();
    state.verdict.gaps_repaired += s.inv_epoch_gaps_repaired;
    state.verdict.stale_serves_prevented += s.stale_serves_prevented;
    state.verdict.overflow_purges += s.inv_overflow_purges;
  }
  state.verdict.passed = state.verdict.violations.empty();
  state.log(std::string("verdict: ") +
            (state.verdict.passed ? "PASS" : "FAIL") + " (" +
            std::to_string(state.verdict.violations.size()) +
            " violations, " +
            std::to_string(state.verdict.gaps_repaired) + " gaps repaired, " +
            std::to_string(state.verdict.stale_serves_prevented) +
            " stale serves prevented)");
  return state.verdict;
}

}  // namespace swala::chaos
